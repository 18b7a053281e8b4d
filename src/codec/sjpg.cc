#include "src/codec/sjpg.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>

#include "src/codec/bitstream.h"
#include "src/codec/block_codec.h"
#include "src/codec/color.h"
#include "src/codec/dct.h"
#include "src/codec/huffman.h"
#include "src/util/band_crew.h"
#include "src/util/macros.h"

namespace smol {

namespace {

constexpr uint32_t kMagic = 0x3150'4A53;  // "SJP1" little-endian.

struct PlaneSet {
  std::vector<uint8_t> y, cb, cr;
  int w = 0, h = 0, cw = 0, ch = 0;
};

// Per-MCU block layout: color = 4 luma (2x2) + Cb + Cr; gray = 1 luma.
struct BlockRef {
  int component;  // 0 = Y, 1 = Cb, 2 = Cr
  int dx, dy;     // block offset within the MCU's luma grid (pixels)
};

const BlockRef kColorBlocks[6] = {{0, 0, 0}, {0, 8, 0}, {0, 0, 8},
                                  {0, 8, 8}, {1, 0, 0}, {2, 0, 0}};
const BlockRef kGrayBlocks[1] = {{0, 0, 0}};

}  // namespace

Result<std::vector<uint8_t>> SjpgEncode(const Image& image,
                                        const SjpgEncodeOptions& options) {
  if (image.empty()) return Status::InvalidArgument("empty image");
  if (image.channels() != 1 && image.channels() != 3) {
    return Status::InvalidArgument("SJPG supports 1 or 3 channels");
  }
  const bool color = image.channels() == 3;
  const int w = image.width();
  const int h = image.height();
  const int mcu = color ? 16 : 8;
  const int mcu_cols = (w + mcu - 1) / mcu;
  const int mcu_rows = (h + mcu - 1) / mcu;

  const QuantTable luma_qt = QuantTable::Luma(options.quality);
  const QuantTable chroma_qt = QuantTable::Chroma(options.quality);

  PlaneSet planes;
  planes.w = w;
  planes.h = h;
  if (color) {
    Ycbcr420 ycc = RgbToYcbcr420(image);
    planes.y = std::move(ycc.y);
    planes.cb = std::move(ycc.cb);
    planes.cr = std::move(ycc.cr);
    planes.cw = (w + 1) / 2;
    planes.ch = (h + 1) / 2;
  } else {
    planes.y.assign(image.data(), image.data() + image.size_bytes());
  }

  const BlockRef* blocks = color ? kColorBlocks : kGrayBlocks;
  const int blocks_per_mcu = color ? 6 : 1;

  // Pass 1: transform all blocks and gather Huffman statistics.
  std::vector<CoeffBlock> coeffs;
  coeffs.reserve(static_cast<size_t>(mcu_rows) * mcu_cols * blocks_per_mcu);
  std::vector<uint64_t> dc_luma_freq(17, 0), ac_luma_freq(256, 0);
  std::vector<uint64_t> dc_chroma_freq(17, 0), ac_chroma_freq(256, 0);
  for (int mr = 0; mr < mcu_rows; ++mr) {
    int dc_pred[3] = {0, 0, 0};  // reset per MCU row (restart semantics)
    for (int mc = 0; mc < mcu_cols; ++mc) {
      for (int b = 0; b < blocks_per_mcu; ++b) {
        const BlockRef& ref = blocks[b];
        int16_t samples[64];
        CoeffBlock cb;
        if (ref.component == 0) {
          ExtractBlock(planes.y, planes.w, planes.h, mc * mcu + ref.dx,
                       mr * mcu + ref.dy, /*bias=*/128, samples);
          cb = TransformBlock(samples, luma_qt);
          AccumulateBlockStats(cb, &dc_pred[0], dc_luma_freq, ac_luma_freq);
        } else {
          auto& plane = ref.component == 1 ? planes.cb : planes.cr;
          ExtractBlock(plane, planes.cw, planes.ch, mc * 8, mr * 8,
                       /*bias=*/128, samples);
          cb = TransformBlock(samples, chroma_qt);
          AccumulateBlockStats(cb, &dc_pred[ref.component], dc_chroma_freq,
                               ac_chroma_freq);
        }
        coeffs.push_back(cb);
      }
    }
  }
  // Guarantee the structural symbols exist so the tables are well-formed.
  dc_luma_freq[0] += 1;
  ac_luma_freq[0x00] += 1;
  dc_chroma_freq[0] += 1;
  ac_chroma_freq[0x00] += 1;

  SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_luma,
                        HuffmanTable::FromFrequencies(dc_luma_freq));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_luma,
                        HuffmanTable::FromFrequencies(ac_luma_freq));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_chroma,
                        HuffmanTable::FromFrequencies(dc_chroma_freq));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_chroma,
                        HuffmanTable::FromFrequencies(ac_chroma_freq));

  // Pass 2: entropy-encode each MCU row byte-aligned, recording offsets.
  std::vector<std::vector<uint8_t>> row_streams(mcu_rows);
  {
    size_t idx = 0;
    for (int mr = 0; mr < mcu_rows; ++mr) {
      BitWriter row_writer;
      int dc_pred[3] = {0, 0, 0};
      for (int mc = 0; mc < mcu_cols; ++mc) {
        for (int b = 0; b < blocks_per_mcu; ++b) {
          const BlockRef& ref = blocks[b];
          if (ref.component == 0) {
            EncodeBlock(coeffs[idx], &dc_pred[0], dc_luma, ac_luma,
                        &row_writer);
          } else {
            EncodeBlock(coeffs[idx], &dc_pred[ref.component], dc_chroma,
                        ac_chroma, &row_writer);
          }
          ++idx;
        }
      }
      row_streams[mr] = row_writer.Finish();
    }
  }

  // Assemble: header, tables, row index, entropy data.
  BitWriter out;
  out.WriteU32(kMagic);
  out.WriteU16(static_cast<uint16_t>(w));
  out.WriteU16(static_cast<uint16_t>(h));
  out.WriteByte(static_cast<uint8_t>(image.channels()));
  out.WriteByte(static_cast<uint8_t>(options.quality));
  for (int i = 0; i < 64; ++i) out.WriteU16(luma_qt.q[i]);
  if (color) {
    for (int i = 0; i < 64; ++i) out.WriteU16(chroma_qt.q[i]);
  }
  dc_luma.Serialize(&out);
  ac_luma.Serialize(&out);
  if (color) {
    dc_chroma.Serialize(&out);
    ac_chroma.Serialize(&out);
  }
  out.WriteU16(static_cast<uint16_t>(mcu_rows));
  uint32_t offset = 0;
  for (int mr = 0; mr < mcu_rows; ++mr) {
    out.WriteU32(offset);
    offset += static_cast<uint32_t>(row_streams[mr].size());
  }
  out.WriteU32(offset);  // total entropy size (sentinel)
  for (auto& rs : row_streams) {
    for (uint8_t byte : rs) out.WriteByte(byte);
  }
  return out.Finish();
}

namespace {

struct ParsedStream {
  SjpgHeader header;
  QuantTable luma_qt;
  QuantTable chroma_qt;
  BlockDecoder luma, chroma;          // entropy decoders, LUTs built once
  std::vector<uint32_t> row_offsets;  // mcu_rows + 1 entries
  size_t entropy_base = 0;            // byte offset of entropy data
};

Result<ParsedStream> ParseStream(const std::vector<uint8_t>& bytes) {
  BitReader reader(bytes.data(), bytes.size());
  SMOL_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) return Status::Corruption("not an SJPG stream");
  ParsedStream ps;
  SMOL_ASSIGN_OR_RETURN(uint16_t w, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint16_t h, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint8_t channels, reader.ReadByte());
  SMOL_ASSIGN_OR_RETURN(uint8_t quality, reader.ReadByte());
  if (w == 0 || h == 0) return Status::Corruption("zero dimensions");
  if (channels != 1 && channels != 3) {
    return Status::Corruption("bad channel count");
  }
  ps.header.width = w;
  ps.header.height = h;
  ps.header.channels = channels;
  ps.header.quality = quality;
  const bool color = channels == 3;
  ps.header.mcu_size = color ? 16 : 8;
  ps.header.mcu_cols = (w + ps.header.mcu_size - 1) / ps.header.mcu_size;
  ps.header.mcu_rows = (h + ps.header.mcu_size - 1) / ps.header.mcu_size;
  for (int i = 0; i < 64; ++i) {
    SMOL_ASSIGN_OR_RETURN(uint16_t q, reader.ReadU16());
    if (q == 0) return Status::Corruption("zero quant value");
    ps.luma_qt.q[i] = q;
  }
  if (color) {
    for (int i = 0; i < 64; ++i) {
      SMOL_ASSIGN_OR_RETURN(uint16_t q, reader.ReadU16());
      if (q == 0) return Status::Corruption("zero quant value");
      ps.chroma_qt.q[i] = q;
    }
  }
  SMOL_ASSIGN_OR_RETURN(HuffmanTable dc_luma,
                        HuffmanTable::Deserialize(&reader));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable ac_luma,
                        HuffmanTable::Deserialize(&reader));
  HuffmanTable dc_chroma, ac_chroma;
  if (color) {
    SMOL_ASSIGN_OR_RETURN(dc_chroma, HuffmanTable::Deserialize(&reader));
    SMOL_ASSIGN_OR_RETURN(ac_chroma, HuffmanTable::Deserialize(&reader));
  }
  SMOL_ASSIGN_OR_RETURN(uint16_t mcu_rows, reader.ReadU16());
  if (mcu_rows != ps.header.mcu_rows) {
    return Status::Corruption("MCU row count mismatch");
  }
  ps.row_offsets.resize(mcu_rows + 1);
  for (int i = 0; i <= mcu_rows; ++i) {
    SMOL_ASSIGN_OR_RETURN(ps.row_offsets[i], reader.ReadU32());
  }
  ps.entropy_base = reader.byte_position();
  if (ps.entropy_base + ps.row_offsets[mcu_rows] > bytes.size()) {
    return Status::Corruption("entropy data truncated");
  }
  // Every block costs at least one entropy bit, so a header declaring more
  // blocks than the stream has bits is corrupt; rejecting it here keeps a
  // few-byte stream from sizing a multi-gigabyte decode.
  const uint64_t blocks = static_cast<uint64_t>(ps.header.mcu_rows) *
                          static_cast<uint64_t>(ps.header.mcu_cols) *
                          (color ? 6u : 1u);
  if (8 * static_cast<uint64_t>(bytes.size() - ps.entropy_base) < blocks) {
    return Status::Corruption("header declares more blocks than entropy bits");
  }
  ps.luma = BlockDecoder(std::move(dc_luma), std::move(ac_luma));
  if (color) {
    ps.chroma = BlockDecoder(std::move(dc_chroma), std::move(ac_chroma));
  }
  return ps;
}

}  // namespace

Result<SjpgHeader> SjpgPeekHeader(const std::vector<uint8_t>& bytes) {
  SMOL_ASSIGN_OR_RETURN(ParsedStream ps, ParseStream(bytes));
  return ps.header;
}

namespace {

// The decoded region: MCU rows [mr0, mr1) x columns [mc0, mc1) at n x n
// samples per 8x8 block (n = 8 / scale_denom), held in planes covering
// exactly those whole MCUs, and the output window within the planes.
struct DecodeGrid {
  int mr0 = 0, mr1 = 0, mc0 = 0, mc1 = 0;
  int n = 8;
  int mcu_n = 16;  // MCU side in output samples
  Roi out_roi;     // output region, in plane samples
};

// Decodes MCU rows [r0, r1) of \p grid into \p planes, so every block of
// those rows is stored whole. Each row starts at its index offset with its
// own bit cursor and DC predictor, which is what makes rows independent
// bands; entropy decoding runs left to right and stops after column
// mc1 - 1 (raster early stop), and blocks left of mc0 are entropy-decoded
// (the DC predictor chains through them) but not transformed.
Status DecodeRows(const ParsedStream& ps, const std::vector<uint8_t>& bytes,
                  const DecodeGrid& grid, int r0, int r1, PlaneSet* planes,
                  SjpgDecodeStats* stats) {
  const SjpgHeader& hdr = ps.header;
  const bool color = hdr.channels == 3;
  const BlockRef* blocks = color ? kColorBlocks : kGrayBlocks;
  const int blocks_per_mcu = color ? 6 : 1;
  const int n = grid.n;
  const int mcu_n = grid.mcu_n;
  uint8_t* const component_base[3] = {planes->y.data(), planes->cb.data(),
                                      planes->cr.data()};
  const size_t component_stride[3] = {static_cast<size_t>(planes->w),
                                      static_cast<size_t>(planes->cw),
                                      static_cast<size_t>(planes->cw)};
  for (int mr = r0; mr < r1; ++mr) {
    // Seek via the row index: rows outside the band cost nothing.
    const size_t start = ps.entropy_base + ps.row_offsets[mr];
    if (start > bytes.size()) {
      return Status::OutOfRange("seek past end of stream");
    }
    BitCursor cursor(bytes.data(), bytes.size(), start);
    int dc_pred[3] = {0, 0, 0};
    for (int mc = 0; mc < grid.mc1; ++mc) {
      const bool in_band = mc >= grid.mc0;
      for (int b = 0; b < blocks_per_mcu; ++b) {
        const BlockRef& ref = blocks[b];
        const int comp = ref.component;
        int16_t coeffs[64] = {};
        const int count = (comp == 0 ? ps.luma : ps.chroma)
                              .Decode(&cursor, &dc_pred[comp], coeffs);
        if (count == 0) return Status::Corruption("invalid entropy code");
        if (cursor.Overrun()) return Status::Corruption("bitstream truncated");
        stats->entropy_blocks++;
        if (!in_band) continue;  // skip the inverse transform outside the ROI
        stats->idct_blocks++;
        // Chroma blocks span the whole (subsampled) MCU.
        const int x =
            (mc - grid.mc0) * (comp == 0 ? mcu_n : n) + ref.dx * n / 8;
        const int y =
            (mr - grid.mr0) * (comp == 0 ? mcu_n : n) + ref.dy * n / 8;
        const size_t stride = component_stride[comp];
        ReconstructStoreBlock(coeffs, count,
                              comp == 0 ? ps.luma_qt : ps.chroma_qt, n,
                              component_base[comp] + y * stride + x, stride);
      }
    }
    stats->mcu_rows_decoded++;
  }
  return Status::OK();
}

// Converts the output rows that MCU rows [r0, r1) cover from \p planes into
// *out (already shaped to the output window). A window spanning whole plane
// rows converts in place; a narrower one (ROI, or a width that is not a
// multiple of the MCU) converts the plane row and copies its window out.
void EmitRows(const DecodeGrid& grid, int r0, int r1, int channels,
              const PlaneSet& planes, Image* out) {
  const Roi& roi = grid.out_roi;
  const int y0 = std::max((r0 - grid.mr0) * grid.mcu_n, roi.y);
  const int y1 = std::min((r1 - grid.mr0) * grid.mcu_n, roi.y + roi.height);
  const bool whole_rows = roi.x == 0 && roi.width == planes.w;
  const size_t out_row_bytes = static_cast<size_t>(roi.width) * channels;
  thread_local std::vector<uint8_t> rgb_row;
  for (int py = y0; py < y1; ++py) {
    uint8_t* dst = out->row(py - roi.y);
    const uint8_t* luma = planes.y.data() + static_cast<size_t>(py) * planes.w;
    if (channels == 1) {
      std::memcpy(dst, luma + roi.x, out_row_bytes);
      continue;
    }
    const size_t chroma_row = static_cast<size_t>(py / 2) * planes.cw;
    const uint8_t* cb = planes.cb.data() + chroma_row;
    const uint8_t* cr = planes.cr.data() + chroma_row;
    if (whole_rows) {
      YccRowToRgb(luma, cb, cr, planes.w, dst);
      continue;
    }
    rgb_row.resize(static_cast<size_t>(planes.w) * 3);
    YccRowToRgb(luma, cb, cr, planes.w, rgb_row.data());
    std::memcpy(dst, rgb_row.data() + static_cast<size_t>(roi.x) * 3,
                out_row_bytes);
  }
}

// One band's result; a failed band keeps its first error and the stats up
// to it, exactly as a serial decode would have stopped there.
struct BandOutcome {
  Status status;
  SjpgDecodeStats stats;
};

// Per-thread decode storage, reused across calls: the planes (~96 KB at
// 256 px) and the per-band outcomes. Helper threads write into the calling
// thread's planes while it waits in ForEachBand.
struct DecodeScratch {
  PlaneSet planes;
  std::vector<BandOutcome> bands;
};

// A reference, not the thread_local itself, is what band lambdas must
// capture: named in a lambda, a thread_local is the running thread's own.
DecodeScratch& ThreadDecodeScratch() {
  thread_local DecodeScratch scratch;
  return scratch;
}

}  // namespace

Result<Image> SjpgDecode(const std::vector<uint8_t>& bytes,
                         const SjpgDecodeOptions& options,
                         SjpgDecodeStats* stats) {
  Image out;
  SMOL_RETURN_IF_ERROR(SjpgDecodeInto(bytes, options, &out, stats));
  return out;
}

Status SjpgDecodeInto(const std::vector<uint8_t>& bytes,
                      const SjpgDecodeOptions& options, Image* out,
                      SjpgDecodeStats* stats) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  SMOL_ASSIGN_OR_RETURN(ParsedStream ps, ParseStream(bytes));
  const SjpgHeader& hdr = ps.header;
  const bool color = hdr.channels == 3;
  const int mcu = hdr.mcu_size;
  const int denom = options.scale_denom;

  // The band of MCU rows/cols to decode, and the output region within it
  // (in output samples).
  DecodeGrid grid;
  grid.mr1 = hdr.mcu_rows;
  grid.mc1 = hdr.mcu_cols;
  if (denom != 1) {
    // Multi-resolution decode: the whole grid at 1/denom size.
    if (denom != 2 && denom != 4 && denom != 8) {
      return Status::InvalidArgument("scale_denom must be 1, 2, 4 or 8");
    }
    if (!options.roi.empty() || options.max_rows > 0) {
      return Status::InvalidArgument(
          "scaled decoding cannot be combined with ROI/early stop");
    }
    grid.out_roi = Roi{0, 0, (hdr.width + denom - 1) / denom,
                       (hdr.height + denom - 1) / denom};
  } else {
    Roi roi = options.roi;
    if (!roi.empty()) {
      if (roi.x < 0 || roi.y < 0 || roi.x + roi.width > hdr.width ||
          roi.y + roi.height > hdr.height) {
        return Status::OutOfRange("ROI exceeds image bounds");
      }
    } else if (options.max_rows > 0) {
      roi = Roi{0, 0, hdr.width, std::min(options.max_rows, hdr.height)};
    } else {
      roi = Roi{0, 0, hdr.width, hdr.height};
    }
    grid.mr0 = roi.y / mcu;
    grid.mr1 = (roi.y + roi.height + mcu - 1) / mcu;
    grid.mc0 = roi.x / mcu;
    grid.mc1 = (roi.x + roi.width + mcu - 1) / mcu;
    grid.out_roi = Roi{roi.x - grid.mc0 * mcu, roi.y - grid.mr0 * mcu,
                       roi.width, roi.height};
  }
  grid.n = 8 / denom;
  grid.mcu_n = mcu / denom;

  // Planes covering the band's whole MCUs. Every block of a decoded row is
  // stored whole, so reused planes need no clearing.
  DecodeScratch& scratch = ThreadDecodeScratch();
  PlaneSet& planes = scratch.planes;
  planes.w = (grid.mc1 - grid.mc0) * grid.mcu_n;
  planes.h = (grid.mr1 - grid.mr0) * grid.mcu_n;
  planes.y.resize(static_cast<size_t>(planes.w) * planes.h);
  if (color) {
    planes.cw = planes.w / 2;
    planes.ch = planes.h / 2;
    planes.cb.resize(static_cast<size_t>(planes.cw) * planes.ch);
    planes.cr.resize(static_cast<size_t>(planes.cw) * planes.ch);
  }
  out->Reshape(grid.out_roi.width, grid.out_roi.height, hdr.channels);

  // One band per MCU row when idle peers can help, else one band for the
  // whole region. A band decodes its rows, then converts them to *out.
  const int rows = grid.mr1 - grid.mr0;
  const int bands = BandCount(rows, 1);
  scratch.bands.assign(static_cast<size_t>(bands), BandOutcome{});
  std::atomic<int> first_failed{bands};
  ForEachBand(bands, [&](int b) {
    // A serial decode stops at its first error: bands past a failed one are
    // not needed (and not counted).
    if (b > first_failed.load(std::memory_order_relaxed)) return;
    const int r0 = grid.mr0 + rows * b / bands;
    const int r1 = grid.mr0 + rows * (b + 1) / bands;
    BandOutcome& outcome = scratch.bands[static_cast<size_t>(b)];
    outcome.status = DecodeRows(ps, bytes, grid, r0, r1, &planes,
                                &outcome.stats);
    if (!outcome.status.ok()) {
      int seen = first_failed.load(std::memory_order_relaxed);
      while (b < seen && !first_failed.compare_exchange_weak(
                             seen, b, std::memory_order_relaxed)) {
      }
      return;
    }
    EmitRows(grid, r0, r1, hdr.channels, planes, out);
  });
  // The lowest failed band's error is the serial decode's first error, and
  // the bands up to it did exactly the serial decode's work.
  const int failed = first_failed.load(std::memory_order_relaxed);
  if (stats != nullptr) {
    for (int b = 0; b <= std::min(failed, bands - 1); ++b) {
      const SjpgDecodeStats& band = scratch.bands[static_cast<size_t>(b)].stats;
      stats->entropy_blocks += band.entropy_blocks;
      stats->idct_blocks += band.idct_blocks;
      stats->mcu_rows_decoded += band.mcu_rows_decoded;
    }
  }
  return failed < bands ? scratch.bands[static_cast<size_t>(failed)].status
                        : Status::OK();
}

}  // namespace smol
