// SJPG: a from-scratch JPEG-like lossy image codec.
//
// Structure mirrors baseline JPEG: RGB -> YCbCr 4:2:0, 8x8 block DCT,
// quality-scaled quantization (libjpeg rule), zig-zag, DC differential +
// AC run-length coding, canonical Huffman entropy coding. Two deliberate
// departures support the paper's §6.4 optimizations natively:
//
//  * A per-MCU-row byte-offset index (the moral equivalent of JPEG restart
//    markers at every MCU row) makes any band of rows independently
//    decodable, enabling ROI decoding (Algorithm 1 in the paper).
//  * Decode stats expose how many blocks were entropy-decoded vs. inverse-
//    transformed, so tests/benches can verify partial decoding saves work.
//
// Decoding runs one BitCursor per MCU row through the shared BlockDecoder
// (src/codec/block_codec.h) and reconstructs each block straight into its
// plane with the fused dequantize + IDCT + store, at full resolution or at
// the scaled rungs alike.
//
// Row bands: because every MCU row decodes independently, a decode runs as
// ForEachBand over bands of MCU rows (src/util/band_crew.h), each band
// converting its own rows to the output right after decoding them. With no
// band crew installed on the calling thread, or when the crew has queued
// work or no idle peer (a server under backlog), the whole region is one
// band on the calling thread. Under calm load a serving producer's parked
// peers claim bands too. Pixels, stats and status are identical either way:
// stats are summed per band, and the reported error is the lowest failing
// band's first error, which is where a serial decode stops. The planes are
// kept per thread and reused across calls.
//
// ROI decoding follows the paper exactly: rows outside the ROI band are
// skipped via the index; within a row, entropy decoding proceeds left-to-
// right and stops after the last ROI column (raster early stop); the inverse
// DCT runs only for macroblocks intersecting the ROI.
#ifndef SMOL_CODEC_SJPG_H_
#define SMOL_CODEC_SJPG_H_

#include <cstdint>
#include <vector>

#include "src/codec/image.h"
#include "src/util/result.h"

namespace smol {

/// Encoder configuration.
struct SjpgEncodeOptions {
  /// JPEG-style quality in [1, 100]; the paper evaluates q=75 and q=95.
  int quality = 75;
};

/// Parsed stream metadata (available without decoding pixel data).
struct SjpgHeader {
  int width = 0;
  int height = 0;
  int channels = 0;
  int quality = 0;
  int mcu_size = 0;   ///< 16 for color (4:2:0), 8 for grayscale.
  int mcu_rows = 0;
  int mcu_cols = 0;
};

/// Decoder configuration.
struct SjpgDecodeOptions {
  /// Decode only this region (paper's ROI decoding). Empty => full image.
  /// The returned image has exactly the ROI's dimensions.
  Roi roi;
  /// Decode only the first \p max_rows pixel rows (early stopping). 0 => all.
  /// Ignored when an ROI is given. Only the MCU rows covering them are
  /// decoded; the returned image is exactly min(max_rows, height) rows.
  int max_rows = 0;
  /// Multi-resolution (scaled) decoding: decode at 1/scale_denom resolution
  /// using only the top-left coefficients of each block (libjpeg's
  /// scale_num/scale_denom trick; §6.4's multi-resolution decoding).
  /// Allowed values: 1 (full), 2, 4, 8 (DC-only); the returned image is
  /// ceil(width / denom) x ceil(height / denom). Cannot be combined with an
  /// ROI or max_rows (InvalidArgument).
  int scale_denom = 1;
};

/// Work counters for verifying partial-decode savings.
struct SjpgDecodeStats {
  int64_t entropy_blocks = 0;  ///< 8x8 blocks entropy-decoded.
  int64_t idct_blocks = 0;     ///< Blocks inverse-transformed (at n x n
                               ///< when scaled).
  int64_t mcu_rows_decoded = 0;
};

/// Encodes \p image (1 or 3 channels) into an SJPG byte stream.
Result<std::vector<uint8_t>> SjpgEncode(const Image& image,
                                        const SjpgEncodeOptions& options = {});

/// Parses only the header of an SJPG stream (with the same header checks
/// as decoding).
Result<SjpgHeader> SjpgPeekHeader(const std::vector<uint8_t>& bytes);

/// Decodes an SJPG stream (optionally a partial region; see options).
/// Fails with Corruption for a malformed or truncated stream (including a
/// header that declares more blocks than its entropy data has bits, which is
/// rejected before any plane is allocated), OutOfRange for an ROI outside
/// the image or a row index past the end of the stream, and InvalidArgument
/// for bad options.
Result<Image> SjpgDecode(const std::vector<uint8_t>& bytes,
                         const SjpgDecodeOptions& options = {},
                         SjpgDecodeStats* stats = nullptr);

/// Same decode emitting into \p out, whose storage is reused across calls
/// (the serving path decodes every frame into one per-thread scratch image).
/// Rows convert colorspace straight into \p out; only a window narrower than
/// the decoded MCUs (ROI, or a width that is not a multiple of the MCU)
/// converts through a one-row buffer. On error \p out's contents are
/// unspecified.
Status SjpgDecodeInto(const std::vector<uint8_t>& bytes,
                      const SjpgDecodeOptions& options, Image* out,
                      SjpgDecodeStats* stats = nullptr);

}  // namespace smol

#endif  // SMOL_CODEC_SJPG_H_
