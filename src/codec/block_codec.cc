#include "src/codec/block_codec.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/util/simd.h"

namespace smol {

int BitSize(int v) {
  int a = v < 0 ? -v : v;
  int size = 0;
  while (a > 0) {
    a >>= 1;
    ++size;
  }
  return size;
}

uint32_t EncodeValueBits(int v, int size) {
  return v >= 0 ? static_cast<uint32_t>(v)
                : static_cast<uint32_t>(v + (1 << size) - 1);
}

int DecodeValueBits(uint32_t bits, int size) {
  if (size == 0) return 0;
  const int half = 1 << (size - 1);
  const int v = static_cast<int>(bits);
  return v >= half ? v : v - ((1 << size) - 1);
}

void ExtractBlock(const std::vector<uint8_t>& plane, int plane_w, int plane_h,
                  int bx, int by, int bias, int16_t out[64]) {
  for (int y = 0; y < 8; ++y) {
    int sy = by + y;
    if (sy >= plane_h) sy = plane_h - 1;
    for (int x = 0; x < 8; ++x) {
      int sx = bx + x;
      if (sx >= plane_w) sx = plane_w - 1;
      out[y * 8 + x] =
          static_cast<int16_t>(plane[static_cast<size_t>(sy) * plane_w + sx]) -
          static_cast<int16_t>(bias);
    }
  }
}

CoeffBlock TransformBlock(const int16_t samples[64], const QuantTable& qt) {
  float dct[64];
  ForwardDct8x8(samples, dct);
  int16_t quant[64];
  Quantize(dct, qt, quant);
  CoeffBlock out;
  for (int i = 0; i < 64; ++i) out.zz[i] = quant[kZigZag[i]];
  return out;
}

void ReconstructBlock(const CoeffBlock& block, const QuantTable& qt,
                      int16_t out[64]) {
  int16_t natural[64];
  for (int i = 0; i < 64; ++i) natural[kZigZag[i]] = block.zz[i];
  float dct[64];
  Dequantize(natural, qt, dct);
  InverseDct8x8(dct, out);
}

void AccumulateBlockStats(const CoeffBlock& block, int* dc_pred,
                          std::vector<uint64_t>& dc_freq,
                          std::vector<uint64_t>& ac_freq) {
  const int diff = block.zz[0] - *dc_pred;
  *dc_pred = block.zz[0];
  dc_freq[BitSize(diff)]++;
  int run = 0;
  for (int i = 1; i < 64; ++i) {
    if (block.zz[i] == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      ac_freq[0xF0]++;  // ZRL
      run -= 16;
    }
    ac_freq[(run << 4) | BitSize(block.zz[i])]++;
    run = 0;
  }
  if (run > 0) ac_freq[0x00]++;  // EOB
}

void EncodeBlock(const CoeffBlock& block, int* dc_pred,
                 const HuffmanTable& dc_table, const HuffmanTable& ac_table,
                 BitWriter* writer) {
  const int diff = block.zz[0] - *dc_pred;
  *dc_pred = block.zz[0];
  const int dc_size = BitSize(diff);
  dc_table.EncodeSymbol(writer, dc_size);
  if (dc_size > 0) writer->WriteBits(EncodeValueBits(diff, dc_size), dc_size);
  int run = 0;
  for (int i = 1; i < 64; ++i) {
    if (block.zz[i] == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      ac_table.EncodeSymbol(writer, 0xF0);
      run -= 16;
    }
    const int size = BitSize(block.zz[i]);
    ac_table.EncodeSymbol(writer, (run << 4) | size);
    writer->WriteBits(EncodeValueBits(block.zz[i], size), size);
    run = 0;
  }
  if (run > 0) ac_table.EncodeSymbol(writer, 0x00);
}

namespace {

// Bounding box (rows x cols of the natural grid) of the first `count`
// zig-zag positions, for the sparse reconstruct.
struct ZigZagBounds {
  uint8_t rows[65];
  uint8_t cols[65];
  ZigZagBounds() {
    rows[0] = cols[0] = 0;
    for (int k = 0; k < 64; ++k) {
      rows[k + 1] = static_cast<uint8_t>(
          std::max<int>(rows[k], kZigZag[k] / 8 + 1));
      cols[k + 1] = static_cast<uint8_t>(
          std::max<int>(cols[k], kZigZag[k] % 8 + 1));
    }
  }
};
const ZigZagBounds kZigZagBounds;

// Dequantizes one natural-order row of 8 coefficients exactly as Dequantize
// does (float(coefficient) * q, one rounding).
inline void DequantizeRow(const int16_t* in, const uint16_t* q, float* out) {
#if SMOL_SIMD_X86
  const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  const __m128i qv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  const __m128i zero = _mm_setzero_si128();
  // Sign-extend the coefficients, zero-extend the quant steps.
  const __m128 c_lo =
      _mm_cvtepi32_ps(_mm_srai_epi32(_mm_unpacklo_epi16(c, c), 16));
  const __m128 c_hi =
      _mm_cvtepi32_ps(_mm_srai_epi32(_mm_unpackhi_epi16(c, c), 16));
  const __m128 q_lo = _mm_cvtepi32_ps(_mm_unpacklo_epi16(qv, zero));
  const __m128 q_hi = _mm_cvtepi32_ps(_mm_unpackhi_epi16(qv, zero));
  _mm_storeu_ps(out, _mm_mul_ps(c_lo, q_lo));
  _mm_storeu_ps(out + 4, _mm_mul_ps(c_hi, q_hi));
#else
  for (int u = 0; u < 8; ++u) out[u] = static_cast<float>(in[u]) * q[u];
#endif
}

// Fused LUT entry, indexed by the next kHuffmanLutBits bits:
//   bits 0-4   bits to consume (0 = no code of <= kHuffmanLutBits bits)
//   bit 5      kFusedValue: code + value bits fit, bits 8-15 hold the
//              zero run and bits 16-31 the decoded (signed) value;
//              otherwise bits 16-31 hold the bare symbol.
constexpr uint32_t kFusedValue = 1u << 5;
constexpr uint32_t kLenMask = 0x1F;

std::vector<uint32_t> BuildFusedLut(const HuffmanTable& table, bool ac) {
  std::vector<uint32_t> lut(1u << kHuffmanLutBits);
  // Walk the LUT code by code: a code of length len owns the aligned span
  // of 2^(kHuffmanLutBits - len) entries it prefixes; a prefix of a longer
  // code (or an invalid one) stays 0 and is resolved by DecodeLong.
  for (uint32_t p = 0; p < lut.size();) {
    const uint32_t probe = table.LutEntry(p);
    if (probe == 0) {
      ++p;
      continue;
    }
    const int sym = static_cast<int>(probe >> 8);
    const int len = static_cast<int>(probe & 0xFF);
    const uint32_t span = 1u << (kHuffmanLutBits - len);
    int run = 0;
    int size = sym;
    bool fusable = len + (sym & 0x0F) <= kHuffmanLutBits;
    if (ac) {
      // EOB, ZRL and malformed symbols stay bare for the general path.
      fusable = fusable && sym <= 0xFF && sym != 0x00 && sym != 0xF0 &&
                (sym & 0x0F) != 0;
      run = sym >> 4;
      size = sym & 0x0F;
    } else {
      fusable = fusable && sym <= 15;  // larger DC sizes are rejected later
    }
    if (!fusable) {
      std::fill(lut.begin() + p, lut.begin() + p + span,
                (static_cast<uint32_t>(sym) << 16) |
                    static_cast<uint32_t>(len));
      p += span;
      continue;
    }
    // Each value-bit pattern owns a sub-span of the code's span.
    const uint32_t step = span >> size;
    for (uint32_t bits = 0; bits < (1u << size); ++bits, p += step) {
      const int value = DecodeValueBits(bits, size);
      std::fill(lut.begin() + p, lut.begin() + p + step,
                (static_cast<uint32_t>(static_cast<uint16_t>(value)) << 16) |
                    (static_cast<uint32_t>(run) << 8) | kFusedValue |
                    static_cast<uint32_t>(len + size));
    }
  }
  return lut;
}

// Resolves a LUT entry that is not a fused value: the bare symbol and its
// code length, or -1 for an invalid prefix.
inline int BareSymbol(uint32_t entry, const HuffmanTable& table,
                      const BitCursor& cursor, int* len) {
  if (entry != 0) {
    *len = static_cast<int>(entry & kLenMask);
    return static_cast<int>(entry >> 16);
  }
  return table.DecodeLong(cursor.Peek(kMaxHuffmanBits), len);
}

}  // namespace

void ReconstructStoreBlock(const int16_t coeffs[64], int count,
                           const QuantTable& qt, int n, uint8_t* dst,
                           size_t stride) {
  const int rows = std::min<int>(kZigZagBounds.rows[count], n);
  const int cols = std::min<int>(kZigZagBounds.cols[count], n);
  // Dequantize only the rows the transform reads.
  alignas(32) float coef[64];
  for (int v = 0; v < rows; ++v) {
    DequantizeRow(coeffs + v * 8, qt.q.data() + v * 8, coef + v * 8);
  }
  InverseDctStore(coef, n, rows, cols, dst, stride);
}

BlockDecoder::BlockDecoder(HuffmanTable dc_table, HuffmanTable ac_table)
    : dc_table_(std::move(dc_table)),
      ac_table_(std::move(ac_table)),
      dc_lut_(BuildFusedLut(dc_table_, /*ac=*/false)),
      ac_lut_(BuildFusedLut(ac_table_, /*ac=*/true)) {}

int BlockDecoder::Decode(BitCursor* cursor, int* dc_pred,
                         int16_t coeffs[64]) const {
  BitCursor c = *cursor;  // a local copy keeps the window in registers
  c.Refill();
  uint32_t entry = dc_lut_[c.Peek(kHuffmanLutBits)];
  int diff;
  if (entry & kFusedValue) {
    c.Consume(static_cast<int>(entry & kLenMask));
    diff = static_cast<int16_t>(entry >> 16);
  } else {
    int len;
    const int size = BareSymbol(entry, dc_table_, c, &len);
    if (size < 0 || size > 15) return 0;
    c.Consume(len);
    diff = DecodeValueBits(c.Read(size), size);
  }
  *dc_pred += diff;
  coeffs[0] = static_cast<int16_t>(*dc_pred);
  int count = 1;
  for (int k = 1; k < 64;) {
    c.Ensure(kHuffmanLutBits);
    entry = ac_lut_[c.Peek(kHuffmanLutBits)];
    if (entry & kFusedValue) {
      c.Consume(static_cast<int>(entry & kLenMask));
      k += static_cast<int>((entry >> 8) & 0xFF);
      if (k >= 64) return 0;
      coeffs[kZigZag[k]] = static_cast<int16_t>(entry >> 16);
      count = ++k;
      continue;
    }
    c.Ensure(kMaxHuffmanBits + 15);  // longest code + value bits
    int len;
    const int sym = BareSymbol(entry, ac_table_, c, &len);
    if (sym < 0) return 0;
    c.Consume(len);
    if (sym == 0x00) break;  // EOB
    if (sym == 0xF0) {       // ZRL
      k += 16;
      continue;
    }
    const int size = sym & 0x0F;
    if (size == 0) return 0;
    k += sym >> 4;
    if (k >= 64) return 0;
    coeffs[kZigZag[k]] =
        static_cast<int16_t>(DecodeValueBits(c.Read(size), size));
    count = ++k;
  }
  *cursor = c;
  return count;
}

}  // namespace smol
