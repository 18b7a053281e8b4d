// 8x8 block DCT, quantization and zig-zag — the transform core of SJPG/SV264.
#ifndef SMOL_CODEC_DCT_H_
#define SMOL_CODEC_DCT_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace smol {

/// Zig-zag scan order for an 8x8 block (row-major index per scan position).
extern const int kZigZag[64];

/// Forward 8x8 DCT-II on level-shifted samples (in: int16 centered at 0).
/// Output coefficients are in natural (row-major) order.
void ForwardDct8x8(const int16_t in[64], float out[64]);

/// Inverse 8x8 DCT on dequantized coefficients (natural order); output is
/// level-shifted samples (centered at 0), clamped to [-256, 255].
void InverseDct8x8(const float in[64], int16_t out[64]);

/// Scaled inverse DCT: reconstructs an n x n downsampled block (n in
/// {1, 2, 4}) from the top-left n x n of the 8x8 coefficient grid — the
/// "scaled decoding" trick libjpeg exposes as scale_num/scale_denom, which
/// the paper's multi-resolution decoding (§6.4 / Table 4) builds on.
/// \p in is the full 64-coefficient block in natural order; \p out receives
/// n*n level-shifted samples.
void InverseDctScaled(const float in[64], int n, int16_t* out);

/// Decoder-side fused inverse transform + store: the samples InverseDct8x8
/// (n == 8) or InverseDctScaled (n in {1, 2, 4}) produce, level-shifted by
/// +128 and saturated to [0, 255], written as n rows of n bytes at \p dst
/// (row stride \p stride). Only the top-left \p rows x \p cols
/// coefficients of \p in are read; the rest must be zero (pass the bounding
/// box of the nonzero coefficients, or 8 x 8). Dropping all-zero terms from
/// the transform's sums is exact, so the bytes are bit-identical to the
/// unfused transform plus a clip at every dispatch level; a DC-only block
/// (1 x 1) is one value filled across the output.
void InverseDctStore(const float in[64], int n, int rows, int cols,
                     uint8_t* dst, size_t stride);

/// \brief Quantization matrix with JPEG-style quality scaling.
struct QuantTable {
  std::array<uint16_t, 64> q;  // natural (row-major) order

  /// Builds luma/chroma base tables scaled by \p quality in [1, 100]
  /// (50 = base, 100 ≈ all-ones, <50 = coarser), following the libjpeg rule.
  static QuantTable Luma(int quality);
  static QuantTable Chroma(int quality);
};

/// Quantizes DCT coefficients: out[i] = round(in[i] / q[i]).
void Quantize(const float in[64], const QuantTable& table, int16_t out[64]);

/// Dequantizes: out[i] = in[i] * q[i].
void Dequantize(const int16_t in[64], const QuantTable& table, float out[64]);

}  // namespace smol

#endif  // SMOL_CODEC_DCT_H_
