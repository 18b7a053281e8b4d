#include "src/codec/dct.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/util/simd.h"

namespace smol {

const int kZigZag[64] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

namespace {

// Precomputed cosine basis: c[u][x] = cos((2x+1) u pi / 16) * scale(u), plus
// the transpose ct[x][u] = c[u][x] so the vector paths can accumulate whole
// rows with broadcast-FMA.
struct DctBasis {
  alignas(32) float c[8][8];
  alignas(32) float ct[8][8];
  DctBasis() {
    for (int u = 0; u < 8; ++u) {
      const double scale = (u == 0) ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int x = 0; x < 8; ++x) {
        c[u][x] = static_cast<float>(
            scale * std::cos((2.0 * x + 1.0) * u * 3.14159265358979323846 / 16.0));
        ct[x][u] = c[u][x];
      }
    }
  }
};
const DctBasis kBasis;

#if SMOL_SIMD_X86

// Each 8-float row is one ymm; both passes are 8 broadcast-FMAs per output
// row (OUT = C * (IN * C^T) expressed row-wise).
SMOL_TARGET_AVX2 void ForwardDct8x8Avx2(const int16_t in[64], float out[64]) {
  alignas(32) float fin[64];
  for (int y = 0; y < 8; ++y) {
    _mm256_store_ps(fin + y * 8,
                    _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(in + y * 8)))));
  }
  alignas(32) float tmp[64];
  for (int y = 0; y < 8; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int x = 0; x < 8; ++x) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(fin + y * 8 + x),
                            _mm256_load_ps(kBasis.ct[x]), acc);
    }
    _mm256_store_ps(tmp + y * 8, acc);
  }
  for (int v = 0; v < 8; ++v) {
    __m256 acc = _mm256_setzero_ps();
    for (int y = 0; y < 8; ++y) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&kBasis.c[v][y]),
                            _mm256_load_ps(tmp + y * 8), acc);
    }
    _mm256_storeu_ps(out + v * 8, acc);
  }
}

#endif  // SMOL_SIMD_X86

}  // namespace

void ForwardDct8x8(const int16_t in[64], float out[64]) {
#if SMOL_SIMD_X86
  if (simd::Avx2()) {
    ForwardDct8x8Avx2(in, out);
    return;
  }
#endif
  // Separable: rows then columns.
  float tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      float acc = 0.0f;
      for (int x = 0; x < 8; ++x) {
        acc += kBasis.c[u][x] * static_cast<float>(in[y * 8 + x]);
      }
      tmp[y * 8 + u] = acc;
    }
  }
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      float acc = 0.0f;
      for (int y = 0; y < 8; ++y) {
        acc += kBasis.c[v][y] * tmp[y * 8 + u];
      }
      out[v * 8 + u] = acc;
    }
  }
}

namespace {

// Precomputed n-point inverse bases for the scaled decode path, folding in
// the n/8 rescale: b[n][u * n + x] = scale(u, n) * cos((2x+1) u pi / 2n).
// Recomputing the transcendentals per coefficient made the n=4 (denom 2)
// inverse cost more than a full SIMD 8x8 IDCT, so a "cheaper" rung decoded
// slower than full fidelity.
struct ScaledDctBasis {
  float b[9][64];
  ScaledDctBasis() {
    for (int n = 1; n <= 8; ++n) {
      for (int u = 0; u < n; ++u) {
        const double scale =
            (u == 0) ? std::sqrt(1.0 / n) : std::sqrt(2.0 / n);
        for (int x = 0; x < n; ++x) {
          b[n][u * n + x] = static_cast<float>(
              scale *
              std::cos((2.0 * x + 1.0) * u * 3.14159265358979323846 /
                       (2.0 * n)));
        }
      }
    }
  }
};
const ScaledDctBasis kScaledBasis;

// The inverse transforms below read only the top-left rows x cols of their
// input (the bounding box of its nonzero coefficients; 8 x 8 or n x n for
// the unfused API). Every skipped term is a product with an exact zero, and
// adding one leaves a sum unchanged up to the sign of a zero, which rounds
// to the same integer, so the box never changes a result. Each kernel
// writes either int16 level-shifted samples (InverseDct8x8 and
// InverseDctScaled) or, for the decoder's fused store, the samples plus 128
// saturated to bytes.

// The scalar loops round with clamp + std::lround; the vector kernels with
// clamp + add copysign(0.5) + truncate. The two differ on a few inputs just
// below .5, so each level keeps its own rounding.
inline int ClampLround(float v) {
  if (v > 255.0f) v = 255.0f;
  if (v < -256.0f) v = -256.0f;
  // std::lround without the libm call: truncate, then step away from zero
  // when the fraction (exact for |v| < 2^23) is at least one half. Checked
  // equal to std::lround for every float in [-256, 255].
  const int t = static_cast<int>(v);
  const float frac = v - static_cast<float>(t);
  return t + (frac >= 0.5f) - (frac <= -0.5f);
}

inline int ClampRoundHalfAway(float v) {
  if (v > 255.0f) v = 255.0f;
  if (v < -256.0f) v = -256.0f;
  return static_cast<int>(v + std::copysign(0.5f, v));
}

inline void StoreSample(int v, int16_t* out) { *out = static_cast<int16_t>(v); }

inline void StoreSample(int v, uint8_t* out) {
  v += 128;
  *out = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

// Separable scalar 8x8 inverse: rows then columns.
template <typename T>
void InverseDct8x8Scalar(const float in[64], int rows, int cols, T* out,
                         size_t stride) {
  float tmp[64];
  for (int v = 0; v < rows; ++v) {
    for (int x = 0; x < 8; ++x) {
      float acc = 0.0f;
      for (int u = 0; u < cols; ++u) {
        acc += kBasis.c[u][x] * in[v * 8 + u];
      }
      tmp[v * 8 + x] = acc;
    }
  }
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      float acc = 0.0f;
      for (int v = 0; v < rows; ++v) {
        acc += kBasis.c[v][y] * tmp[v * 8 + x];
      }
      StoreSample(ClampLround(acc), out + y * stride + x);
    }
  }
}

// The top-left n x n of an 8x8 DCT, rescaled by n/8, is the n x n DCT of
// the box-downsampled block; invert it with the n-point orthonormal basis,
// separably (rows then columns, 2n^3 multiply-adds total).
template <typename T>
void InverseDctScaledScalar(const float in[64], int n, int rows, int cols,
                            T* out, size_t stride) {
  const float* basis = kScaledBasis.b[n];
  const float scale_fix = static_cast<float>(n) / 8.0f;
  float tmp[64];
  for (int v = 0; v < rows; ++v) {
    for (int x = 0; x < n; ++x) {
      float acc = 0.0f;
      for (int u = 0; u < cols; ++u) {
        acc += basis[u * n + x] * in[v * 8 + u];
      }
      tmp[v * n + x] = acc;
    }
  }
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      float acc = 0.0f;
      for (int v = 0; v < rows; ++v) {
        acc += basis[v * n + y] * tmp[v * n + x];
      }
      StoreSample(ClampLround(acc * scale_fix), out + y * stride + x);
    }
  }
}

#if SMOL_SIMD_X86

// Stores 8 rounded samples (int32 lanes, within [-256, 255]).
SMOL_TARGET_AVX2 inline void StoreRowAvx2(__m256i iv, int16_t* out) {
  const __m256i i16 = _mm256_packs_epi32(iv, iv);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_unpacklo_epi64(_mm256_castsi256_si128(i16),
                                      _mm256_extracti128_si256(i16, 1)));
}

SMOL_TARGET_AVX2 inline void StoreRowAvx2(__m256i iv, uint8_t* out) {
  const __m256i shifted = _mm256_add_epi32(iv, _mm256_set1_epi32(128));
  const __m256i i16 = _mm256_packs_epi32(shifted, shifted);
  const __m128i row = _mm_unpacklo_epi64(_mm256_castsi256_si128(i16),
                                         _mm256_extracti128_si256(i16, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                   _mm_packus_epi16(row, row));
}

// Each 8-float row is one ymm; both passes are broadcast-FMAs per output
// row (OUT = C^T * (IN * C) expressed row-wise).
template <typename T>
SMOL_TARGET_AVX2 void InverseDct8x8Avx2(const float in[64], int rows,
                                        int cols, T* out, size_t stride) {
  __m256 tmp[8];
  for (int v = 0; v < rows; ++v) {
    __m256 acc = _mm256_setzero_ps();
    for (int u = 0; u < cols; ++u) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(in + v * 8 + u),
                            _mm256_load_ps(kBasis.c[u]), acc);
    }
    tmp[v] = acc;
  }
  const __m256 hi = _mm256_set1_ps(255.0f);
  const __m256 lo = _mm256_set1_ps(-256.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  for (int y = 0; y < 8; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int v = 0; v < rows; ++v) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&kBasis.ct[y][v]), tmp[v],
                            acc);
    }
    acc = _mm256_max_ps(_mm256_min_ps(acc, hi), lo);
    // Round half away from zero to match std::lround.
    const __m256 sign_half =
        _mm256_or_ps(_mm256_and_ps(acc, sign_mask), half);
    StoreRowAvx2(_mm256_cvttps_epi32(_mm256_add_ps(acc, sign_half)),
                 out + y * stride);
  }
}

// Stores 4 rounded samples (int32 lanes, within [-256, 255]).
inline void StoreRowSse2(__m128i iv, int16_t* out) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out), _mm_packs_epi32(iv, iv));
}

inline void StoreRowSse2(__m128i iv, uint8_t* out) {
  const __m128i shifted = _mm_add_epi32(iv, _mm_set1_epi32(128));
  const __m128i i16 = _mm_packs_epi32(shifted, shifted);
  const int32_t bytes = _mm_cvtsi128_si32(_mm_packus_epi16(i16, i16));
  std::memcpy(out, &bytes, 4);
}

// 4-point scaled inverse (the denom-2 rung's workhorse) in baseline SSE2,
// used at every dispatch level: both passes are broadcast-multiply-
// accumulates over 4-wide basis rows, with the same clamp + round-half-
// away-from-zero tail as the 8x8 path.
template <typename T>
void InverseDctScaled4x4Sse2(const float in[64], int rows, int cols, T* out,
                             size_t stride) {
  const float* basis = kScaledBasis.b[4];
  __m128 tmp[4];
  for (int v = 0; v < rows; ++v) {
    __m128 acc = _mm_setzero_ps();
    for (int u = 0; u < cols; ++u) {
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(in[v * 8 + u]),
                                       _mm_loadu_ps(basis + u * 4)));
    }
    tmp[v] = acc;
  }
  const __m128 scale = _mm_set1_ps(0.5f);  // n / 8
  const __m128 hi = _mm_set1_ps(255.0f);
  const __m128 lo = _mm_set1_ps(-256.0f);
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 sign_mask = _mm_set1_ps(-0.0f);
  for (int y = 0; y < 4; ++y) {
    __m128 acc = _mm_setzero_ps();
    for (int v = 0; v < rows; ++v) {
      acc = _mm_add_ps(acc,
                       _mm_mul_ps(_mm_set1_ps(basis[v * 4 + y]), tmp[v]));
    }
    acc = _mm_max_ps(_mm_min_ps(_mm_mul_ps(acc, scale), hi), lo);
    const __m128 sign_half = _mm_or_ps(_mm_and_ps(acc, sign_mask), half);
    StoreRowSse2(_mm_cvttps_epi32(_mm_add_ps(acc, sign_half)),
                 out + y * stride);
  }
}

#endif  // SMOL_SIMD_X86

// Dispatches one inverse transform over the rows x cols box.
template <typename T>
void InverseDctBox(const float in[64], int n, int rows, int cols, T* out,
                   size_t stride) {
#if SMOL_SIMD_X86
  if (n == 8 && simd::Avx2()) {
    InverseDct8x8Avx2(in, rows, cols, out, stride);
    return;
  }
  if (n == 4) {
    InverseDctScaled4x4Sse2(in, rows, cols, out, stride);
    return;
  }
#endif
  if (n == 8) {
    InverseDct8x8Scalar(in, rows, cols, out, stride);
  } else {
    InverseDctScaledScalar(in, n, rows, cols, out, stride);
  }
}

}  // namespace

void InverseDct8x8(const float in[64], int16_t out[64]) {
  InverseDctBox(in, 8, 8, 8, out, 8);
}

void InverseDctScaled(const float in[64], int n, int16_t* out) {
  InverseDctBox(in, n, n, n, out, static_cast<size_t>(n));
}

void InverseDctStore(const float in[64], int n, int rows, int cols,
                     uint8_t* dst, size_t stride) {
  rows = std::min(rows, n);
  cols = std::min(cols, n);
  if (rows > 1 || cols > 1) {
    InverseDctBox(in, n, rows, cols, dst, stride);
    return;
  }
  // DC only: every sample is the same two products of the DC term (a
  // zero-initialized sum plus one product is that product), rounded as
  // the kernel for this n at this level rounds.
  const float b = n == 8 ? kBasis.c[0][0] : kScaledBasis.b[n][0];
  float acc = b * (in[0] * b);
  if (n != 8) acc *= static_cast<float>(n) / 8.0f;
#if SMOL_SIMD_X86
  const bool vector_rounding = (n == 8 && simd::Avx2()) || n == 4;
#else
  const bool vector_rounding = false;
#endif
  uint8_t value;
  StoreSample(vector_rounding ? ClampRoundHalfAway(acc) : ClampLround(acc),
              &value);
  const uint64_t fill = value * 0x0101010101010101ULL;
  for (int y = 0; y < n; ++y) {
    uint8_t* row = dst + y * stride;
    switch (n) {
      case 8: std::memcpy(row, &fill, 8); break;
      case 4: std::memcpy(row, &fill, 4); break;
      case 2: std::memcpy(row, &fill, 2); break;
      default: row[0] = value; break;
    }
  }
}

namespace {

// Standard JPEG Annex K base tables.
const uint16_t kLumaBase[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

const uint16_t kChromaBase[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

QuantTable ScaleTable(const uint16_t* base, int quality) {
  if (quality < 1) quality = 1;
  if (quality > 100) quality = 100;
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  QuantTable t;
  for (int i = 0; i < 64; ++i) {
    int v = (base[i] * scale + 50) / 100;
    if (v < 1) v = 1;
    if (v > 255) v = 255;
    t.q[i] = static_cast<uint16_t>(v);
  }
  return t;
}

}  // namespace

QuantTable QuantTable::Luma(int quality) { return ScaleTable(kLumaBase, quality); }

QuantTable QuantTable::Chroma(int quality) {
  return ScaleTable(kChromaBase, quality);
}

void Quantize(const float in[64], const QuantTable& table, int16_t out[64]) {
  for (int i = 0; i < 64; ++i) {
    out[i] = static_cast<int16_t>(std::lround(in[i] / table.q[i]));
  }
}

void Dequantize(const int16_t in[64], const QuantTable& table, float out[64]) {
  for (int i = 0; i < 64; ++i) {
    out[i] = static_cast<float>(in[i]) * table.q[i];
  }
}

}  // namespace smol
