#include "src/preproc/fused.h"

#include "src/codec/simd_bytes.h"
#include "src/util/band_crew.h"
#include "src/util/simd.h"

namespace smol {

namespace {

// Fewest image rows per band when idle peers split a tail (~4 us of work per
// band at 170 px wide RGB).
constexpr int kTailBandRows = 16;

// All row kernels below take the three destination plane cursors explicitly
// (rather than one CHW base pointer) so the same code serves both the
// full-image call (planes are dst + ch * pixels) and the crop-fused call
// (planes advance row by row through a larger CHW tensor).

#if SMOL_SIMD_X86

using simd_bytes::DeinterleaveMaskTable;
using simd_bytes::Masks3;
using simd_bytes::Shuffle3;

SMOL_TARGET_AVX2 void FusedTailRgbAvx2(const uint8_t* p, size_t pixels,
                                       const float* scale, const float* offset,
                                       float* d0, float* d1, float* d2) {
  const Masks3* masks = DeinterleaveMaskTable();
  float* planes[3] = {d0, d1, d2};
  size_t i = 0;
  for (; i + 16 <= pixels; i += 16) {
    const uint8_t* src = p + i * 3;
    const __m128i l0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
    const __m128i l1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 16));
    const __m128i l2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 32));
    for (int ch = 0; ch < 3; ++ch) {
      const __m128i u8x16 = Shuffle3(l0, l1, l2, masks[ch]);
      const __m256 s = _mm256_set1_ps(scale[ch]);
      const __m256 o = _mm256_set1_ps(offset[ch]);
      const __m256 lo = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(u8x16));
      const __m256 hi = _mm256_cvtepi32_ps(
          _mm256_cvtepu8_epi32(_mm_srli_si128(u8x16, 8)));
      _mm256_storeu_ps(planes[ch] + i, _mm256_fmadd_ps(lo, s, o));
      _mm256_storeu_ps(planes[ch] + i + 8, _mm256_fmadd_ps(hi, s, o));
    }
  }
  for (; i < pixels; ++i) {
    for (int ch = 0; ch < 3; ++ch) {
      planes[ch][i] =
          static_cast<float>(p[i * 3 + ch]) * scale[ch] + offset[ch];
    }
  }
}

SMOL_TARGET_SSE4 void FusedTailRgbSse4(const uint8_t* p, size_t pixels,
                                       const float* scale, const float* offset,
                                       float* d0, float* d1, float* d2) {
  const Masks3* masks = DeinterleaveMaskTable();
  float* planes[3] = {d0, d1, d2};
  size_t i = 0;
  for (; i + 16 <= pixels; i += 16) {
    const uint8_t* src = p + i * 3;
    const __m128i l0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
    const __m128i l1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 16));
    const __m128i l2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 32));
    for (int ch = 0; ch < 3; ++ch) {
      __m128i u8x16 = Shuffle3(l0, l1, l2, masks[ch]);
      const __m128 s = _mm_set1_ps(scale[ch]);
      const __m128 o = _mm_set1_ps(offset[ch]);
      for (int q = 0; q < 4; ++q) {
        const __m128 v = _mm_cvtepi32_ps(_mm_cvtepu8_epi32(u8x16));
        _mm_storeu_ps(planes[ch] + i + q * 4,
                      _mm_add_ps(_mm_mul_ps(v, s), o));
        u8x16 = _mm_srli_si128(u8x16, 4);
      }
    }
  }
  for (; i < pixels; ++i) {
    for (int ch = 0; ch < 3; ++ch) {
      planes[ch][i] =
          static_cast<float>(p[i * 3 + ch]) * scale[ch] + offset[ch];
    }
  }
}

// Single-channel (grayscale) tail: plain strided widen + affine.
SMOL_TARGET_AVX2 void FusedTailGrayAvx2(const uint8_t* p, size_t pixels,
                                        float scale, float offset,
                                        float* dst) {
  const __m256 s = _mm256_set1_ps(scale);
  const __m256 o = _mm256_set1_ps(offset);
  size_t i = 0;
  for (; i + 8 <= pixels; i += 8) {
    const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + i))));
    _mm256_storeu_ps(dst + i, _mm256_fmadd_ps(v, s, o));
  }
  for (; i < pixels; ++i) {
    dst[i] = static_cast<float>(p[i]) * scale + offset;
  }
}

#endif  // SMOL_SIMD_X86

void FusedTailRgbScalar(const uint8_t* p, size_t pixels, const float* scale,
                        const float* offset, float* d0, float* d1, float* d2) {
  for (size_t i = 0; i < pixels; ++i) {
    d0[i] = static_cast<float>(p[i * 3]) * scale[0] + offset[0];
    d1[i] = static_cast<float>(p[i * 3 + 1]) * scale[1] + offset[1];
    d2[i] = static_cast<float>(p[i * 3 + 2]) * scale[2] + offset[2];
  }
}

// One contiguous run of 3-channel pixels -> three plane cursors, dispatched
// by SIMD level. Shared by the full-image and per-crop-row paths.
void FusedTailRgbRun(const uint8_t* p, size_t pixels, const float* scale,
                     const float* offset, float* d0, float* d1, float* d2) {
#if SMOL_SIMD_X86
  if (simd::Avx2()) {
    FusedTailRgbAvx2(p, pixels, scale, offset, d0, d1, d2);
    return;
  }
  if (simd::Sse4()) {
    FusedTailRgbSse4(p, pixels, scale, offset, d0, d1, d2);
    return;
  }
#endif
  FusedTailRgbScalar(p, pixels, scale, offset, d0, d1, d2);
}

void FusedTailGrayRun(const uint8_t* p, size_t pixels, float scale,
                      float offset, float* dst) {
#if SMOL_SIMD_X86
  if (simd::Avx2()) {
    FusedTailGrayAvx2(p, pixels, scale, offset, dst);
    return;
  }
#endif
  for (size_t i = 0; i < pixels; ++i) {
    dst[i] = static_cast<float>(p[i]) * scale + offset;
  }
}

// Precompute the affine transform per channel:
//   out = (u8/255 - mean) / std  ==  u8 * scale + offset
void AffineParams(const NormalizeParams& params, float* scale, float* offset) {
  for (int ch = 0; ch < 3; ++ch) {
    scale[ch] = 1.0f / (255.0f * params.std[ch]);
    offset[ch] = -params.mean[ch] / params.std[ch];
  }
}

}  // namespace

Status FusedConvertNormalizeSplit(const Image& src,
                                  const NormalizeParams& params,
                                  FloatImage* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  if (src.empty()) return Status::InvalidArgument("empty image");
  out->width = src.width();
  out->height = src.height();
  out->channels = src.channels();
  out->chw = true;
  out->data.resize(src.size_bytes());
  return FusedConvertNormalizeSplitInto(src, params, out->data.data(),
                                        out->data.size());
}

Status FusedConvertNormalizeSplitInto(const Image& src,
                                      const NormalizeParams& params,
                                      float* dst, size_t dst_size) {
  if (src.empty()) return Status::InvalidArgument("empty image");
  if (dst == nullptr || dst_size < src.size_bytes()) {
    return Status::InvalidArgument("destination too small");
  }
  const int c = src.channels();
  const size_t pixels = static_cast<size_t>(src.width()) * src.height();
  float scale[3], offset[3];
  AffineParams(params, scale, offset);
  // Idle peers may take bands of the run. Band edges fall on multiples of
  // kRunAlign pixels, so every pixel meets the same code (vector body or
  // scalar tail, which need not round alike) as in one unbanded run.
  constexpr size_t kRunAlign = 16;
  const int bands = BandCount(src.height(), kTailBandRows);
  ForEachBand(bands, [&](int b) {
    const size_t begin =
        b == 0 ? 0 : pixels * b / bands / kRunAlign * kRunAlign;
    const size_t end = b + 1 == bands
                           ? pixels
                           : pixels * (b + 1) / bands / kRunAlign * kRunAlign;
    const uint8_t* p = src.data() + begin * c;
    const size_t count = end - begin;
    if (c == 3) {
      FusedTailRgbRun(p, count, scale, offset, dst + begin,
                      dst + pixels + begin, dst + 2 * pixels + begin);
    } else if (c == 1) {
      FusedTailGrayRun(p, count, scale[0], offset[0], dst + begin);
    } else {
      for (int ch = 0; ch < c; ++ch) {
        float* d = dst + static_cast<size_t>(ch) * pixels + begin;
        const float s = scale[ch % 3];
        const float o = offset[ch % 3];
        for (size_t i = 0; i < count; ++i) {
          d[i] = static_cast<float>(p[i * c + ch]) * s + o;
        }
      }
    }
  });
  return Status::OK();
}

Status FusedConvertNormalizeSplitRoiInto(const Image& src, const Roi& roi,
                                         const NormalizeParams& params,
                                         float* dst, size_t dst_size) {
  if (src.empty()) return Status::InvalidArgument("empty image");
  if (roi.empty() || roi.x < 0 || roi.y < 0 ||
      roi.x + roi.width > src.width() || roi.y + roi.height > src.height()) {
    return Status::OutOfRange("ROI exceeds image bounds");
  }
  const int c = src.channels();
  const size_t out_pixels =
      static_cast<size_t>(roi.width) * static_cast<size_t>(roi.height);
  const size_t out_floats = out_pixels * static_cast<size_t>(c);
  if (dst == nullptr || dst_size < out_floats) {
    return Status::InvalidArgument("destination too small");
  }
  if (roi.x == 0 && roi.y == 0 && roi.width == src.width() &&
      roi.height == src.height()) {
    // Full frame: one contiguous run beats per-row kernel launches.
    return FusedConvertNormalizeSplitInto(src, params, dst, dst_size);
  }
  float scale[3], offset[3];
  AffineParams(params, scale, offset);
  const size_t row_pixels = static_cast<size_t>(roi.width);
  // Row by row, so idle peers may take bands of rows.
  const int bands = BandCount(roi.height, kTailBandRows);
  ForEachBand(bands, [&](int b) {
    for (int y = roi.height * b / bands; y < roi.height * (b + 1) / bands;
         ++y) {
      const uint8_t* p =
          src.row(roi.y + y) + static_cast<size_t>(roi.x) * c;
      float* d = dst + static_cast<size_t>(y) * row_pixels;
      if (c == 3) {
        FusedTailRgbRun(p, row_pixels, scale, offset, d, d + out_pixels,
                        d + 2 * out_pixels);
      } else if (c == 1) {
        FusedTailGrayRun(p, row_pixels, scale[0], offset[0], d);
      } else {
        for (int ch = 0; ch < c; ++ch) {
          float* dc = d + static_cast<size_t>(ch) * out_pixels;
          for (size_t i = 0; i < row_pixels; ++i) {
            dc[i] = static_cast<float>(p[i * c + ch]) * scale[ch % 3] +
                    offset[ch % 3];
          }
        }
      }
    }
  });
  return Status::OK();
}

}  // namespace smol
