#include "src/codec/color.h"

#include "src/codec/simd_bytes.h"
#include "src/util/simd.h"

namespace smol {

namespace {

#if SMOL_SIMD_X86

// Integer math below mirrors the scalar RgbToYcc/YccToRgb fixed-point
// formulas exactly (same products, rounding adds, and arithmetic shifts), so
// the vector paths are bit-identical to the scalar reference.

// Two i32x8 halves (pixels 0-7, 8-15) -> u8x16.
SMOL_TARGET_AVX2 inline __m128i PackU8x16(__m256i lo, __m256i hi) {
  const __m256i i16 = _mm256_packs_epi32(lo, hi);
  const __m256i ordered = _mm256_permute4x64_epi64(i16, _MM_SHUFFLE(3, 1, 2, 0));
  return _mm_packus_epi16(_mm256_castsi256_si128(ordered),
                          _mm256_extracti128_si256(ordered, 1));
}

SMOL_TARGET_AVX2 inline __m256i WidenLo(__m128i u8x16) {
  return _mm256_cvtepu8_epi32(u8x16);
}

SMOL_TARGET_AVX2 inline __m256i WidenHi(__m128i u8x16) {
  return _mm256_cvtepu8_epi32(_mm_srli_si128(u8x16, 8));
}

// One row of full-resolution RGB -> Y/Cb/Cr, 16 pixels per iteration.
SMOL_TARGET_AVX2 void RgbRowToYccAvx2(const uint8_t* src, int w, uint8_t* yp,
                                      uint8_t* cbp, uint8_t* crp) {
  const simd_bytes::Masks3* masks = simd_bytes::DeinterleaveMaskTable();
  const __m256i round = _mm256_set1_epi32(128);
  const __m256i bias = _mm256_set1_epi32(128);
  int x = 0;
  for (; x + 16 <= w; x += 16) {
    const uint8_t* p = src + x * 3;
    const __m128i l0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i l1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    const __m128i l2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    const __m128i r8 = simd_bytes::Shuffle3(l0, l1, l2, masks[0]);
    const __m128i g8 = simd_bytes::Shuffle3(l0, l1, l2, masks[1]);
    const __m128i b8 = simd_bytes::Shuffle3(l0, l1, l2, masks[2]);
    __m256i yq[2], cbq[2], crq[2];
    for (int half = 0; half < 2; ++half) {
      const __m256i r = half ? WidenHi(r8) : WidenLo(r8);
      const __m256i g = half ? WidenHi(g8) : WidenLo(g8);
      const __m256i b = half ? WidenHi(b8) : WidenLo(b8);
      // y  = (77 r + 150 g + 29 b + 128) >> 8
      yq[half] = _mm256_srai_epi32(
          _mm256_add_epi32(
              _mm256_add_epi32(
                  _mm256_mullo_epi32(r, _mm256_set1_epi32(77)),
                  _mm256_mullo_epi32(g, _mm256_set1_epi32(150))),
              _mm256_add_epi32(_mm256_mullo_epi32(b, _mm256_set1_epi32(29)),
                               round)),
          8);
      // cb = ((-43 r - 85 g + 128 b + 128) >> 8) + 128
      cbq[half] = _mm256_add_epi32(
          _mm256_srai_epi32(
              _mm256_add_epi32(
                  _mm256_add_epi32(
                      _mm256_mullo_epi32(r, _mm256_set1_epi32(-43)),
                      _mm256_mullo_epi32(g, _mm256_set1_epi32(-85))),
                  _mm256_add_epi32(
                      _mm256_mullo_epi32(b, _mm256_set1_epi32(128)), round)),
              8),
          bias);
      // cr = ((128 r - 107 g - 21 b + 128) >> 8) + 128
      crq[half] = _mm256_add_epi32(
          _mm256_srai_epi32(
              _mm256_add_epi32(
                  _mm256_add_epi32(
                      _mm256_mullo_epi32(r, _mm256_set1_epi32(128)),
                      _mm256_mullo_epi32(g, _mm256_set1_epi32(-107))),
                  _mm256_add_epi32(
                      _mm256_mullo_epi32(b, _mm256_set1_epi32(-21)), round)),
              8),
          bias);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(yp + x),
                     PackU8x16(yq[0], yq[1]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(cbp + x),
                     PackU8x16(cbq[0], cbq[1]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(crp + x),
                     PackU8x16(crq[0], crq[1]));
  }
  for (; x < w; ++x) {
    RgbToYcc(src[x * 3], src[x * 3 + 1], src[x * 3 + 2], yp + x, cbp + x,
             crp + x);
  }
}

// One output row of Y + half-res Cb/Cr -> interleaved RGB, 16 px/iteration.
SMOL_TARGET_AVX2 void YccRowToRgbAvx2(const uint8_t* yp, const uint8_t* cbp,
                                      const uint8_t* crp, int w,
                                      uint8_t* dst) {
  static const simd_bytes::Masks3 imasks[3] = {
      simd_bytes::RgbInterleaveMasks(0), simd_bytes::RgbInterleaveMasks(1),
      simd_bytes::RgbInterleaveMasks(2)};
  const __m256i round = _mm256_set1_epi32(128);
  const __m256i bias = _mm256_set1_epi32(128);
  const __m256i dup_lo = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  const __m256i dup_hi = _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7);
  int x = 0;
  for (; x + 16 <= w; x += 16) {
    const __m128i y16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(yp + x));
    // 8 chroma samples cover these 16 luma pixels.
    const __m256i cb8 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cbp + x / 2)));
    const __m256i cr8 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(crp + x / 2)));
    const __m256i d8 = _mm256_sub_epi32(cb8, bias);
    const __m256i e8 = _mm256_sub_epi32(cr8, bias);
    __m256i rq[2], gq[2], bq[2];
    for (int half = 0; half < 2; ++half) {
      const __m256i dup = half ? dup_hi : dup_lo;
      const __m256i y = half ? WidenHi(y16) : WidenLo(y16);
      const __m256i d = _mm256_permutevar8x32_epi32(d8, dup);
      const __m256i e = _mm256_permutevar8x32_epi32(e8, dup);
      // r = y + ((359 e + 128) >> 8)
      rq[half] = _mm256_add_epi32(
          y, _mm256_srai_epi32(
                 _mm256_add_epi32(
                     _mm256_mullo_epi32(e, _mm256_set1_epi32(359)), round),
                 8));
      // g = y - ((88 d + 183 e + 128) >> 8)
      gq[half] = _mm256_sub_epi32(
          y, _mm256_srai_epi32(
                 _mm256_add_epi32(
                     _mm256_add_epi32(
                         _mm256_mullo_epi32(d, _mm256_set1_epi32(88)),
                         _mm256_mullo_epi32(e, _mm256_set1_epi32(183))),
                     round),
                 8));
      // b = y + ((454 d + 128) >> 8)
      bq[half] = _mm256_add_epi32(
          y, _mm256_srai_epi32(
                 _mm256_add_epi32(
                     _mm256_mullo_epi32(d, _mm256_set1_epi32(454)), round),
                 8));
    }
    const __m128i r8 = PackU8x16(rq[0], rq[1]);
    const __m128i g8 = PackU8x16(gq[0], gq[1]);
    const __m128i b8 = PackU8x16(bq[0], bq[1]);
    uint8_t* out = dst + x * 3;
    for (int chunk = 0; chunk < 3; ++chunk) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + chunk * 16),
                       simd_bytes::Shuffle3(r8, g8, b8, imasks[chunk]));
    }
  }
  for (; x < w; ++x) {
    YccToRgb(yp[x], cbp[x / 2], crp[x / 2], dst + x * 3, dst + x * 3 + 1,
             dst + x * 3 + 2);
  }
}

#endif  // SMOL_SIMD_X86

}  // namespace

Ycbcr420 RgbToYcbcr420(const Image& rgb) {
  Ycbcr420 out;
  out.width = rgb.width();
  out.height = rgb.height();
  const int w = out.width;
  const int h = out.height;
  const int cw = out.chroma_width();
  const int ch = out.chroma_height();
  out.y.resize(static_cast<size_t>(w) * h);
  out.cb.resize(static_cast<size_t>(cw) * ch);
  out.cr.resize(static_cast<size_t>(cw) * ch);

  // Full-resolution conversion into temporary chroma planes.
  std::vector<uint8_t> cb_full(static_cast<size_t>(w) * h);
  std::vector<uint8_t> cr_full(static_cast<size_t>(w) * h);
  const bool gray = rgb.channels() == 1;
#if SMOL_SIMD_X86
  const bool avx2 = !gray && simd::Avx2();
#endif
  for (int y = 0; y < h; ++y) {
    const uint8_t* src = rgb.row(y);
    uint8_t* yp = out.y.data() + static_cast<size_t>(y) * w;
    uint8_t* cbp = cb_full.data() + static_cast<size_t>(y) * w;
    uint8_t* crp = cr_full.data() + static_cast<size_t>(y) * w;
#if SMOL_SIMD_X86
    if (avx2) {
      RgbRowToYccAvx2(src, w, yp, cbp, crp);
      continue;
    }
#endif
    for (int x = 0; x < w; ++x) {
      uint8_t r, g, b;
      if (gray) {
        r = g = b = src[x];
      } else {
        r = src[x * 3];
        g = src[x * 3 + 1];
        b = src[x * 3 + 2];
      }
      RgbToYcc(r, g, b, yp + x, cbp + x, crp + x);
    }
  }
  // 2x2 box filter then subsample.
  for (int cy = 0; cy < ch; ++cy) {
    for (int cx = 0; cx < cw; ++cx) {
      int sum_cb = 0, sum_cr = 0, count = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int sy = cy * 2 + dy;
          const int sx = cx * 2 + dx;
          if (sy < h && sx < w) {
            sum_cb += cb_full[static_cast<size_t>(sy) * w + sx];
            sum_cr += cr_full[static_cast<size_t>(sy) * w + sx];
            ++count;
          }
        }
      }
      out.cb[static_cast<size_t>(cy) * cw + cx] =
          static_cast<uint8_t>(sum_cb / count);
      out.cr[static_cast<size_t>(cy) * cw + cx] =
          static_cast<uint8_t>(sum_cr / count);
    }
  }
  return out;
}

Image Ycbcr420ToRgb(const Ycbcr420& ycc) {
  Image out;
  Ycbcr420ToRgbInto(ycc, &out);
  return out;
}

void YccRowToRgb(const uint8_t* y, const uint8_t* cb, const uint8_t* cr,
                 int width, uint8_t* dst) {
#if SMOL_SIMD_X86
  if (simd::Avx2()) {
    YccRowToRgbAvx2(y, cb, cr, width, dst);
    return;
  }
#endif
  for (int x = 0; x < width; ++x) {
    YccToRgb(y[x], cb[x / 2], cr[x / 2], dst + x * 3, dst + x * 3 + 1,
             dst + x * 3 + 2);
  }
}

void Ycbcr420ToRgbInto(const Ycbcr420& ycc, Image* out) {
  out->Reshape(ycc.width, ycc.height, 3);
  const int w = ycc.width;
  const int cw = ycc.chroma_width();
  for (int y = 0; y < ycc.height; ++y) {
    const size_t chroma_row = static_cast<size_t>(y / 2) * cw;
    YccRowToRgb(ycc.y.data() + static_cast<size_t>(y) * w,
                ycc.cb.data() + chroma_row, ycc.cr.data() + chroma_row, w,
                out->row(y));
  }
}

}  // namespace smol
