// RGB <-> YCbCr (BT.601 full-range) conversion and 4:2:0 chroma resampling.
#ifndef SMOL_CODEC_COLOR_H_
#define SMOL_CODEC_COLOR_H_

#include <cstdint>
#include <vector>

#include "src/codec/image.h"

namespace smol {

/// \brief Planar YCbCr image with 4:2:0 chroma subsampling.
///
/// Luma plane is (width x height); chroma planes are ceil(w/2) x ceil(h/2).
struct Ycbcr420 {
  int width = 0;
  int height = 0;
  std::vector<uint8_t> y;
  std::vector<uint8_t> cb;
  std::vector<uint8_t> cr;

  int chroma_width() const { return (width + 1) / 2; }
  int chroma_height() const { return (height + 1) / 2; }
};

/// Converts an RGB (or grayscale, replicated) image to planar 4:2:0 YCbCr.
/// Chroma is box-filtered 2x2 before subsampling.
Ycbcr420 RgbToYcbcr420(const Image& rgb);

/// Converts planar 4:2:0 YCbCr back to interleaved RGB with bilinear chroma
/// upsampling (nearest within the 2x2 quad; matches common fast decoders).
Image Ycbcr420ToRgb(const Ycbcr420& ycc);

/// Same conversion writing into \p out (reshaped as needed, storage reused
/// across calls — the allocation-free form the decode-into path uses).
void Ycbcr420ToRgbInto(const Ycbcr420& ycc, Image* out);

/// Converts one row of 4:2:0 samples to interleaved RGB: pixel x takes luma
/// y[x] and chroma cb[x / 2], cr[x / 2]. The row kernel of Ycbcr420ToRgbInto,
/// for callers that convert a band of rows at a time.
void YccRowToRgb(const uint8_t* y, const uint8_t* cb, const uint8_t* cr,
                 int width, uint8_t* dst);

/// Scalar conversions (full-range BT.601 integer approximation).
inline void RgbToYcc(uint8_t r, uint8_t g, uint8_t b, uint8_t* y, uint8_t* cb,
                     uint8_t* cr) {
  const int yi = (77 * r + 150 * g + 29 * b + 128) >> 8;
  const int cbi = ((-43 * r - 85 * g + 128 * b + 128) >> 8) + 128;
  const int cri = ((128 * r - 107 * g - 21 * b + 128) >> 8) + 128;
  *y = static_cast<uint8_t>(yi < 0 ? 0 : (yi > 255 ? 255 : yi));
  *cb = static_cast<uint8_t>(cbi < 0 ? 0 : (cbi > 255 ? 255 : cbi));
  *cr = static_cast<uint8_t>(cri < 0 ? 0 : (cri > 255 ? 255 : cri));
}

inline void YccToRgb(uint8_t y, uint8_t cb, uint8_t cr, uint8_t* r, uint8_t* g,
                     uint8_t* b) {
  const int c = y;
  const int d = cb - 128;
  const int e = cr - 128;
  int ri = c + ((359 * e + 128) >> 8);
  int gi = c - ((88 * d + 183 * e + 128) >> 8);
  int bi = c + ((454 * d + 128) >> 8);
  *r = static_cast<uint8_t>(ri < 0 ? 0 : (ri > 255 ? 255 : ri));
  *g = static_cast<uint8_t>(gi < 0 ? 0 : (gi > 255 ? 255 : gi));
  *b = static_cast<uint8_t>(bi < 0 ? 0 : (bi > 255 ? 255 : bi));
}

}  // namespace smol

#endif  // SMOL_CODEC_COLOR_H_
