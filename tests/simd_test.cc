// Scalar-vs-SIMD parity for every runtime-dispatched kernel.
//
// Each test runs the kernel once under ScopedSimdLevelCap(kScalar) and once
// per wider level the host supports, over randomized shapes (including 1-px
// and non-multiple-of-8 extents, which exercise every vector tail path).
// Pure-integer kernels (YCbCr conversion) must match bit-exactly; kernels
// with float interiors but integer outputs (u8 resize, inverse DCT) may
// differ by 1 LSB where FMA contraction shifts a result across a rounding
// boundary; float-output kernels use a ULP-scaled tolerance.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/codec/block_codec.h"
#include "src/codec/color.h"
#include "src/codec/dct.h"
#include "src/codec/image.h"
#include "src/dnn/gemm.h"
#include "src/preproc/fused.h"
#include "src/preproc/ops.h"
#include "src/preproc/resize.h"
#include "src/util/cpu_features.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace smol {
namespace {

// Levels above scalar that this host can actually run.
std::vector<SimdLevel> WiderLevels() {
  std::vector<SimdLevel> levels;
  if (DetectedSimdLevel() >= SimdLevel::kSSE4) levels.push_back(SimdLevel::kSSE4);
  if (DetectedSimdLevel() >= SimdLevel::kAVX2) levels.push_back(SimdLevel::kAVX2);
  return levels;
}

Image RandomImage(Rng* rng, int w, int h, int c) {
  Image img(w, h, c);
  for (size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<uint8_t>(rng->UniformInt(0, 255));
  }
  return img;
}

TEST(CpuFeaturesTest, LevelsAreOrderedAndNamed) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSSE4), "sse4");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAVX2), "avx2");
  EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
}

TEST(CpuFeaturesTest, ScopedCapLowersAndRestores) {
  const SimdLevel before = ActiveSimdLevel();
  {
    ScopedSimdLevelCap cap(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    {
      ScopedSimdLevelCap inner(SimdLevel::kSSE4);
      // Caps do not widen beyond detection.
      EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
    }
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(ActiveSimdLevel(), before);
}

// --- GEMM --------------------------------------------------------------------

void CheckGemmParity(int m, int k, int n, bool accumulate, int variant,
                     SimdLevel level) {
  Rng rng(static_cast<uint64_t>(m * 73 + k * 31 + n * 7 + variant));
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  std::vector<float> c_init(static_cast<size_t>(m) * n);
  for (auto& v : a) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto& v : c_init) v = static_cast<float>(rng.UniformDouble(-1, 1));

  auto run = [&](SimdLevel cap) {
    ScopedSimdLevelCap scoped(cap);
    std::vector<float> c = c_init;
    switch (variant) {
      case 0:
        Gemm(a.data(), b.data(), c.data(), m, k, n, accumulate);
        break;
      case 1:  // a stored [k x m]
        GemmTransA(a.data(), b.data(), c.data(), m, k, n, accumulate);
        break;
      default:  // b stored [n x k]
        GemmTransB(a.data(), b.data(), c.data(), m, k, n, accumulate);
        break;
    }
    return c;
  };

  const std::vector<float> ref = run(SimdLevel::kScalar);
  const std::vector<float> got = run(level);
  // ULP-scaled: |values| <= 1, so each of the k products carries at most a
  // few eps of reassociation/FMA error.
  const float tol = 8.0f * std::numeric_limits<float>::epsilon() *
                    (static_cast<float>(k) + 1.0f);
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(ref[i], got[i], tol)
        << "variant " << variant << " m=" << m << " k=" << k << " n=" << n
        << " accumulate=" << accumulate << " level=" << SimdLevelName(level)
        << " index " << i;
  }
}

TEST(SimdParityTest, GemmAllVariantsRandomShapes) {
  const int shapes[][3] = {{1, 1, 1},   {1, 7, 16},  {2, 3, 5},   {5, 8, 13},
                           {6, 16, 16}, {7, 17, 15}, {13, 9, 33}, {16, 32, 8},
                           {31, 64, 17}, {64, 64, 64}, {65, 128, 30}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      for (int variant = 0; variant < 3; ++variant) {
        for (bool accumulate : {false, true}) {
          CheckGemmParity(s[0], s[1], s[2], accumulate, variant, level);
        }
      }
    }
  }
}

// --- Resize ------------------------------------------------------------------

TEST(SimdParityTest, ResizeU8RandomShapes) {
  Rng rng(11);
  const int shapes[][4] = {{16, 16, 8, 8},   {16, 16, 32, 32}, {33, 17, 15, 9},
                           {224, 224, 64, 64}, {7, 5, 13, 11},  {1, 16, 8, 8},
                           {16, 1, 8, 8},    {9, 9, 1, 1},     {2, 2, 3, 3}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      for (int c : {1, 3}) {
        const Image src = RandomImage(&rng, s[0], s[1], c);
        Image ref, got;
        {
          ScopedSimdLevelCap cap(SimdLevel::kScalar);
          ref = ResizeBilinear(src, s[2], s[3]);
        }
        {
          ScopedSimdLevelCap cap(level);
          got = ResizeBilinear(src, s[2], s[3]);
        }
        ASSERT_EQ(ref.size_bytes(), got.size_bytes());
        for (size_t i = 0; i < ref.size_bytes(); ++i) {
          ASSERT_NEAR(ref.data()[i], got.data()[i], 1)
              << s[0] << "x" << s[1] << "c" << c << " -> " << s[2] << "x"
              << s[3] << " level=" << SimdLevelName(level) << " byte " << i;
        }
      }
    }
  }
}

TEST(SimdParityTest, ResizeF32RandomShapes) {
  Rng rng(12);
  const int shapes[][4] = {{16, 16, 9, 7}, {33, 17, 64, 64}, {1, 9, 5, 5},
                           {9, 1, 5, 5},   {50, 31, 224, 3}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      FloatImage src;
      src.width = s[0];
      src.height = s[1];
      src.channels = 3;
      src.chw = false;
      src.data.resize(static_cast<size_t>(s[0]) * s[1] * 3);
      for (auto& v : src.data) {
        v = static_cast<float>(rng.UniformDouble(0, 255));
      }
      FloatImage ref, got;
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        ASSERT_OK_AND_ASSIGN(ref, ResizeF32(src, s[2], s[3]));
      }
      {
        ScopedSimdLevelCap cap(level);
        ASSERT_OK_AND_ASSIGN(got, ResizeF32(src, s[2], s[3]));
      }
      ASSERT_EQ(ref.data.size(), got.data.size());
      // Lerp of values <= 255: a few ULP at that magnitude.
      const float tol = 255.0f * 8.0f * std::numeric_limits<float>::epsilon();
      for (size_t i = 0; i < ref.data.size(); ++i) {
        ASSERT_NEAR(ref.data[i], got.data[i], tol)
            << "level=" << SimdLevelName(level) << " index " << i;
      }
    }
  }
}

// --- Fused preprocessing tail ------------------------------------------------

TEST(SimdParityTest, FusedTailRandomShapes) {
  Rng rng(13);
  NormalizeParams params;
  const int shapes[][2] = {{16, 16}, {17, 9}, {1, 1},  {1, 13},
                           {13, 1},  {224, 3}, {15, 15}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      for (int c : {1, 3}) {
        const Image src = RandomImage(&rng, s[0], s[1], c);
        FloatImage ref, got;
        {
          ScopedSimdLevelCap cap(SimdLevel::kScalar);
          ASSERT_OK(FusedConvertNormalizeSplit(src, params, &ref));
        }
        {
          ScopedSimdLevelCap cap(level);
          ASSERT_OK(FusedConvertNormalizeSplit(src, params, &got));
        }
        ASSERT_EQ(ref.data.size(), got.data.size());
        const float tol = 8.0f * std::numeric_limits<float>::epsilon() * 3.0f;
        for (size_t i = 0; i < ref.data.size(); ++i) {
          ASSERT_NEAR(ref.data[i], got.data[i], tol)
              << s[0] << "x" << s[1] << "c" << c
              << " level=" << SimdLevelName(level) << " index " << i;
        }
      }
    }
  }
}

// --- YCbCr color conversion (pure integer: exact) ----------------------------

TEST(SimdParityTest, ColorConversionExact) {
  Rng rng(14);
  const int shapes[][2] = {{16, 16}, {17, 9}, {1, 1},  {1, 8},
                           {8, 1},   {31, 3}, {48, 2}, {15, 16}};
  for (SimdLevel level : WiderLevels()) {
    for (const auto& s : shapes) {
      const Image src = RandomImage(&rng, s[0], s[1], 3);
      Ycbcr420 ref_ycc, got_ycc;
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        ref_ycc = RgbToYcbcr420(src);
      }
      {
        ScopedSimdLevelCap cap(level);
        got_ycc = RgbToYcbcr420(src);
      }
      ASSERT_EQ(ref_ycc.y, got_ycc.y)
          << s[0] << "x" << s[1] << " level=" << SimdLevelName(level);
      ASSERT_EQ(ref_ycc.cb, got_ycc.cb);
      ASSERT_EQ(ref_ycc.cr, got_ycc.cr);

      Image ref_rgb, got_rgb;
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        ref_rgb = Ycbcr420ToRgb(ref_ycc);
      }
      {
        ScopedSimdLevelCap cap(level);
        got_rgb = Ycbcr420ToRgb(ref_ycc);
      }
      ASSERT_TRUE(ref_rgb == got_rgb)
          << s[0] << "x" << s[1] << " level=" << SimdLevelName(level);
    }
  }
}

// --- DCT ---------------------------------------------------------------------

TEST(SimdParityTest, DctForwardAndInverse) {
  Rng rng(15);
  for (SimdLevel level : WiderLevels()) {
    for (int trial = 0; trial < 32; ++trial) {
      int16_t block[64];
      for (auto& v : block) {
        v = static_cast<int16_t>(rng.UniformInt(-255, 255));
      }
      float ref_coeffs[64], got_coeffs[64];
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        ForwardDct8x8(block, ref_coeffs);
      }
      {
        ScopedSimdLevelCap cap(level);
        ForwardDct8x8(block, got_coeffs);
      }
      // Coefficients reach |8 * 255|; scale tolerance accordingly.
      const float tol = 2048.0f * 8.0f * std::numeric_limits<float>::epsilon();
      for (int i = 0; i < 64; ++i) {
        ASSERT_NEAR(ref_coeffs[i], got_coeffs[i], tol)
            << "forward, level=" << SimdLevelName(level) << " index " << i;
      }

      int16_t ref_out[64], got_out[64];
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        InverseDct8x8(ref_coeffs, ref_out);
      }
      {
        ScopedSimdLevelCap cap(level);
        InverseDct8x8(ref_coeffs, got_out);
      }
      for (int i = 0; i < 64; ++i) {
        ASSERT_NEAR(ref_out[i], got_out[i], 1)
            << "inverse, level=" << SimdLevelName(level) << " index " << i;
      }
    }
  }
}

// The decoder's fused dequantize + inverse DCT + level-shift store must
// write exactly what the unfused transform plus a clip writes at the same
// dispatch level (pixels are bit-identical to the unfused decoder), and so
// stay within the transform's 1 LSB of the scalar reference. Blocks range
// from DC-only to dense with saturating magnitudes; n = 4/2/1 are the scaled
// rungs.
TEST(SimdParityTest, FusedReconstructStoreMatchesUnfused) {
  Rng rng(19);
  std::vector<SimdLevel> levels = WiderLevels();
  levels.insert(levels.begin(), SimdLevel::kScalar);
  const auto clip = [](int v) { return std::min(255, std::max(0, v + 128)); };
  // Unfused reference: dequantize + InverseDct8x8 / InverseDctScaled + clip.
  const auto reference = [&](const int16_t natural[64], const QuantTable& qt,
                             int n, int out[64]) {
    float dct[64];
    Dequantize(natural, qt, dct);
    int16_t samples[64];
    if (n == 8) {
      InverseDct8x8(dct, samples);
    } else {
      InverseDctScaled(dct, n, samples);
    }
    for (int i = 0; i < n * n; ++i) out[i] = clip(samples[i]);
  };
  // 400 random blocks, then a DC-only sweep: with q[0] in {1, 2, 4} the
  // dequantized DC covers every small integer, including the values whose
  // samples land where the scalar and vector roundings differ (a DC of 4
  // reconstructs to 0.49999997).
  constexpr int kRandomTrials = 400;
  constexpr int kSweepQualities[3] = {100, 95, 88};  // q[0] = 1, 2, 4
  for (int trial = 0; trial < kRandomTrials + 3 * 129; ++trial) {
    const bool sweep = trial >= kRandomTrials;
    const int sweep_index = trial - kRandomTrials;
    const QuantTable qt =
        QuantTable::Luma(sweep ? kSweepQualities[sweep_index / 129]
                               : static_cast<int>(rng.UniformInt(1, 100)));
    const int count = sweep || trial % 4 == 0
                          ? 1
                          : static_cast<int>(rng.UniformInt(1, 64));
    const int magnitude = trial % 3 == 0 ? 2047 : 40;
    int16_t natural[64] = {};
    if (sweep) natural[0] = static_cast<int16_t>(sweep_index % 129 - 64);
    for (int k = 0; k < count && !sweep; ++k) {
      if (k == 0 || rng.Bernoulli(0.5)) {
        natural[kZigZag[k]] =
            static_cast<int16_t>(rng.UniformInt(-magnitude, magnitude));
      }
    }
    for (int n : {8, 4, 2, 1}) {
      int scalar_ref[64];
      {
        ScopedSimdLevelCap cap(SimdLevel::kScalar);
        reference(natural, qt, n, scalar_ref);
      }
      for (SimdLevel level : levels) {
        ScopedSimdLevelCap cap(level);
        int ref[64];
        reference(natural, qt, n, ref);
        // Strided destination with guard bytes around the block.
        constexpr size_t kStride = 11;
        std::vector<uint8_t> dst(kStride * 10, 0xA5);
        ReconstructStoreBlock(natural, count, qt, n, dst.data() + kStride + 1,
                              kStride);
        for (int y = 0; y < 10; ++y) {
          for (int x = 0; x < static_cast<int>(kStride); ++x) {
            const int by = y - 1, bx = x - 1;
            const uint8_t got = dst[y * kStride + x];
            if (by < 0 || by >= n || bx < 0 || bx >= n) {
              ASSERT_EQ(got, 0xA5) << "wrote outside the block at " << x
                                   << "," << y;
              continue;
            }
            ASSERT_EQ(got, ref[by * n + bx])
                << "level=" << SimdLevelName(level) << " n=" << n
                << " count=" << count << " at " << bx << "," << by;
            ASSERT_NEAR(got, scalar_ref[by * n + bx], 1)
                << "level=" << SimdLevelName(level) << " n=" << n;
          }
        }
      }
    }
  }
}

// --- Border regressions ------------------------------------------------------
// The vector paths over-read nothing: 1-px and non-multiple-of-8 extents run
// entirely through the tail code, and the clamped taps keep the right/bottom
// edge inside the source. Run (with ASan in the sanitizer config) over every
// awkward extent up to 2 vector widths.

TEST(SimdBorderTest, ResizeEveryTinyExtent) {
  Rng rng(16);
  for (int w = 1; w <= 18; ++w) {
    for (int h : {1, 2, 3, 9, 17}) {
      for (int c : {1, 3}) {
        const Image src = RandomImage(&rng, w, h, c);
        const Image up = ResizeBilinear(src, w * 2 + 1, h * 2 + 1);
        EXPECT_EQ(up.width(), w * 2 + 1);
        const Image down = ResizeBilinear(up, w, h);
        EXPECT_EQ(down.height(), h);
      }
    }
  }
}

TEST(SimdBorderTest, ColorRoundtripEveryTinyWidth) {
  Rng rng(17);
  for (int w = 1; w <= 34; ++w) {
    const Image src = RandomImage(&rng, w, 3, 3);
    const Ycbcr420 ycc = RgbToYcbcr420(src);
    const Image back = Ycbcr420ToRgb(ycc);
    ASSERT_EQ(back.width(), w);
    ASSERT_EQ(back.height(), 3);
  }
}

TEST(SimdBorderTest, FusedTailOddPixelCounts) {
  Rng rng(18);
  NormalizeParams params;
  for (int pixels = 1; pixels <= 33; ++pixels) {
    const Image src = RandomImage(&rng, pixels, 1, 3);
    FloatImage out;
    ASSERT_OK(FusedConvertNormalizeSplit(src, params, &out));
    ASSERT_EQ(out.data.size(), static_cast<size_t>(pixels) * 3);
  }
}

}  // namespace
}  // namespace smol
