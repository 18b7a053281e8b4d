// Unit, integration and property tests for src/codec: bitstream, Huffman,
// DCT, color, SJPG (roundtrip / ROI / early stop), SPNG (lossless roundtrip /
// early stop), SV264 (roundtrip / random access / deblock toggle), formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/codec/bitstream.h"
#include "src/codec/block_codec.h"
#include "src/codec/color.h"
#include "src/codec/dct.h"
#include "src/codec/format.h"
#include "src/codec/huffman.h"
#include "src/codec/image.h"
#include "src/codec/sjpg.h"
#include "src/codec/spng.h"
#include "src/codec/sv264.h"
#include "tests/sjpg_band_testing.h"
#include "tests/test_util.h"

namespace smol {
namespace {

using smol::testing::MakeNoiseImage;
using smol::testing::MakeTestImage;

// --- Bitstream ---------------------------------------------------------------

TEST(BitstreamTest, RoundtripBits) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBits(0b0110, 4);
  w.WriteBits(0x1FFFF, 17);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.ReadBits(3).value(), 0b101u);
  EXPECT_EQ(r.ReadBits(4).value(), 0b0110u);
  EXPECT_EQ(r.ReadBits(17).value(), 0x1FFFFu);
}

TEST(BitstreamTest, RoundtripMixedAlignedValues) {
  BitWriter w;
  w.WriteBits(0b11, 2);
  w.WriteU32(0xDEADBEEF);  // forces alignment
  w.WriteU16(0x1234);
  w.WriteByte(0x7F);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.ReadBits(2).value(), 0b11u);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU16().value(), 0x1234u);
  EXPECT_EQ(r.ReadByte().value(), 0x7Fu);
}

TEST(BitstreamTest, TruncationDetected) {
  BitWriter w;
  w.WriteBits(0b1, 1);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_TRUE(r.ReadBits(8).ok());
  EXPECT_FALSE(r.ReadBits(8).ok());  // past the single byte
}

TEST(BitstreamTest, SeekRepositions) {
  BitWriter w;
  for (int i = 0; i < 16; ++i) w.WriteByte(static_cast<uint8_t>(i));
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  ASSERT_OK(r.SeekToByte(10));
  EXPECT_EQ(r.ReadByte().value(), 10u);
  EXPECT_FALSE(r.SeekToByte(17).ok());
}

// --- Huffman ------------------------------------------------------------------

TEST(HuffmanTest, RoundtripSkewedDistribution) {
  std::vector<uint64_t> freq(64, 0);
  freq[0] = 1000;
  freq[1] = 500;
  freq[2] = 100;
  freq[3] = 10;
  freq[63] = 1;
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  // Frequent symbols get codes no longer than rare ones.
  EXPECT_LE(table.CodeLength(0), table.CodeLength(63));

  BitWriter w;
  const std::vector<int> message = {0, 0, 1, 2, 0, 63, 3, 1, 0};
  for (int sym : message) table.EncodeSymbol(&w, sym);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  for (int expected : message) {
    EXPECT_EQ(table.DecodeSymbol(&r).value(), expected);
  }
}

TEST(HuffmanTest, SerializationRoundtrip) {
  std::vector<uint64_t> freq(256, 0);
  Rng rng(3);
  for (auto& f : freq) f = rng.Uniform(100);
  freq[17] = 100000;  // force a very short code somewhere
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  BitWriter w;
  table.Serialize(&w);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  ASSERT_OK_AND_ASSIGN(HuffmanTable restored, HuffmanTable::Deserialize(&r));
  for (int sym = 0; sym < 256; ++sym) {
    EXPECT_EQ(table.CodeLength(sym), restored.CodeLength(sym)) << sym;
  }
}

TEST(HuffmanTest, SingleSymbolAlphabet) {
  std::vector<uint64_t> freq(16, 0);
  freq[5] = 42;
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  EXPECT_EQ(table.CodeLength(5), 1);
  BitWriter w;
  table.EncodeSymbol(&w, 5);
  table.EncodeSymbol(&w, 5);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(table.DecodeSymbol(&r).value(), 5);
  EXPECT_EQ(table.DecodeSymbol(&r).value(), 5);
}

TEST(HuffmanTest, AllZeroFrequenciesRejected) {
  std::vector<uint64_t> freq(8, 0);
  EXPECT_FALSE(HuffmanTable::FromFrequencies(freq).ok());
}

TEST(HuffmanTest, LengthLimitHolds) {
  // A geometric distribution would produce very deep trees unlimited.
  std::vector<uint64_t> freq(40, 0);
  uint64_t f = 1;
  for (int i = 0; i < 40; ++i) {
    freq[i] = f;
    if (f < (1ULL << 40)) f *= 2;
  }
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  for (int sym = 0; sym < 40; ++sym) {
    EXPECT_LE(table.CodeLength(sym), kMaxHuffmanBits);
    EXPECT_GE(table.CodeLength(sym), 1);
  }
}

// Property: roundtrip holds for random frequency tables (parameterized seeds).
class HuffmanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HuffmanPropertyTest, RandomTableRoundtrip) {
  Rng rng(GetParam());
  const int alphabet = 2 + static_cast<int>(rng.Uniform(300));
  std::vector<uint64_t> freq(alphabet, 0);
  for (auto& f : freq) {
    f = rng.Bernoulli(0.3) ? 0 : rng.Uniform(10000);
  }
  freq[0] = 1;  // ensure at least one nonzero
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  // Encode a random message of present symbols.
  std::vector<int> present;
  for (int i = 0; i < alphabet; ++i) {
    if (table.CodeLength(i) > 0) present.push_back(i);
  }
  ASSERT_FALSE(present.empty());
  std::vector<int> message;
  for (int i = 0; i < 200; ++i) {
    message.push_back(present[rng.Uniform(present.size())]);
  }
  BitWriter w;
  for (int s : message) table.EncodeSymbol(&w, s);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  for (int expected : message) {
    ASSERT_EQ(table.DecodeSymbol(&r).value(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// --- DCT -----------------------------------------------------------------------

TEST(DctTest, RoundtripIsNearLossless) {
  Rng rng(5);
  int16_t in[64], out[64];
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<int16_t>(rng.UniformInt(-128, 127));
  }
  float coeffs[64];
  ForwardDct8x8(in, coeffs);
  InverseDct8x8(coeffs, out);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(in[i], out[i], 1) << "index " << i;
  }
}

TEST(DctTest, FlatBlockHasOnlyDc) {
  int16_t in[64];
  for (int i = 0; i < 64; ++i) in[i] = 50;
  float coeffs[64];
  ForwardDct8x8(in, coeffs);
  EXPECT_NEAR(coeffs[0], 50.0f * 8.0f, 0.01f);  // DC = mean * 8
  for (int i = 1; i < 64; ++i) {
    EXPECT_NEAR(coeffs[i], 0.0f, 0.01f);
  }
}

TEST(DctTest, ParsevalEnergyPreserved) {
  Rng rng(6);
  int16_t in[64];
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<int16_t>(rng.UniformInt(-100, 100));
  }
  float coeffs[64];
  ForwardDct8x8(in, coeffs);
  double e_space = 0, e_freq = 0;
  for (int i = 0; i < 64; ++i) {
    e_space += static_cast<double>(in[i]) * in[i];
    e_freq += static_cast<double>(coeffs[i]) * coeffs[i];
  }
  EXPECT_NEAR(e_freq / e_space, 1.0, 0.01);
}

TEST(DctTest, QualityScalesQuantTables) {
  const QuantTable q10 = QuantTable::Luma(10);
  const QuantTable q75 = QuantTable::Luma(75);
  const QuantTable q100 = QuantTable::Luma(100);
  // Lower quality => coarser quantization.
  uint64_t s10 = 0, s75 = 0, s100 = 0;
  for (int i = 0; i < 64; ++i) {
    s10 += q10.q[i];
    s75 += q75.q[i];
    s100 += q100.q[i];
  }
  EXPECT_GT(s10, s75);
  EXPECT_GT(s75, s100);
  for (int i = 0; i < 64; ++i) EXPECT_GE(q100.q[i], 1);
}

TEST(DctTest, ZigZagIsAPermutation) {
  std::vector<bool> seen(64, false);
  for (int i = 0; i < 64; ++i) {
    ASSERT_GE(kZigZag[i], 0);
    ASSERT_LT(kZigZag[i], 64);
    EXPECT_FALSE(seen[kZigZag[i]]);
    seen[kZigZag[i]] = true;
  }
  EXPECT_EQ(kZigZag[0], 0);   // DC first
  EXPECT_EQ(kZigZag[63], 63); // highest frequency last
}

TEST(DctTest, QuantizeDequantizeRoundtrip) {
  const QuantTable qt = QuantTable::Luma(90);
  float in[64];
  Rng rng(8);
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<float>(rng.UniformInt(-500, 500));
  }
  int16_t q[64];
  Quantize(in, qt, q);
  float out[64];
  Dequantize(q, qt, out);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(in[i], out[i], qt.q[i] / 2.0 + 0.51);
  }
}

// --- Color -----------------------------------------------------------------------

TEST(ColorTest, ScalarRoundtripIsClose) {
  Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t r0 = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t g0 = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t b0 = static_cast<uint8_t>(rng.Uniform(256));
    uint8_t y, cb, cr, r1, g1, b1;
    RgbToYcc(r0, g0, b0, &y, &cb, &cr);
    YccToRgb(y, cb, cr, &r1, &g1, &b1);
    EXPECT_NEAR(r0, r1, 4);
    EXPECT_NEAR(g0, g1, 4);
    EXPECT_NEAR(b0, b1, 4);
  }
}

TEST(ColorTest, GrayMapsToNeutralChroma) {
  uint8_t y, cb, cr;
  RgbToYcc(128, 128, 128, &y, &cb, &cr);
  EXPECT_NEAR(y, 128, 1);
  EXPECT_NEAR(cb, 128, 1);
  EXPECT_NEAR(cr, 128, 1);
}

TEST(ColorTest, PlanarRoundtripOnSmoothImage) {
  const Image img = MakeTestImage(64, 48, 3);
  Ycbcr420 ycc = RgbToYcbcr420(img);
  EXPECT_EQ(ycc.chroma_width(), 32);
  EXPECT_EQ(ycc.chroma_height(), 24);
  Image back = Ycbcr420ToRgb(ycc);
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, back));
  EXPECT_GT(psnr, 30.0);  // 4:2:0 subsampling loses some chroma detail
}

TEST(ColorTest, OddDimensionsHandled) {
  const Image img = MakeTestImage(33, 17, 3);
  Ycbcr420 ycc = RgbToYcbcr420(img);
  EXPECT_EQ(ycc.chroma_width(), 17);
  EXPECT_EQ(ycc.chroma_height(), 9);
  Image back = Ycbcr420ToRgb(ycc);
  EXPECT_EQ(back.width(), 33);
  EXPECT_EQ(back.height(), 17);
}

// --- Image helpers ------------------------------------------------------------------

TEST(ImageTest, CropExtractsExactRegion) {
  Image img(10, 10, 1);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      img.at(x, y, 0) = static_cast<uint8_t>(y * 10 + x);
    }
  }
  ASSERT_OK_AND_ASSIGN(Image crop, CropImage(img, Roi{2, 3, 4, 5}));
  EXPECT_EQ(crop.width(), 4);
  EXPECT_EQ(crop.height(), 5);
  EXPECT_EQ(crop.at(0, 0, 0), 32);
  EXPECT_EQ(crop.at(3, 4, 0), 75);
}

TEST(ImageTest, CropRejectsOutOfBounds) {
  Image img(10, 10, 1);
  EXPECT_FALSE(CropImage(img, Roi{8, 8, 4, 4}).ok());
  EXPECT_FALSE(CropImage(img, Roi{-1, 0, 4, 4}).ok());
  EXPECT_FALSE(CropImage(img, Roi{0, 0, 0, 0}).ok());
}

TEST(ImageTest, CenterCropCentersAndClamps) {
  Roi roi = Roi::CenterCrop(100, 60, 40, 40);
  EXPECT_EQ(roi, (Roi{30, 10, 40, 40}));
  Roi clamped = Roi::CenterCrop(30, 30, 100, 100);
  EXPECT_EQ(clamped, (Roi{0, 0, 30, 30}));
}

TEST(ImageTest, PsnrIdenticalIsHuge) {
  const Image img = MakeTestImage(32, 32, 3);
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, img));
  EXPECT_GT(psnr, 1e8);
}

TEST(ImageTest, PsnrShapeMismatchRejected) {
  EXPECT_FALSE(Psnr(Image(4, 4, 1), Image(4, 4, 3)).ok());
  EXPECT_FALSE(MeanAbsDiff(Image(4, 4, 1), Image(5, 4, 1)).ok());
}

// --- SJPG ------------------------------------------------------------------------------

TEST(SjpgTest, RoundtripHighQualityIsClose) {
  const Image img = MakeTestImage(128, 96, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 95}));
  ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes));
  EXPECT_EQ(decoded.width(), img.width());
  EXPECT_EQ(decoded.height(), img.height());
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, decoded));
  EXPECT_GT(psnr, 30.0);
}

TEST(SjpgTest, QualityControlsRateAndDistortion) {
  const Image img = MakeTestImage(128, 128, 3);
  ASSERT_OK_AND_ASSIGN(auto q95, SjpgEncode(img, {.quality = 95}));
  ASSERT_OK_AND_ASSIGN(auto q75, SjpgEncode(img, {.quality = 75}));
  ASSERT_OK_AND_ASSIGN(auto q30, SjpgEncode(img, {.quality = 30}));
  EXPECT_GT(q95.size(), q75.size());
  EXPECT_GT(q75.size(), q30.size());
  ASSERT_OK_AND_ASSIGN(Image d95, SjpgDecode(q95));
  ASSERT_OK_AND_ASSIGN(Image d30, SjpgDecode(q30));
  ASSERT_OK_AND_ASSIGN(double psnr95, Psnr(img, d95));
  ASSERT_OK_AND_ASSIGN(double psnr30, Psnr(img, d30));
  EXPECT_GT(psnr95, psnr30);
}

TEST(SjpgTest, GrayscaleRoundtrip) {
  const Image img = MakeTestImage(64, 64, 1);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 90}));
  ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes));
  EXPECT_EQ(decoded.channels(), 1);
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, decoded));
  EXPECT_GT(psnr, 30.0);
}

TEST(SjpgTest, NonMultipleOf16Dimensions) {
  const Image img = MakeTestImage(77, 53, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes));
  EXPECT_EQ(decoded.width(), 77);
  EXPECT_EQ(decoded.height(), 53);
}

TEST(SjpgTest, PeekHeaderWithoutDecode) {
  const Image img = MakeTestImage(80, 48, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 61}));
  ASSERT_OK_AND_ASSIGN(SjpgHeader hdr, SjpgPeekHeader(bytes));
  EXPECT_EQ(hdr.width, 80);
  EXPECT_EQ(hdr.height, 48);
  EXPECT_EQ(hdr.channels, 3);
  EXPECT_EQ(hdr.quality, 61);
  EXPECT_EQ(hdr.mcu_size, 16);
  EXPECT_EQ(hdr.mcu_cols, 5);
  EXPECT_EQ(hdr.mcu_rows, 3);
}

// The key §6.4 property: the ROI decode returns exactly the same pixels as
// cropping the full decode.
TEST(SjpgTest, RoiDecodeMatchesFullDecodeCrop) {
  const Image img = MakeTestImage(160, 128, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  ASSERT_OK_AND_ASSIGN(Image full, SjpgDecode(bytes));
  for (const Roi roi : {Roi{32, 32, 64, 64}, Roi{0, 0, 16, 16},
                        Roi{100, 50, 60, 78}, Roi{5, 7, 33, 41},
                        Roi::CenterCrop(160, 128, 96, 96)}) {
    SjpgDecodeOptions opts;
    opts.roi = roi;
    ASSERT_OK_AND_ASSIGN(Image partial, SjpgDecode(bytes, opts));
    ASSERT_OK_AND_ASSIGN(Image reference, CropImage(full, roi));
    EXPECT_EQ(partial, reference)
        << "ROI {" << roi.x << "," << roi.y << "," << roi.width << ","
        << roi.height << "}";
  }
}

TEST(SjpgTest, RoiDecodeSkipsWork) {
  const Image img = MakeTestImage(256, 256, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  SjpgDecodeStats full_stats;
  ASSERT_OK(SjpgDecode(bytes, {}, &full_stats).status());
  SjpgDecodeOptions opts;
  opts.roi = Roi::CenterCrop(256, 256, 64, 64);
  SjpgDecodeStats roi_stats;
  ASSERT_OK(SjpgDecode(bytes, opts, &roi_stats).status());
  // Entropy decoding must cover fewer rows; IDCT must cover far fewer blocks.
  EXPECT_LT(roi_stats.mcu_rows_decoded, full_stats.mcu_rows_decoded);
  EXPECT_LT(roi_stats.entropy_blocks, full_stats.entropy_blocks);
  EXPECT_LT(roi_stats.idct_blocks * 3, full_stats.idct_blocks);
}

TEST(SjpgTest, EarlyStopMatchesPrefixOfFullDecode) {
  const Image img = MakeTestImage(96, 96, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  ASSERT_OK_AND_ASSIGN(Image full, SjpgDecode(bytes));
  SjpgDecodeOptions opts;
  opts.max_rows = 40;
  ASSERT_OK_AND_ASSIGN(Image partial, SjpgDecode(bytes, opts));
  EXPECT_EQ(partial.height(), 40);
  EXPECT_EQ(partial.width(), 96);
  ASSERT_OK_AND_ASSIGN(Image prefix, CropImage(full, Roi{0, 0, 96, 40}));
  EXPECT_EQ(partial, prefix);
}

TEST(SjpgTest, RoiOutOfBoundsRejected) {
  const Image img = MakeTestImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  SjpgDecodeOptions opts;
  opts.roi = Roi{32, 32, 64, 64};
  EXPECT_FALSE(SjpgDecode(bytes, opts).ok());
}

TEST(SjpgTest, CorruptStreamsRejectedNotCrashing) {
  const Image img = MakeTestImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  // Magic corruption.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(SjpgDecode(bad).ok());
  // Truncations at various points must error, not crash.
  for (size_t keep : {size_t{5}, bytes.size() / 4, bytes.size() / 2,
                      bytes.size() - 3}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + keep);
    EXPECT_FALSE(SjpgDecode(truncated).ok()) << "kept " << keep;
  }
}

// Every byte prefix of a stream is rejected as Corruption, never decoded.
TEST(SjpgTest, EveryTruncationIsCorruption) {
  for (int channels : {1, 3}) {
    const Image img = MakeTestImage(40, 24, channels);
    ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 90}));
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
      for (int denom : {1, 2}) {
        SjpgDecodeOptions opts;
        opts.scale_denom = denom;
        const auto decoded = SjpgDecode(cut, opts);
        ASSERT_FALSE(decoded.ok()) << "kept " << keep;
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
            << "kept " << keep << ": " << decoded.status().ToString();
      }
    }
  }
}

// Idle peers decode MCU-row bands of one image; the result must not depend
// on it: pixels, stats and status equal the one-band decode for crews of 1
// to 4 threads, over full, ROI and early-stop decodes of color and gray
// images of aligned and odd sizes, and over streams whose entropy data is
// corrupted mid-image (the lowest failing band reports the serial error).
TEST(SjpgTest, BandedDecodeMatchesOneBand) {
  testing::SjpgBandChecker checker;
  const struct {
    int w, h, channels;
  } shapes[] = {{256, 256, 3}, {250, 171, 3}, {250, 171, 1}, {37, 53, 1}};
  for (const auto& shape : shapes) {
    const Image img = MakeTestImage(shape.w, shape.h, shape.channels, 5);
    ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 85}));
    const std::string name = std::to_string(shape.w) + "x" +
                             std::to_string(shape.h) + "x" +
                             std::to_string(shape.channels);
    SjpgDecodeOptions full;
    checker.Check(bytes, full, name + " full");
    SjpgDecodeOptions roi;
    roi.roi = Roi{7, 19, shape.w / 2 + 3, shape.h / 2 + 1};
    checker.Check(bytes, roi, name + " roi");
    SjpgDecodeOptions early;
    early.max_rows = shape.h / 2 + 5;
    checker.Check(bytes, early, name + " max_rows");
    for (size_t at : {bytes.size() / 2, bytes.size() * 3 / 4,
                      bytes.size() - 9}) {
      std::vector<uint8_t> corrupt = bytes;
      corrupt[at] ^= 0x5A;
      checker.Check(corrupt, full, name + " flipped at " + std::to_string(at));
    }
  }
  EXPECT_GT(checker.split_jobs(), 0u);
}

// A 65535 x 65535 color header (~12.9 GB decoded) over 4 bytes of entropy
// data is rejected while parsing, before any plane is allocated: every
// block costs at least one entropy bit.
TEST(SjpgTest, ImpossibleDimensionsRejectedBeforeAllocating) {
  BitWriter w;
  w.WriteU32(0x31504A53);  // "SJP1"
  w.WriteU16(65535);
  w.WriteU16(65535);
  w.WriteByte(3);
  w.WriteByte(75);
  for (int i = 0; i < 128; ++i) w.WriteU16(1);  // luma + chroma quant
  ASSERT_OK_AND_ASSIGN(HuffmanTable table,
                       HuffmanTable::FromFrequencies({1, 1}));
  for (int t = 0; t < 4; ++t) table.Serialize(&w);
  const int mcu_rows = 4096;
  w.WriteU16(mcu_rows);
  for (int i = 0; i <= mcu_rows; ++i) w.WriteU32(i == mcu_rows ? 4 : 0);
  for (int i = 0; i < 4; ++i) w.WriteByte(0);
  const std::vector<uint8_t> bytes = w.Finish();
  EXPECT_EQ(SjpgPeekHeader(bytes).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(SjpgDecode(bytes).status().code(), StatusCode::kCorruption);
  SjpgDecodeOptions first_rows;
  first_rows.max_rows = 16;
  EXPECT_EQ(SjpgDecode(bytes, first_rows).status().code(),
            StatusCode::kCorruption);
  SjpgDecodeOptions eighth;
  eighth.scale_denom = 8;
  EXPECT_EQ(SjpgDecode(bytes, eighth).status().code(),
            StatusCode::kCorruption);
}

TEST(SjpgTest, EmptyAndBadInputsRejected) {
  EXPECT_FALSE(SjpgEncode(Image()).ok());
  EXPECT_FALSE(SjpgEncode(Image(4, 4, 2)).ok());
  EXPECT_FALSE(SjpgDecode({}).ok());
}

// Property sweep: roundtrip PSNR stays reasonable across sizes and qualities.
struct SjpgSweepParam {
  int width;
  int height;
  int quality;
};

class SjpgSweepTest : public ::testing::TestWithParam<SjpgSweepParam> {};

TEST_P(SjpgSweepTest, RoundtripWithinTolerance) {
  const auto p = GetParam();
  const Image img = MakeTestImage(p.width, p.height, 3,
                                  static_cast<uint64_t>(p.width * 31 + p.height));
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = p.quality}));
  ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes));
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, decoded));
  // Even q=30 should stay above ~22 dB on smooth content.
  EXPECT_GT(psnr, p.quality >= 75 ? 28.0 : 22.0);
  // Compression must actually compress smooth content.
  EXPECT_LT(bytes.size(), img.size_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SjpgSweepTest,
    ::testing::Values(SjpgSweepParam{16, 16, 75}, SjpgSweepParam{17, 19, 75},
                      SjpgSweepParam{64, 64, 30}, SjpgSweepParam{64, 64, 95},
                      SjpgSweepParam{161, 161, 75},
                      SjpgSweepParam{224, 224, 95},
                      SjpgSweepParam{320, 240, 50}));

// --- SPNG -------------------------------------------------------------------------------

TEST(SpngTest, RoundtripIsLossless) {
  for (int channels : {1, 3}) {
    const Image img = MakeTestImage(100, 80, channels);
    ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
    ASSERT_OK_AND_ASSIGN(Image decoded, SpngDecode(bytes));
    EXPECT_EQ(decoded, img) << "channels=" << channels;
  }
}

TEST(SpngTest, NoiseRoundtripIsLossless) {
  const Image img = MakeNoiseImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  ASSERT_OK_AND_ASSIGN(Image decoded, SpngDecode(bytes));
  EXPECT_EQ(decoded, img);
}

TEST(SpngTest, SmoothImagesCompress) {
  const Image img = MakeTestImage(128, 128, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  EXPECT_LT(bytes.size(), img.size_bytes() / 2);
}

TEST(SpngTest, EarlyStopMatchesPrefix) {
  const Image img = MakeTestImage(90, 70, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  SpngDecodeOptions opts;
  opts.max_rows = 25;
  SpngDecodeStats stats;
  ASSERT_OK_AND_ASSIGN(Image partial, SpngDecode(bytes, opts, &stats));
  EXPECT_EQ(partial.height(), 25);
  ASSERT_OK_AND_ASSIGN(Image prefix, CropImage(img, Roi{0, 0, 90, 25}));
  EXPECT_EQ(partial, prefix);
  EXPECT_EQ(stats.rows_unfiltered, 25);
  // Early stop must not inflate the whole stream.
  SpngDecodeStats full_stats;
  ASSERT_OK(SpngDecode(bytes, {}, &full_stats).status());
  EXPECT_LT(stats.bytes_inflated, full_stats.bytes_inflated);
}

TEST(SpngTest, PeekHeader) {
  const Image img = MakeTestImage(55, 44, 1);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  ASSERT_OK_AND_ASSIGN(SpngHeader hdr, SpngPeekHeader(bytes));
  EXPECT_EQ(hdr.width, 55);
  EXPECT_EQ(hdr.height, 44);
  EXPECT_EQ(hdr.channels, 1);
}

TEST(SpngTest, CorruptStreamsRejected) {
  const Image img = MakeTestImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  auto bad = bytes;
  bad[1] ^= 0x55;
  EXPECT_FALSE(SpngDecode(bad).ok());
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 3);
  EXPECT_FALSE(SpngDecode(truncated).ok());
}

class SpngSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SpngSweepTest, LosslessAcrossSizes) {
  const int size = GetParam();
  const Image img = MakeTestImage(size, size / 2 + 1, 3,
                                  static_cast<uint64_t>(size));
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  ASSERT_OK_AND_ASSIGN(Image decoded, SpngDecode(bytes));
  EXPECT_EQ(decoded, img);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpngSweepTest,
                         ::testing::Values(1, 2, 7, 16, 33, 64, 161));

// --- SV264 -------------------------------------------------------------------------------

std::vector<Image> MakeTestVideo(int w, int h, int frames, uint64_t seed = 99) {
  // A moving bright square over a static textured background.
  std::vector<Image> video;
  const Image background = MakeTestImage(w, h, 3, seed);
  for (int f = 0; f < frames; ++f) {
    Image frame = background;
    const int cx = (f * 3) % (w - 12);
    const int cy = (f * 2) % (h - 12);
    for (int y = cy; y < cy + 12; ++y) {
      for (int x = cx; x < cx + 12; ++x) {
        frame.at(x, y, 0) = 250;
        frame.at(x, y, 1) = 240;
        frame.at(x, y, 2) = 40;
      }
    }
    video.push_back(std::move(frame));
  }
  return video;
}

TEST(Sv264Test, RoundtripSequentialDecode) {
  const auto video = MakeTestVideo(64, 48, 12);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 90, .gop = 5}));
  ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(bytes));
  EXPECT_EQ(decoder->num_frames(), 12);
  EXPECT_EQ(decoder->header().width, 64);
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK_AND_ASSIGN(Image frame, decoder->DecodeNext());
    ASSERT_OK_AND_ASSIGN(double psnr, Psnr(video[i], frame));
    EXPECT_GT(psnr, 26.0) << "frame " << i;
  }
  EXPECT_FALSE(decoder->DecodeNext().ok());  // end of stream
}

TEST(Sv264Test, RandomAccessMatchesSequential) {
  const auto video = MakeTestVideo(48, 48, 10);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 85, .gop = 4}));
  // Decode sequentially first.
  ASSERT_OK_AND_ASSIGN(auto seq, Sv264Decoder::Open(bytes));
  std::vector<Image> sequential;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Image f, seq->DecodeNext());
    sequential.push_back(std::move(f));
  }
  // Random access in scrambled order must give identical frames.
  ASSERT_OK_AND_ASSIGN(auto ra, Sv264Decoder::Open(bytes));
  for (int idx : {7, 2, 9, 0, 5, 5, 3, 8, 1, 6, 4}) {
    ASSERT_OK_AND_ASSIGN(Image f, ra->DecodeFrame(idx));
    EXPECT_EQ(f, sequential[idx]) << "frame " << idx;
  }
}

TEST(Sv264Test, SkipModeTriggersOnStaticContent) {
  // Identical frames: P-frames should be nearly all SKIP macroblocks.
  std::vector<Image> video(8, MakeTestImage(64, 64, 3));
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 80, .gop = 8}));
  ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(bytes));
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(decoder->DecodeFrame(i).status());
  }
  EXPECT_GT(decoder->stats().mbs_skipped, 7 * 10);  // 16 MBs/frame, most skip
}

TEST(Sv264Test, StaticVideoCompressesFarBetterThanIntraOnly) {
  std::vector<Image> video(8, MakeTestImage(64, 64, 3));
  ASSERT_OK_AND_ASSIGN(auto inter, Sv264Encode(video, {.quality = 80, .gop = 8}));
  ASSERT_OK_AND_ASSIGN(auto intra, Sv264Encode(video, {.quality = 80, .gop = 1}));
  EXPECT_LT(inter.size() * 2, intra.size());
}

TEST(Sv264Test, DeblockingOffIsCloseButNotIdentical) {
  const auto video = MakeTestVideo(64, 64, 10);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 40, .gop = 10}));
  ASSERT_OK_AND_ASSIGN(auto with_db, Sv264Decoder::Open(bytes));
  ASSERT_OK_AND_ASSIGN(
      auto without_db,
      Sv264Decoder::Open(bytes, Sv264Decoder::Options{.deblock = false}));
  double min_psnr = 1e18;
  bool any_differs = false;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Image a, with_db->DecodeFrame(i));
    ASSERT_OK_AND_ASSIGN(Image b, without_db->DecodeFrame(i));
    if (!(a == b)) any_differs = true;
    ASSERT_OK_AND_ASSIGN(double psnr, Psnr(video[i], b));
    min_psnr = std::min(min_psnr, psnr);
  }
  EXPECT_TRUE(any_differs);          // reduced fidelity really differs
  EXPECT_GT(min_psnr, 20.0);         // ...but stays usable
  EXPECT_EQ(without_db->stats().deblock_edges, 0);
  EXPECT_GT(with_db->stats().deblock_edges, 0);
}

TEST(Sv264Test, RandomAccessDecodesOnlyGopPrefix) {
  const auto video = MakeTestVideo(48, 48, 30);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 80, .gop = 10}));
  ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(bytes));
  ASSERT_OK(decoder->DecodeFrame(22).status());
  // Frames 20, 21, 22 decoded (I at 20), not all 23.
  EXPECT_EQ(decoder->stats().frames_decoded, 3);
}

TEST(Sv264Test, RejectsMismatchedFrames) {
  std::vector<Image> bad;
  bad.push_back(MakeTestImage(32, 32, 3));
  bad.push_back(MakeTestImage(32, 16, 3));
  EXPECT_FALSE(Sv264Encode(bad).ok());
  EXPECT_FALSE(Sv264Encode({}).ok());
}

TEST(Sv264Test, CorruptContainerRejected) {
  const auto video = MakeTestVideo(32, 32, 4);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video));
  auto bad = bytes;
  bad[2] ^= 0xFF;
  EXPECT_FALSE(Sv264Decoder::Open(bad).ok());
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_FALSE(Sv264Decoder::Open(truncated).ok());
}

// --- Format registry ------------------------------------------------------------------

TEST(FormatTest, Table4FeatureMatrix) {
  const auto& reg = FormatRegistry::Global();
  ASSERT_OK_AND_ASSIGN(auto sjpg, reg.Find("SJPG"));
  EXPECT_TRUE(sjpg.Supports(LowFidelityFeature::kPartialDecoding));
  EXPECT_EQ(sjpg.paper_analogue, "JPEG");
  ASSERT_OK_AND_ASSIGN(auto spng, reg.Find("SPNG"));
  EXPECT_TRUE(spng.Supports(LowFidelityFeature::kEarlyStopping));
  EXPECT_TRUE(spng.lossless);
  ASSERT_OK_AND_ASSIGN(auto sv264, reg.Find("SV264"));
  EXPECT_TRUE(sv264.Supports(LowFidelityFeature::kReducedFidelity));
  EXPECT_EQ(sv264.media, MediaType::kVideo);
  EXPECT_FALSE(reg.Find("GIF").ok());
  EXPECT_EQ(reg.Implemented().size(), 3u);
}

// --- Block codec primitives ----------------------------------------------------------

TEST(BlockCodecTest, ValueBitsRoundtrip) {
  for (int v = -2000; v <= 2000; ++v) {
    const int size = BitSize(v);
    if (v == 0) {
      EXPECT_EQ(size, 0);
      continue;
    }
    const uint32_t bits = EncodeValueBits(v, size);
    EXPECT_EQ(DecodeValueBits(bits, size), v) << v;
  }
}

// Random blocks covering every coding case: DC-only blocks, sparse blocks
// with long zero runs (ZRL), dense blocks, blocks whose coefficient 63 is
// nonzero (no EOB), and magnitudes up to +-2047.
std::vector<CoeffBlock> RandomCoeffBlocks(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<CoeffBlock> blocks(static_cast<size_t>(count));
  for (int b = 0; b < count; ++b) {
    CoeffBlock& cb = blocks[static_cast<size_t>(b)];
    std::fill(std::begin(cb.zz), std::end(cb.zz), int16_t{0});
    cb.zz[0] = static_cast<int16_t>(rng.UniformInt(-2047, 2047));
    const int kind = b % 5;
    if (kind == 0) continue;  // DC only
    if (kind == 4) {          // exact 16- and 32-zero runs
      cb.zz[17] = 5;
      cb.zz[50] = -3;
      continue;
    }
    const double density = kind == 1 ? 0.06 : (kind == 2 ? 0.5 : 1.0);
    for (int k = 1; k < 64; ++k) {
      if (!rng.Bernoulli(density)) continue;
      const int size = static_cast<int>(rng.UniformInt(1, 11));
      const int v =
          static_cast<int>(rng.UniformInt(1 << (size - 1), (1 << size) - 1));
      cb.zz[k] = static_cast<int16_t>(rng.Bernoulli(0.5) ? v : -v);
    }
    if (kind == 3) {
      cb.zz[63] = static_cast<int16_t>(rng.Bernoulli(0.5) ? 2047 : -2047);
    }
  }
  return blocks;
}

// Huffman tables for \p blocks. With \p skew, symbol frequencies become
// geometric so the rarer symbols get codes longer than the decode LUT.
std::pair<HuffmanTable, HuffmanTable> TablesFor(
    const std::vector<CoeffBlock>& blocks, bool skew) {
  std::vector<uint64_t> dc(17, 0), ac(256, 0);
  int pred = 0;
  for (const CoeffBlock& b : blocks) AccumulateBlockStats(b, &pred, dc, ac);
  dc[0]++;
  ac[0x00]++;
  if (skew) {
    for (int size = 0; size < 16; ++size) dc[static_cast<size_t>(size)] |= 1;
    for (auto* freq : {&dc, &ac}) {
      int rank = 0;
      for (uint64_t& f : *freq) {
        if (f > 0) f = uint64_t{1} << std::max(0, 40 - 2 * rank++);
      }
    }
  }
  return {HuffmanTable::FromFrequencies(dc).MoveValue(),
          HuffmanTable::FromFrequencies(ac).MoveValue()};
}

int MaxCodeLength(const HuffmanTable& table) {
  int longest = 0;
  for (int s = 0; s < table.alphabet_size(); ++s) {
    longest = std::max(longest, table.CodeLength(s));
  }
  return longest;
}

TEST(BlockCodecTest, DecoderInvertsEncoderExactly) {
  const std::vector<CoeffBlock> blocks = RandomCoeffBlocks(71, 400);
  for (bool skew : {false, true}) {
    const auto [dc, ac] = TablesFor(blocks, skew);
    if (skew) {
      ASSERT_GT(MaxCodeLength(dc), kHuffmanLutBits);
      ASSERT_GT(MaxCodeLength(ac), kHuffmanLutBits);
    }
    BitWriter w;
    int enc_pred = 0;
    for (const CoeffBlock& b : blocks) EncodeBlock(b, &enc_pred, dc, ac, &w);
    const std::vector<uint8_t> bytes = w.Finish();

    const BlockDecoder decoder(dc, ac);
    BitCursor cursor(bytes.data(), bytes.size(), 0);
    int dec_pred = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
      int16_t natural[64] = {};
      const int count = decoder.Decode(&cursor, &dec_pred, natural);
      ASSERT_FALSE(cursor.Overrun()) << "block " << i;
      int last = 0;
      for (int k = 0; k < 64; ++k) {
        ASSERT_EQ(natural[kZigZag[k]], blocks[i].zz[k])
            << "skew " << skew << " block " << i << " zig-zag " << k;
        if (k > 0 && blocks[i].zz[k] != 0) last = k;
      }
      ASSERT_EQ(count, last + 1) << "block " << i;
    }
    EXPECT_EQ((cursor.bit_position() + 7) / 8, bytes.size());
  }
}

// Cutting an encoded row at any bit makes its decode fail: an invalid code
// or an overrun (both Corruption in the codecs). The codecs' streams end on
// bytes, so a cut inside a byte keeps that byte's leading bits and zeros
// the rest; a decode that survives it must have read past the cut, which a
// stream ending there reports as an overrun.
TEST(BlockCodecTest, RowCutAtAnyBitFails) {
  const std::vector<CoeffBlock> blocks = RandomCoeffBlocks(72, 12);
  for (bool skew : {false, true}) {
    const auto [dc, ac] = TablesFor(blocks, skew);
    const BlockDecoder decoder(dc, ac);
    BitWriter w;
    int enc_pred = 0;
    for (const CoeffBlock& b : blocks) EncodeBlock(b, &enc_pred, dc, ac, &w);
    const std::vector<uint8_t> bytes = w.Finish();
    // Decodes the row from `data`; false as soon as a block fails.
    const auto decode_row = [&](const std::vector<uint8_t>& data,
                                size_t* bits_read) {
      BitCursor cursor(data.data(), data.size(), 0);
      int pred = 0;
      for (size_t i = 0; i < blocks.size(); ++i) {
        int16_t natural[64] = {};
        if (decoder.Decode(&cursor, &pred, natural) == 0) return false;
        if (cursor.Overrun()) return false;
      }
      *bits_read = cursor.bit_position();
      return true;
    };
    size_t row_bits = 0;
    ASSERT_TRUE(decode_row(bytes, &row_bits));
    for (size_t cut = 0; cut < row_bits; ++cut) {
      std::vector<uint8_t> data(bytes.begin(), bytes.begin() + (cut + 7) / 8);
      if (cut % 8 != 0) {
        data.back() &= static_cast<uint8_t>(0xFF << (8 - cut % 8));
      }
      size_t bits_read = 0;
      if (decode_row(data, &bits_read)) {
        ASSERT_NE(cut % 8, 0u) << "byte-aligned cut at bit " << cut;
        ASSERT_GT(bits_read, cut) << "skew " << skew;
      }
    }
  }
}

TEST(BlockCodecTest, BitSizeMatchesLog2) {
  EXPECT_EQ(BitSize(0), 0);
  EXPECT_EQ(BitSize(1), 1);
  EXPECT_EQ(BitSize(-1), 1);
  EXPECT_EQ(BitSize(2), 2);
  EXPECT_EQ(BitSize(3), 2);
  EXPECT_EQ(BitSize(-3), 2);
  EXPECT_EQ(BitSize(255), 8);
  EXPECT_EQ(BitSize(256), 9);
}

}  // namespace
}  // namespace smol
