// Randomized property tests for cross-cutting invariants (parameterized
// sweeps over seeds). These target the properties the paper's optimizations
// silently rely on:
//   * SJPG ROI decode == full decode crop, for arbitrary ROIs.
//   * Mutated SJPG streams fail with a codec status, never a crash.
//   * SPNG is lossless for arbitrary content.
//   * The min estimate never exceeds either stage rate and always
//     upper-bounds the sum estimate.
//   * The optimizer's selected plan is never dominated.
//   * The DAG optimizer's cost model ranks plans consistently with the
//     measured execution cost ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/codec/sjpg.h"
#include "src/codec/spng.h"
#include "src/core/cost_model.h"
#include "src/core/optimizer.h"
#include "src/preproc/graph.h"
#include "src/util/stopwatch.h"
#include "tests/sjpg_band_testing.h"
#include "tests/test_util.h"

namespace smol {
namespace {

using smol::testing::MakeNoiseImage;
using smol::testing::MakeTestImage;

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededPropertyTest, SjpgRandomRoiMatchesFullDecodeCrop) {
  Rng rng(GetParam() * 7 + 1);
  const int w = 48 + static_cast<int>(rng.Uniform(160));
  const int h = 48 + static_cast<int>(rng.Uniform(160));
  const Image img = MakeTestImage(w, h, 3, GetParam());
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 80}));
  ASSERT_OK_AND_ASSIGN(Image full, SjpgDecode(bytes));
  for (int trial = 0; trial < 4; ++trial) {
    Roi roi;
    roi.width = 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(w)));
    roi.height = 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(h)));
    roi.x = static_cast<int>(rng.Uniform(static_cast<uint64_t>(w - roi.width + 1)));
    roi.y = static_cast<int>(rng.Uniform(static_cast<uint64_t>(h - roi.height + 1)));
    SjpgDecodeOptions opts;
    opts.roi = roi;
    ASSERT_OK_AND_ASSIGN(Image partial, SjpgDecode(bytes, opts));
    ASSERT_OK_AND_ASSIGN(Image reference, CropImage(full, roi));
    ASSERT_EQ(partial, reference)
        << "seed " << GetParam() << " roi {" << roi.x << "," << roi.y << ","
        << roi.width << "," << roi.height << "} in " << w << "x" << h;
  }
}

// Seeded mutations (byte flips and truncations) of SJPG streams, decoded at
// every scale and with an ROI and early stop, never crash (the sanitizer
// tier runs this too): a failure is Corruption, OutOfRange or
// InvalidArgument, a success has the dimensions the mutated header
// declares, and banded decodes give the same status as the one-band one.
TEST_P(SeededPropertyTest, SjpgMutatedStreamsFailCleanly) {
  Rng rng(GetParam() * 53 + 11);
  const int w = 8 + static_cast<int>(rng.Uniform(90));
  const int h = 8 + static_cast<int>(rng.Uniform(90));
  const int channels = rng.Bernoulli(0.25) ? 1 : 3;
  const Image img = MakeTestImage(w, h, channels, GetParam());
  ASSERT_OK_AND_ASSIGN(
      auto bytes,
      SjpgEncode(img, {.quality = 30 + static_cast<int>(rng.Uniform(66))}));
  Image out;
  testing::SjpgBandChecker checker;
  for (int trial = 0; trial < 96; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    if (trial % 4 == 0) {
      mutated.resize(rng.Uniform(mutated.size()));
    } else {
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.Uniform(mutated.size())] ^=
            static_cast<uint8_t>(1u << rng.Uniform(8));
      }
    }
    SjpgDecodeOptions opts;
    const int variant = trial % 6;
    if (variant < 4) opts.scale_denom = 1 << variant;
    if (variant == 4) opts.roi = Roi{3, 5, w / 2 + 1, h / 3 + 1};
    if (variant == 5) opts.max_rows = h / 2 + 1;
    const Status st = SjpgDecodeInto(mutated, opts, &out);
    // Banded decodes report the same status (and stats and pixels).
    checker.Check(mutated, opts, "trial " + std::to_string(trial));
    if (!st.ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kCorruption ||
                  st.code() == StatusCode::kOutOfRange ||
                  st.code() == StatusCode::kInvalidArgument)
          << "trial " << trial << ": " << st.ToString();
      continue;
    }
    ASSERT_OK_AND_ASSIGN(SjpgHeader hdr, SjpgPeekHeader(mutated));
    int want_w = (hdr.width + opts.scale_denom - 1) / opts.scale_denom;
    int want_h = (hdr.height + opts.scale_denom - 1) / opts.scale_denom;
    if (variant == 4) {
      want_w = opts.roi.width;
      want_h = opts.roi.height;
    } else if (variant == 5) {
      want_h = std::min(opts.max_rows, hdr.height);
    }
    EXPECT_EQ(out.width(), want_w) << "trial " << trial;
    EXPECT_EQ(out.height(), want_h) << "trial " << trial;
    EXPECT_EQ(out.channels(), hdr.channels) << "trial " << trial;
  }
}

TEST_P(SeededPropertyTest, SpngLosslessOnMixedContent) {
  Rng rng(GetParam() * 13 + 5);
  const int w = 1 + static_cast<int>(rng.Uniform(120));
  const int h = 1 + static_cast<int>(rng.Uniform(120));
  const int c = rng.Bernoulli(0.5) ? 1 : 3;
  const Image img = rng.Bernoulli(0.3) ? MakeNoiseImage(w, h, c, GetParam())
                                       : MakeTestImage(w, h, c, GetParam());
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  ASSERT_OK_AND_ASSIGN(Image decoded, SpngDecode(bytes));
  ASSERT_EQ(decoded, img);
}

TEST_P(SeededPropertyTest, MinEstimateBoundsHold) {
  Rng rng(GetParam() * 31 + 9);
  for (int trial = 0; trial < 20; ++trial) {
    CostModelInputs inputs;
    inputs.preproc_throughput_ims = rng.UniformDouble(50.0, 20000.0);
    const int stages = 1 + static_cast<int>(rng.Uniform(3));
    for (int s = 0; s < stages; ++s) {
      inputs.cascade.push_back({"m", rng.UniformDouble(100.0, 50000.0),
                                rng.UniformDouble(0.0, 1.0)});
    }
    inputs.cascade.back().pass_through_rate = 1.0;
    ASSERT_OK_AND_ASSIGN(double mn,
                         CostModel::Estimate(CostModelKind::kSmolMin, inputs));
    ASSERT_OK_AND_ASSIGN(
        double sum, CostModel::Estimate(CostModelKind::kTahomaSum, inputs));
    ASSERT_OK_AND_ASSIGN(
        double dnn,
        CostModel::Estimate(CostModelKind::kBlazeItDnnOnly, inputs));
    // min never exceeds either stage rate...
    EXPECT_LE(mn, inputs.preproc_throughput_ims + 1e-9);
    EXPECT_LE(mn, dnn + 1e-9);
    // ...and pipelining can only beat serialization.
    EXPECT_GE(mn, sum - 1e-9);
  }
}

TEST_P(SeededPropertyTest, SelectedPlanIsNeverDominated) {
  Rng rng(GetParam() * 41 + 3);
  SmolOptimizer::Inputs inputs;
  const int models = 2 + static_cast<int>(rng.Uniform(4));
  for (int m = 0; m < models; ++m) {
    CandidateModel cand;
    cand.name = "m" + std::to_string(m);
    cand.exec_throughput_ims = rng.UniformDouble(1000.0, 20000.0);
    for (int f = 0; f < 5; ++f) {
      cand.accuracy_by_format.push_back(rng.UniformDouble(0.5, 0.99));
    }
    inputs.models.push_back(cand);
  }
  inputs.formats = {{StorageFormat::kFullSpng, rng.UniformDouble(300, 900)},
                    {StorageFormat::kThumbSpng, rng.UniformDouble(1000, 3000)},
                    {StorageFormat::kThumbSjpgQ75,
                     rng.UniformDouble(3000, 8000)}};
  ASSERT_OK_AND_ASSIGN(auto all, SmolOptimizer::GeneratePlans(inputs));
  ASSERT_OK_AND_ASSIGN(QueryPlan chosen, SmolOptimizer::SelectPlan(inputs, {}));
  for (const auto& other : all) {
    EXPECT_FALSE(Dominates(other, chosen))
        << other.ToString() << " dominates " << chosen.ToString();
  }
}

TEST_P(SeededPropertyTest, DagCostOrderingMatchesMeasuredOrdering) {
  // The arithmetic-op cost model must rank the optimized plan at least as
  // fast as the reference plan in reality (on a decisively large image).
  const PipelineSpec spec = [] {
    PipelineSpec s;
    s.input_width = 192;
    s.input_height = 192;
    s.resize_short_side = 144;
    s.crop_width = 128;
    s.crop_height = 128;
    return s;
  }();
  const Image img = MakeTestImage(192, 192, 3, GetParam());
  ASSERT_OK_AND_ASSIGN(PreprocPlan best, PreprocOptimizer::Optimize(spec));
  const PreprocPlan reference = PreprocOptimizer::ReferencePlan(spec);
  ASSERT_LT(best.estimated_cost, reference.estimated_cost);
  auto time_plan_once = [&](const PreprocPlan& plan) {
    Stopwatch sw;
    for (int i = 0; i < 20; ++i) {
      auto out = ExecutePlan(plan, spec, img);
      EXPECT_TRUE(out.ok());
    }
    return sw.ElapsedMicros();
  };
  // Interleaved best-of-3 so host scheduling noise hits both plans equally.
  (void)ExecutePlan(best, spec, img);       // warm up
  (void)ExecutePlan(reference, spec, img);  // warm up
  double best_us = 1e18, ref_us = 1e18;
  for (int round = 0; round < 3; ++round) {
    best_us = std::min(best_us, time_plan_once(best));
    ref_us = std::min(ref_us, time_plan_once(reference));
  }
  // Generous margin: the claim is ordering, not exact ratio.
  EXPECT_LT(best_us, ref_us * 1.15)
      << "optimized " << best_us << "us vs reference " << ref_us << "us";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace smol
