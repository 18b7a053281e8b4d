// Tests for src/runtime: the pipelined engine end-to-end (real codecs, real
// preprocessing, simulated accelerator), the lesion toggles, pipelining's
// min-throughput behaviour, and the baseline configurations.
#include <gtest/gtest.h>

#include <memory>

#include "src/codec/sjpg.h"
#include "src/codec/spng.h"
#include "src/runtime/baselines.h"
#include "src/runtime/engine.h"
#include "tests/test_util.h"

namespace smol {
namespace {

using smol::testing::MakeTestImage;

// Shared fixture: a handful of SJPG-encoded images plus an engine factory.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 32; ++i) {
      const Image img = MakeTestImage(96, 96, 3, 100 + i);
      auto encoded = SjpgEncode(img, {.quality = 85});
      ASSERT_TRUE(encoded.ok());
      encoded_.push_back(std::move(encoded).MoveValue());
    }
    for (auto& bytes : encoded_) {
      WorkItem item;
      item.bytes = &bytes;
      items_.push_back(item);
    }
    spec_.input_width = 96;
    spec_.input_height = 96;
    spec_.resize_short_side = 72;
    spec_.crop_width = 64;
    spec_.crop_height = 64;
  }

  std::shared_ptr<SimAccelerator> MakeAccel(double throughput) {
    SimAccelerator::Options opts;
    opts.dnn_throughput_ims = throughput;
    return std::make_shared<SimAccelerator>(opts);
  }

  static Result<Image> DecodeSjpg(const WorkItem& item) {
    SjpgDecodeOptions opts;
    opts.roi = item.roi;
    return SjpgDecode(*item.bytes, opts);
  }

  std::vector<std::vector<uint8_t>> encoded_;
  std::vector<WorkItem> items_;
  PipelineSpec spec_;
};

TEST_F(EngineTest, ProcessesAllImages) {
  EngineOptions opts;
  opts.batch_size = 8;
  Engine engine(opts, spec_, DecodeSjpg, MakeAccel(100000.0));
  ASSERT_OK_AND_ASSIGN(EngineStats stats, engine.Run(items_));
  EXPECT_EQ(stats.images, items_.size());
  EXPECT_GT(stats.throughput_ims, 0.0);
  EXPECT_EQ(stats.accel_stats.images, items_.size());
}

TEST_F(EngineTest, DagToggleChangesCompiledPlan) {
  EngineOptions on;
  Engine opt_engine(on, spec_, DecodeSjpg, MakeAccel(1e5));
  EngineOptions off;
  off.enable_dag_opt = false;
  Engine ref_engine(off, spec_, DecodeSjpg, MakeAccel(1e5));
  EXPECT_LT(opt_engine.plan().estimated_cost,
            ref_engine.plan().estimated_cost);
  // The reference plan is the naive §2 ordering (6 steps, no fusion).
  bool has_fused = false;
  for (const auto& s : ref_engine.plan().steps) {
    has_fused |= (s.kind == OpKind::kFusedTail);
  }
  EXPECT_FALSE(has_fused);
}

// In-flight work is bounded (2 producers, 2-deep queues, two 4-sample
// batches) far below the 32 items, so with reuse on, buffers must recycle.
TEST_F(EngineTest, MemoryReuseToggleVisibleInStats) {
  EngineOptions on;
  on.batch_size = 4;
  on.num_producers = 2;
  on.queue_capacity = 2;
  Engine reuse_engine(on, spec_, DecodeSjpg, MakeAccel(1e5));
  ASSERT_OK_AND_ASSIGN(EngineStats with_reuse, reuse_engine.Run(items_));
  EngineOptions off = on;
  off.enable_memory_reuse = false;
  Engine fresh_engine(off, spec_, DecodeSjpg, MakeAccel(1e5));
  ASSERT_OK_AND_ASSIGN(EngineStats without_reuse, fresh_engine.Run(items_));
  EXPECT_GT(with_reuse.buffer_stats.reuses, 0u);
  EXPECT_EQ(without_reuse.buffer_stats.reuses, 0u);
  EXPECT_GT(without_reuse.buffer_stats.allocations,
            with_reuse.buffer_stats.allocations);
}

TEST_F(EngineTest, ThreadingToggleForcesSingleProducer) {
  EngineOptions off;
  off.enable_threading = false;
  off.num_producers = 8;  // overridden by the toggle
  Engine engine(off, spec_, DecodeSjpg, MakeAccel(1e5));
  ASSERT_OK_AND_ASSIGN(EngineStats stats, engine.Run(items_));
  EXPECT_EQ(stats.images, items_.size());
}

// The cost-model-defining property (§4, Eq. 4): with a slow accelerator, the
// pipeline is DNN-bound and e2e throughput tracks the accelerator, not the
// sum of stage times.
TEST_F(EngineTest, PipelinedThroughputApproachesMin) {
  // DNN at 200 im/s is far slower than our real preprocessing here.
  EngineOptions opts;
  opts.batch_size = 8;
  auto accel = MakeAccel(200.0);
  Engine engine(opts, spec_, DecodeSjpg, accel);
  ASSERT_OK_AND_ASSIGN(EngineStats stats, engine.Run(items_));
  // Throughput should be near 200 im/s (within pipeline warmup slack),
  // and decisively above what the no-pipelining sum model would predict if
  // preprocessing were serialized with execution.
  EXPECT_GT(stats.throughput_ims, 200.0 * 0.6);
  EXPECT_LT(stats.throughput_ims, 200.0 * 1.3);
}

// The device-count axis: num_devices > 1 replicates the constructor
// accelerator into a homogeneous fleet behind the same Run() call. Every
// image still completes exactly once, and the rolled-up device counters
// account for all of them (the per-device split is exercised in
// serving_test; the modeled scaling curve in bench_serving).
TEST_F(EngineTest, MultiDeviceRunCompletesAllImagesOnce) {
  EngineOptions opts;
  opts.batch_size = 4;
  opts.num_devices = 3;
  Engine engine(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  ASSERT_OK_AND_ASSIGN(EngineStats stats, engine.Run(items_));
  EXPECT_EQ(stats.images, items_.size());
  EXPECT_EQ(stats.accel_stats.images, items_.size());
  EXPECT_EQ(stats.accel_stats.bytes,
            items_.size() * 64ull * 64ull * 3ull * sizeof(float));
}

TEST_F(EngineTest, RoiDecodingReducesDecodeTime) {
  std::vector<WorkItem> roi_items = items_;
  for (auto& item : roi_items) {
    item.roi = Roi::CenterCrop(96, 96, 48, 48);
  }
  PipelineSpec roi_spec = spec_;
  roi_spec.input_width = 48;
  roi_spec.input_height = 48;
  roi_spec.resize_short_side = 48;
  roi_spec.crop_width = 48;
  roi_spec.crop_height = 48;
  EngineOptions opts;
  Engine full_engine(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  ASSERT_OK_AND_ASSIGN(EngineStats full, full_engine.Run(items_));
  Engine roi_engine(opts, roi_spec, DecodeSjpg, MakeAccel(1e5));
  ASSERT_OK_AND_ASSIGN(EngineStats roi, roi_engine.Run(roi_items));
  EXPECT_LT(roi.decode_seconds, full.decode_seconds);
}

TEST_F(EngineTest, DecodeErrorsPropagate) {
  std::vector<uint8_t> garbage = {1, 2, 3, 4};
  WorkItem bad;
  bad.bytes = &garbage;
  EngineOptions opts;
  Engine engine(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  auto result = engine.Run({bad});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(EngineTest, EmptyInputRejected) {
  EngineOptions opts;
  Engine engine(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  EXPECT_FALSE(engine.Run({}).ok());
}

// --- Baselines -----------------------------------------------------------------------

TEST(BaselineTest, OptionsEncodeStructuralLimitations) {
  const auto smol = BaselineEngineOptions(RuntimeBaseline::kSmol, 4);
  EXPECT_TRUE(smol.enable_memory_reuse);
  EXPECT_TRUE(smol.enable_dag_opt);
  const auto dali = BaselineEngineOptions(RuntimeBaseline::kDaliLike, 4);
  EXPECT_FALSE(dali.enable_memory_reuse);  // training-loader contract
  EXPECT_FALSE(dali.enable_dag_opt);
  EXPECT_TRUE(dali.enable_pinned);  // DALI does pin memory
  const auto pytorch = BaselineEngineOptions(RuntimeBaseline::kPyTorchLike, 4);
  EXPECT_FALSE(pytorch.enable_pinned);
}

TEST(BaselineTest, OverheadAndDnnFactors) {
  EXPECT_EQ(BaselinePerImageOverheadUs(RuntimeBaseline::kSmol), 0.0);
  EXPECT_GT(BaselinePerImageOverheadUs(RuntimeBaseline::kDaliLike), 0.0);
  EXPECT_GT(BaselinePerImageOverheadUs(RuntimeBaseline::kPyTorchLike),
            BaselinePerImageOverheadUs(RuntimeBaseline::kDaliLike));
  // PyTorch forgoes the optimized inference compiler (Table 1 ratio).
  EXPECT_NEAR(BaselineDnnThroughputFactor(RuntimeBaseline::kPyTorchLike),
              424.0 / 4513.0, 1e-9);
  EXPECT_EQ(BaselineDnnThroughputFactor(RuntimeBaseline::kDaliLike), 1.0);
}

}  // namespace
}  // namespace smol
