// Tests for src/hw: device specs, throughput models, price/power math,
// transfer model, and the simulated accelerator's timing behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/hw/device.h"
#include "src/hw/fleet.h"
#include "src/hw/sim_accelerator.h"
#include "src/hw/throughput_model.h"
#include "src/hw/transfer.h"
#include "src/util/stopwatch.h"
#include "tests/test_util.h"

namespace smol {
namespace {

// --- Device specs (Table 5 calibration) ---------------------------------------

TEST(DeviceTest, Table5CalibrationValues) {
  ASSERT_OK_AND_ASSIGN(GpuSpec k80, FindGpu(GpuModel::kK80));
  EXPECT_DOUBLE_EQ(k80.resnet50_throughput, 159.0);
  ASSERT_OK_AND_ASSIGN(GpuSpec t4, FindGpu(GpuModel::kT4));
  EXPECT_DOUBLE_EQ(t4.resnet50_throughput, 4513.0);
  ASSERT_OK_AND_ASSIGN(GpuSpec rtx, FindGpu(GpuModel::kRtx));
  EXPECT_DOUBLE_EQ(rtx.resnet50_throughput, 15008.0);
  // The paper's headline: >94x improvement from the K80 to the RTX-class.
  EXPECT_GT(rtx.resnet50_throughput / k80.resnet50_throughput, 94.0);
  // T4 is the power-efficient inference part.
  ASSERT_OK_AND_ASSIGN(GpuSpec v100, FindGpu(GpuModel::kV100));
  EXPECT_LT(t4.power_watts, v100.power_watts);
}

TEST(DeviceTest, InstancePriceDecomposition) {
  const InstanceSpec g4 = InstanceSpec::G4dnXlarge();
  // §7: T4 $0.218/hr + 4 x $0.0639/hr.
  EXPECT_NEAR(g4.HourlyPriceUsd(), 0.218 + 4 * 0.0639, 1e-9);
  // ~3.4 vCPUs cost the same as the T4 (§7's balance point).
  EXPECT_NEAR(InstanceSpec::kGpuHourlyUsd / InstanceSpec::kVcpuHourlyUsd, 3.4,
              0.05);
}

TEST(DeviceTest, EffectiveCoresSublinearInHyperthreads) {
  EXPECT_DOUBLE_EQ(EffectiveCores(0), 0.0);
  EXPECT_GT(EffectiveCores(4), 2.0);   // better than physical cores alone
  EXPECT_LT(EffectiveCores(4), 4.0);   // worse than linear in vCPUs
  EXPECT_LT(EffectiveCores(8), 2 * EffectiveCores(4) + 1e-9);
  // Monotone.
  for (int v = 1; v < 64; ++v) {
    EXPECT_LT(EffectiveCores(v), EffectiveCores(v + 1));
  }
}

TEST(DeviceTest, CostScalesInverselyWithThroughput) {
  const InstanceSpec g4 = InstanceSpec::G4dnXlarge();
  const double slow = CentsPerMillionImages(g4, 500.0);
  const double fast = CentsPerMillionImages(g4, 5000.0);
  EXPECT_NEAR(slow / fast, 10.0, 1e-6);
  EXPECT_GT(slow, 0.0);
}

// --- DNN throughput model -------------------------------------------------------

TEST(DnnThroughputTest, Table1FrameworkLadder) {
  DnnThroughputModel model;
  ASSERT_OK_AND_ASSIGN(
      double keras,
      model.Throughput("resnet50", GpuModel::kT4, 64, Framework::kKeras));
  ASSERT_OK_AND_ASSIGN(
      double pytorch,
      model.Throughput("resnet50", GpuModel::kT4, 64, Framework::kPyTorch));
  ASSERT_OK_AND_ASSIGN(
      double trt,
      model.Throughput("resnet50", GpuModel::kT4, 64, Framework::kTensorRt));
  // Table 1: 243 / 424 / 4513 (batch efficiency at 64 is ~1 by calibration).
  EXPECT_NEAR(keras, 243.0, 243.0 * 0.02);
  EXPECT_NEAR(pytorch, 424.0, 424.0 * 0.02);
  EXPECT_NEAR(trt, 4513.0, 4513.0 * 0.02);
  // The >17x software gap the paper highlights.
  EXPECT_GT(trt / keras, 17.0);
}

TEST(DnnThroughputTest, Table2ResnetLadder) {
  DnnThroughputModel model;
  ASSERT_OK_AND_ASSIGN(double r18, model.Throughput("resnet18", GpuModel::kT4));
  ASSERT_OK_AND_ASSIGN(double r34, model.Throughput("resnet34", GpuModel::kT4));
  ASSERT_OK_AND_ASSIGN(double r50, model.Throughput("resnet50", GpuModel::kT4));
  EXPECT_GT(r18, r34);
  EXPECT_GT(r34, r50);
  EXPECT_NEAR(r18, 12592.0, 12592.0 * 0.02);
}

TEST(DnnThroughputTest, DeviceScalingAnchoredOnResnet50) {
  DnnThroughputModel model;
  ASSERT_OK_AND_ASSIGN(double on_k80,
                       model.Throughput("resnet50", GpuModel::kK80));
  EXPECT_NEAR(on_k80, 159.0, 159.0 * 0.02);
}

TEST(DnnThroughputTest, BatchEfficiencyMonotone) {
  EXPECT_LT(DnnThroughputModel::BatchEfficiency(1),
            DnnThroughputModel::BatchEfficiency(8));
  EXPECT_LT(DnnThroughputModel::BatchEfficiency(8),
            DnnThroughputModel::BatchEfficiency(64));
  EXPECT_NEAR(DnnThroughputModel::BatchEfficiency(64), 1.0, 1e-9);
}

TEST(DnnThroughputTest, MacsRuleMatchesResnet50Anchor) {
  DnnThroughputModel model;
  const double ims = model.ThroughputFromMacs(4.09e9, GpuModel::kT4);
  EXPECT_NEAR(ims, 4513.0, 4513.0 * 0.02);
  // Tiny models are capped at the specialized-NN ceiling (§5.1).
  EXPECT_LE(model.ThroughputFromMacs(1e3, GpuModel::kT4),
            DnnThroughputModel::kMaxSmallModelIms + 1.0);
  EXPECT_FALSE(model.Throughput("vgg-9000", GpuModel::kT4).ok());
}

// --- Preprocessing throughput model ----------------------------------------------

TEST(PreprocModelTest, Figure1StageBreakdown) {
  const auto costs =
      PreprocThroughputModel::StageCostsFor(PreprocFormat::kFullResJpeg);
  // Figure 1's bars: decode 1668 us, resize 201 us, normalize 125 us.
  EXPECT_DOUBLE_EQ(costs.decode_us, 1668.0);
  EXPECT_DOUBLE_EQ(costs.resize_us, 201.0);
  EXPECT_DOUBLE_EQ(costs.normalize_us, 125.0);
  // Decode dominates preprocessing.
  EXPECT_GT(costs.decode_us, costs.resize_us + costs.normalize_us);
}

TEST(PreprocModelTest, PreprocessingIsTheBottleneckOnT4) {
  // §2's headline: ResNet-50 executes ~9x faster than CPU preprocessing on
  // the cost-balanced instance.
  const double preproc =
      PreprocThroughputModel::Throughput(PreprocFormat::kFullResJpeg, 4);
  DnnThroughputModel dnn;
  const double exec = dnn.Throughput("resnet50", GpuModel::kT4).value();
  EXPECT_GT(exec / preproc, 7.0);
  EXPECT_LT(exec / preproc, 12.0);
}

TEST(PreprocModelTest, ThumbnailsDecodeFaster) {
  const double full =
      PreprocThroughputModel::Throughput(PreprocFormat::kFullResJpeg, 4);
  const double thumb_png =
      PreprocThroughputModel::Throughput(PreprocFormat::kThumbnailPng, 4);
  const double thumb_jpeg =
      PreprocThroughputModel::Throughput(PreprocFormat::kThumbnailJpeg, 4);
  // §5.2: thumbnails are ~3.8x faster; lossy thumbnails are the fastest.
  EXPECT_GT(thumb_png / full, 2.5);
  EXPECT_GT(thumb_jpeg, thumb_png);
}

TEST(PreprocModelTest, VcpuScalingSublinear) {
  const double at4 =
      PreprocThroughputModel::Throughput(PreprocFormat::kFullResJpeg, 4);
  const double at8 =
      PreprocThroughputModel::Throughput(PreprocFormat::kFullResJpeg, 8);
  const double at16 =
      PreprocThroughputModel::Throughput(PreprocFormat::kFullResJpeg, 16);
  EXPECT_GT(at8, at4);
  EXPECT_GT(at16, at8);
  EXPECT_NEAR(at8 / at4, 2.0, 0.2);  // doubling vCPUs ~ doubles throughput
}

TEST(PreprocModelTest, RoiDecodingScalesWithFraction) {
  const double full = PreprocThroughputModel::ThroughputWithRoi(
      PreprocFormat::kFullResJpeg, 4, 1.0);
  const double half = PreprocThroughputModel::ThroughputWithRoi(
      PreprocFormat::kFullResJpeg, 4, 0.5);
  const double tenth = PreprocThroughputModel::ThroughputWithRoi(
      PreprocFormat::kFullResJpeg, 4, 0.1);
  EXPECT_GT(half, full);
  EXPECT_GT(tenth, half);
  // Entropy-decode floor: even a tiny ROI does not go to infinity.
  EXPECT_LT(tenth, full * 8.0);
  // Full ROI equals the plain path.
  EXPECT_NEAR(full,
              PreprocThroughputModel::Throughput(PreprocFormat::kFullResJpeg, 4),
              1.0);
}

// --- Transfer model -----------------------------------------------------------------

TEST(TransferTest, PinnedBeatsPageable) {
  TransferModel model;
  const size_t batch_bytes = 64 * 224 * 224 * 3 * 4;  // f32 batch
  const double pinned = model.TransferMicros(batch_bytes, true);
  const double pageable = model.TransferMicros(batch_bytes, false);
  EXPECT_LT(pinned, pageable);
  EXPECT_GT(pageable / pinned, 1.5);
}

TEST(TransferTest, LatencyFloorForTinyTransfers) {
  TransferModel model;
  EXPECT_GE(model.TransferMicros(1, true), model.latency_us);
}

// --- SimAccelerator -------------------------------------------------------------------

TEST(SimAcceleratorTest, ServiceTimeMatchesThroughput) {
  SimAccelerator::Options opts;
  opts.dnn_throughput_ims = 10000.0;  // 100 us / image
  opts.time_scale = 1.0;
  SimAccelerator accel(opts);
  Stopwatch sw;
  accel.ExecuteBatch(100, 1000, true);  // modeled 10 ms compute
  const double elapsed = sw.ElapsedSeconds();
  EXPECT_GT(elapsed, 0.008);
  EXPECT_LT(elapsed, 0.08);
  EXPECT_EQ(accel.stats().images, 100u);
  EXPECT_EQ(accel.stats().batches, 1u);
}

TEST(SimAcceleratorTest, ConcurrentBatchesSerializeOnComputeEngine) {
  SimAccelerator::Options opts;
  opts.dnn_throughput_ims = 5000.0;  // 200 us / image
  SimAccelerator accel(opts);
  Stopwatch sw;
  std::thread a([&] { accel.ExecuteBatch(50, 100, true); });
  std::thread b([&] { accel.ExecuteBatch(50, 100, true); });
  a.join();
  b.join();
  // Two 10 ms batches must serialize: >= ~20 ms total.
  EXPECT_GT(sw.ElapsedSeconds(), 0.018);
}

// Back-to-back batches book the device timeline, so k of them never finish
// sooner than k x their modelled cost: transfer + compute each on a single
// stream; with copy/compute overlap, every compute (and every transfer) in
// series.
TEST(SimAcceleratorTest, BackToBackBatchesNeverBeatModelledCost) {
  for (int streams : {1, 4}) {
    for (int threads : {1, 2}) {
      SimAccelerator::Options opts;
      opts.dnn_throughput_ims = 20000.0;  // 50 us / image
      opts.num_streams = streams;
      SimAccelerator accel(opts);
      const int k = 24;
      Stopwatch sw;
      std::vector<std::thread> submitters;
      for (int t = 0; t < threads; ++t) {
        submitters.emplace_back([&] {
          for (int i = 0; i < k / threads; ++i) {
            accel.ExecuteBatch(4, 4 * 150528, true, 4);
          }
        });
      }
      for (auto& t : submitters) t.join();
      accel.Drain();
      const double elapsed = sw.ElapsedSeconds();
      const SimAccelerator::Stats stats = accel.stats();
      ASSERT_EQ(stats.batches, static_cast<uint64_t>(k));
      const double modelled =
          streams == 1
              ? stats.compute_seconds + stats.transfer_seconds
              : std::max(stats.compute_seconds, stats.transfer_seconds);
      EXPECT_GE(elapsed, modelled)
          << "streams " << streams << " threads " << threads;
    }
  }
}

TEST(SimAcceleratorTest, GpuPreprocAddsDeviceTime) {
  SimAccelerator::Options with;
  with.dnn_throughput_ims = 10000.0;
  with.gpu_preproc_throughput_ims = 10000.0;
  SimAccelerator accel(with);
  accel.ExecuteBatch(100, 100, true);
  // 100 images * (100us + 100us) = 20 ms of modeled compute.
  EXPECT_NEAR(accel.stats().compute_seconds, 0.02, 1e-6);
}

TEST(SimAcceleratorTest, TimeScaleShrinksRealTimeNotModeledTime) {
  SimAccelerator::Options opts;
  opts.dnn_throughput_ims = 1000.0;
  opts.time_scale = 0.01;  // 100x faster than real time
  SimAccelerator accel(opts);
  Stopwatch sw;
  accel.ExecuteBatch(100, 100, true);  // modeled 100 ms
  EXPECT_LT(sw.ElapsedSeconds(), 0.05);
  EXPECT_NEAR(accel.stats().compute_seconds, 0.1, 1e-6);
}

// --- Device interface + fleets --------------------------------------------------------

// SimAccelerator is usable purely through the Device interface: submit,
// drain, stats, capacity, name — no concrete type needed by callers.
TEST(DeviceInterfaceTest, SimAcceleratorBehindDevicePointer) {
  SimAccelerator::Options opts;
  opts.dnn_throughput_ims = 1e5;
  opts.name = "dev0";
  std::shared_ptr<Device> device = std::make_shared<SimAccelerator>(opts);
  device->ExecuteBatch(8, 64, true, 8);
  device->Drain();  // all submitted work is retired after Drain returns
  const DeviceStats stats = device->stats();
  EXPECT_EQ(stats.images, 8u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.chunks, 8u);
  EXPECT_EQ(device->name(), "dev0");
  EXPECT_NEAR(device->capacity_ims(), 1e5, 1e-6);
}

// The device name defaults to the modeled GPU, and capacity folds in the
// optional on-device preprocessing stage (serial with the DNN).
TEST(DeviceInterfaceTest, CapacityFoldsInGpuPreprocStage) {
  SimAccelerator::Options opts;
  opts.dnn_throughput_ims = 10000.0;
  SimAccelerator plain(opts);
  EXPECT_NEAR(plain.capacity_ims(), 10000.0, 1e-6);
  opts.gpu_preproc_throughput_ims = 10000.0;  // equal time in preproc
  SimAccelerator fused(opts);
  EXPECT_NEAR(fused.capacity_ims(), 5000.0, 1e-6);
}

// Satellite: a fleet can be built from every catalogued GpuSpec, and each
// device's modeled capacity matches the Table 5 calibration for resnet50.
TEST(FleetTest, MakeSimFleetCoversEveryGpuSpec) {
  for (const GpuSpec& spec : AllGpuSpecs()) {
    auto fleet = MakeSimFleet({spec.model});
    ASSERT_TRUE(fleet.ok()) << spec.name;
    ASSERT_EQ(fleet.value().size(), 1u);
    const Device& device = *fleet.value()[0];
    EXPECT_EQ(device.name(), spec.name + "#0");
    // SimFleetOptions defaults: resnet50 @ batch 64 under TensorRT, which is
    // exactly the Table 5 calibration anchor.
    EXPECT_NEAR(device.capacity_ims(), spec.resnet50_throughput,
                spec.resnet50_throughput * 0.02)
        << spec.name;
  }
}

// The §7 pitch: a heterogeneous fleet in one line.
TEST(FleetTest, MixedFleetInOneLine) {
  ASSERT_OK_AND_ASSIGN(
      auto fleet,
      MakeSimFleet({GpuModel::kK80, GpuModel::kT4, GpuModel::kV100}));
  ASSERT_EQ(fleet.size(), 3u);
  EXPECT_EQ(fleet[0]->name(), "K80#0");
  EXPECT_EQ(fleet[1]->name(), "T4#1");
  EXPECT_EQ(fleet[2]->name(), "V100#2");
  // Capacities preserve the Table 5 ordering.
  EXPECT_LT(fleet[0]->capacity_ims(), fleet[1]->capacity_ims());
  EXPECT_LT(fleet[1]->capacity_ims(), fleet[2]->capacity_ims());
}

TEST(FleetTest, RejectsEmptyAndUnknown) {
  EXPECT_FALSE(MakeSimFleet({}).ok());
  SimFleetOptions bad_arch;
  bad_arch.arch = "vgg-9000";
  EXPECT_FALSE(MakeSimFleet({GpuModel::kT4}, bad_arch).ok());
}

TEST(FleetTest, HomogeneousFleetReplicatesOptions) {
  SimAccelerator::Options base;
  base.dnn_throughput_ims = 1234.0;
  base.name = "sim";
  const auto fleet = MakeHomogeneousFleet(3, base);
  ASSERT_EQ(fleet.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet[static_cast<size_t>(i)]->name(),
              "sim#" + std::to_string(i));
    EXPECT_NEAR(fleet[static_cast<size_t>(i)]->capacity_ims(), 1234.0, 1e-6);
  }
  // Degenerate count clamps to one device instead of an empty fleet.
  EXPECT_EQ(MakeHomogeneousFleet(0, base).size(), 1u);
}

}  // namespace
}  // namespace smol
