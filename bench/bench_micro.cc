// Micro-benchmarks (google-benchmark) for the hot paths: codecs, fused vs
// unfused preprocessing, MPMC queue, DCT, GEMM, resize. These are the
// ablation knobs DESIGN.md calls out, measured in isolation.
#include <benchmark/benchmark.h>

#include <thread>

#include "src/codec/dct.h"
#include "src/codec/sjpg.h"
#include "src/codec/spng.h"
#include "src/data/synth_image.h"
#include "src/dnn/gemm.h"
#include "src/preproc/fused.h"
#include "src/preproc/ops.h"
#include "src/util/band_crew.h"
#include "src/util/cpu_features.h"
#include "src/util/mpmc_queue.h"
#include "src/util/rng.h"
#include "tests/band_crew_testing.h"

namespace smol {
namespace {

Image BenchImage(int size) {
  SynthImageOptions opts;
  opts.width = size;
  opts.height = size;
  opts.num_classes = 4;
  return SynthImageGenerator(opts).Generate(0, 0);
}

void BM_SjpgEncode(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto bytes = SjpgEncode(img, {.quality = 85});
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgEncode)->Arg(64)->Arg(128)->Arg(256);

void BM_SjpgDecode(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  const auto bytes = SjpgEncode(img, {.quality = 85}).MoveValue();
  for (auto _ : state) {
    auto decoded = SjpgDecode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgDecode)->Arg(64)->Arg(128)->Arg(256);

// The same 256 px decode split into MCU-row bands across a crew of
// range(0) threads: this one plus parked helpers, which re-park (untimed)
// between iterations the way the Server's idle producers wait on admission.
void BM_SjpgDecodeBanded(benchmark::State& state) {
  const Image img = BenchImage(256);
  const auto bytes = SjpgEncode(img, {.quality = 85}).MoveValue();
  testing::ParkedPeers peers(static_cast<int>(state.range(0)) - 1);
  BandCrew::Scope scope(&peers.crew);
  for (auto _ : state) {
    state.PauseTiming();
    peers.WaitParked();
    state.ResumeTiming();
    auto decoded = SjpgDecode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgDecodeBanded)->Arg(3)->UseRealTime();

// Reduced-resolution decode of a 256 px image at 1/denom (the adaptive
// ladder's cheaper rungs).
void BM_SjpgDecodeScaled(benchmark::State& state) {
  const Image img = BenchImage(256);
  const auto bytes = SjpgEncode(img, {.quality = 85}).MoveValue();
  SjpgDecodeOptions opts;
  opts.scale_denom = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto decoded = SjpgDecode(bytes, opts);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgDecodeScaled)->Arg(2)->Arg(4);

void BM_SjpgRoiDecode(benchmark::State& state) {
  const Image img = BenchImage(256);
  const auto bytes = SjpgEncode(img, {.quality = 85}).MoveValue();
  SjpgDecodeOptions opts;
  const int side = static_cast<int>(state.range(0));
  opts.roi = Roi::CenterCrop(256, 256, side, side);
  for (auto _ : state) {
    auto decoded = SjpgDecode(bytes, opts);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SjpgRoiDecode)->Arg(32)->Arg(64)->Arg(128);

void BM_SpngDecode(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  const auto bytes = SpngEncode(img).MoveValue();
  for (auto _ : state) {
    auto decoded = SpngDecode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpngDecode)->Arg(64)->Arg(161);

void BM_FusedTail(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  NormalizeParams norm;
  FloatImage out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FusedConvertNormalizeSplit(img, norm, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusedTail)->Arg(64)->Arg(224);

void BM_UnfusedTail(benchmark::State& state) {
  const Image img = BenchImage(static_cast<int>(state.range(0)));
  NormalizeParams norm;
  for (auto _ : state) {
    auto f = ConvertToFloat(img);
    (void)Normalize(&f.value(), norm);
    auto split = ChannelSplit(f.value());
    benchmark::DoNotOptimize(split);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnfusedTail)->Arg(64)->Arg(224);

void BM_ResizeBilinear(benchmark::State& state) {
  const Image img = BenchImage(256);
  const int target = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto out = ResizeExact(img, target, target);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResizeBilinear)->Arg(224)->Arg(64);

void BM_Dct8x8Roundtrip(benchmark::State& state) {
  Rng rng(3);
  int16_t block[64];
  for (auto& v : block) v = static_cast<int16_t>(rng.UniformInt(-128, 127));
  float coeffs[64];
  int16_t out[64];
  for (auto _ : state) {
    ForwardDct8x8(block, coeffs);
    InverseDct8x8(coeffs, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Dct8x8Roundtrip);

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(n * n), b(n * n), c(n * n);
  Rng rng(4);
  for (auto& v : a) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto _ : state) {
    Gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128);

// Forced-scalar twins of the dispatched kernels, so one bench run shows the
// SIMD-vs-scalar delta on this host (also reachable via SMOL_SIMD=scalar).
void BM_GemmScalar(benchmark::State& state) {
  ScopedSimdLevelCap cap(SimdLevel::kScalar);
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(n * n), b(n * n), c(n * n);
  Rng rng(4);
  for (auto& v : a) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (auto _ : state) {
    Gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmScalar)->Arg(128);

void BM_ResizeBilinearScalar(benchmark::State& state) {
  ScopedSimdLevelCap cap(SimdLevel::kScalar);
  const Image img = BenchImage(256);
  const int target = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto out = ResizeExact(img, target, target);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResizeBilinearScalar)->Arg(224);

void BM_MpmcQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    MpmcQueue<int> queue(64);
    std::thread producer([&] {
      for (int i = 0; i < 20000; ++i) queue.Push(i);
      queue.Close();
    });
    int64_t sum = 0;
    while (auto v = queue.Pop()) sum += *v;
    producer.join();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MpmcQueueThroughput);

}  // namespace
}  // namespace smol

BENCHMARK_MAIN();
