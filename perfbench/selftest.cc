// The benchmark's own tests: seeded inputs are reproducible, the percentile
// rule matches a sorted reference, and span self-time arithmetic is right on
// a synthetic trace. Exits non-zero if any check fails.
//
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void TestSeededInputsRepeat() {
  // Arrival schedule.
  const auto a1 = PoissonArrivals(SubSeed(7, 0x30), 1000.0, 2.0);
  const auto a2 = PoissonArrivals(SubSeed(7, 0x30), 1000.0, 2.0);
  const auto a3 = PoissonArrivals(SubSeed(8, 0x30), 1000.0, 2.0);
  CHECK(a1 == a2);
  CHECK(a1 != a3);
  CHECK(std::is_sorted(a1.begin(), a1.end()));
  CHECK(a1.size() > 1800 && a1.size() < 2200);  // ~Poisson(2000)
  CHECK(a1.back() < 2000000000LL);

  // Class mix.
  const auto c1 = ClassMix(SubSeed(7, 0x130), 5000, 0.7);
  const auto c2 = ClassMix(SubSeed(7, 0x130), 5000, 0.7);
  CHECK(c1 == c2);
  CHECK(c1 != ClassMix(SubSeed(8, 0x130), 5000, 0.7));
  const auto slo = std::count(c1.begin(), c1.end(), true);
  CHECK(slo > 3300 && slo < 3700);

  // Zipf order: reproducible, seed-dependent, and rank 0 the most frequent.
  ZipfSampler z1(512, 1.0, SubSeed(7, 0x40));
  ZipfSampler z2(512, 1.0, SubSeed(7, 0x40));
  ZipfSampler z3(512, 1.0, SubSeed(8, 0x40));
  std::vector<int> o1, o2, o3;
  std::vector<int> freq(512, 0);
  for (int i = 0; i < 20000; ++i) {
    o1.push_back(z1.Next());
    o2.push_back(z2.Next());
    o3.push_back(z3.Next());
    ++freq[static_cast<size_t>(o1.back())];
  }
  CHECK(o1 == o2);
  CHECK(o1 != o3);
  // zipf(1.0) over 512 items: the top item takes 1/H(512) ~ 14.7%.
  const int top = *std::max_element(freq.begin(), freq.end());
  CHECK(top > 2600 && top < 3300);

  // Corpus: same seed, same bytes, whatever the encoder thread count.
  const auto k1 = EncodeCorpus(SubSeed(7, 0xC0), 64, 6, 1);
  const auto k2 = EncodeCorpus(SubSeed(7, 0xC0), 64, 6, 3);
  const auto k3 = EncodeCorpus(SubSeed(8, 0xC0), 64, 6, 2);
  CHECK(k1.size() == 6);
  CHECK(k1 == k2);
  CHECK(k1 != k3);
  for (size_t i = 1; i < k1.size(); ++i) CHECK(k1[i] != k1[0]);
}

void TestPercentileRule() {
  // Nearest rank on a sorted reference 1..n.
  for (size_t n : {1u, 19u, 20u, 99u, 100u, 109u, 110u, 999u, 1000u, 1009u,
                   1010u, 10000u}) {
    std::vector<double> ref(n);
    for (size_t i = 0; i < n; ++i) ref[i] = static_cast<double>(i + 1);
    std::vector<double> shuffled(ref.rbegin(), ref.rend());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      const size_t rank = static_cast<size_t>(
          std::max<double>(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
      CHECK(Quantile(ref, q) == static_cast<double>(rank));
      CHECK(SamplesBeyond(n, q) == n - rank);
      CHECK(QuantileSupported(n, q) == (n - rank >= 10));
    }
    Percentile p = ReportPercentile(shuffled, 0.99);
    CHECK(p.count == n);
    CHECK(std::is_sorted(shuffled.begin(), shuffled.end()));
    CHECK(SamplesBeyond(n, p.quantile) >= 10 || p.quantile == 0.5);
    CHECK(p.value == Quantile(ref, p.quantile));
  }
  CHECK(HighestSupportedQuantile(19) == 0.0);
  CHECK(HighestSupportedQuantile(20) == 0.5);
  CHECK(HighestSupportedQuantile(100) == 0.9);
  CHECK(HighestSupportedQuantile(999) == 0.9);
  CHECK(HighestSupportedQuantile(1000) == 0.99);
  CHECK(HighestSupportedQuantile(10000) == 0.999);
  CHECK(HighestSupportedQuantile(100000) == 0.9999);
  std::vector<double> few = {3.0, 1.0, 2.0};
  const Percentile p = ReportPercentile(few, 0.99);
  CHECK(p.quantile == 0.5 && p.value == 2.0 && p.count == 3);

  // Chunked: 3 chunks of 1000 whose p99s are 1e9 (a stall), 990 and 1990;
  // the quantile across chunks picks among them by nearest rank.
  std::vector<double> in_order;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 1000; ++i) in_order.push_back(i + (c == 2 ? 1000 : 0));
  }
  for (int i = 0; i < 50; ++i) in_order[static_cast<size_t>(i)] = 1e9;
  const Percentile better = ChunkedPercentile(in_order, 0.99, 1000, 0.25);
  CHECK(better.chunks == 3 && better.count == 3000);
  CHECK(better.quantile == 0.99);
  CHECK(better.value == 990.0);
  CHECK(ChunkedPercentile(in_order, 0.99, 1000, 0.5).value == 1990.0);
  CHECK(ChunkedPercentile(in_order, 0.99, 1000, 0.75).value == 1e9);
  CHECK(ChunkedPercentile(in_order, 0.99, 1000, 0.0).value == 990.0);
  // Fewer samples than two chunks: one chunk, plain percentile rule.
  std::vector<double> short_run(in_order.begin() + 1000,
                                in_order.begin() + 1500);
  const Percentile single = ChunkedPercentile(short_run, 0.99, 1000, 0.25);
  CHECK(single.chunks == 1 && single.quantile == 0.9 && single.count == 500);
  CHECK(single.value == 450.0);

  // Chunked mean of 0/1 outcomes: chunks with 2%, 0% and 1% misses.
  std::vector<double> good(3000, 1.0);
  for (int i = 0; i < 20; ++i) good[static_cast<size_t>(i)] = 0.0;
  for (int i = 2000; i < 2010; ++i) good[static_cast<size_t>(i)] = 0.0;
  CHECK(ChunkedMean(good, 1000, 0.5) == 0.99);
  CHECK(ChunkedMean(good, 1000, 0.75) == 1.0);
  CHECK(ChunkedMean({}, 1000, 0.5) == 0.0);
}

void TestSelfTimes() {
  // request [0, 100] with children admission [0, 30], decode [30, 60],
  // post_decode [60, 100]; post_decode has a device child [70, 90] and an
  // overlapping second child [80, 95]; a child sticking out of its parent is
  // clipped.
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 1},            // 0
      {"runtime.admission", 0, 30, 0, 1},    // 1
      {"codec.decode", 30, 60, 0, 1},        // 2
      {"runtime.post_decode", 60, 100, 0, 1},  // 3
      {"hw.device", 70, 90, 3, 1},           // 4
      {"hw.device", 80, 95, 3, 1},           // 5
      {"request", 200, 260, -1, 2},          // 6
      {"runtime.serve", 210, 300, 6, 2},     // 7: ends past its parent
  };
  const auto self = SelfTimes(spans);
  CHECK(self[0] == 0);   // children tile the request
  CHECK(self[1] == 30);
  CHECK(self[2] == 30);
  CHECK(self[3] == 40 - 25);  // union of [70,90] and [80,95] is 25
  CHECK(self[4] == 20);
  CHECK(self[5] == 15);
  CHECK(self[6] == 10);  // [200,210] uncovered; [260,300] clipped away
  CHECK(self[7] == 90);
  const auto by_layer = SelfTimeByLayer(spans);
  CHECK(by_layer.at("request") == 10);
  CHECK(by_layer.at("runtime") == 30 + 15 + 90);
  CHECK(by_layer.at("codec") == 30);
  CHECK(by_layer.at("hw") == 35);
  CHECK(LayerOf("codec.decode") == "codec");
  CHECK(LayerOf("request") == "request");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSeededInputsRepeat();
  perfbench::TestPercentileRule();
  perfbench::TestSelfTimes();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d checks failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
