#include "perfbench/harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <utility>

#include "src/codec/sjpg.h"
#include "src/data/synth_image.h"

namespace perfbench {
namespace {

// splitmix64: the benchmark's own generator, so its inputs never change when
// the program's RNG does.
uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform in [0, 1).
double UnitDouble(uint64_t& state) {
  return static_cast<double>(SplitMix(state) >> 11) * 0x1.0p-53;
}

constexpr double kReportQuantiles[] = {0.5, 0.9, 0.99, 0.999, 0.9999};

size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Quantile(const std::vector<double>& sorted, double q) {
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool QuantileSupported(size_t n, double q) { return SamplesBeyond(n, q) >= 10; }

double HighestSupportedQuantile(size_t n) {
  double best = 0.0;
  for (double q : kReportQuantiles) {
    if (QuantileSupported(n, q)) best = q;
  }
  return best;
}

Percentile ReportPercentile(std::vector<double>& samples, double q) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.quantile = QuantileSupported(samples.size(), q)
                   ? q
                   : HighestSupportedQuantile(samples.size());
  // Below twenty samples nothing is supported; report the median anyway and
  // let the quantile field (0.5) plus the count tell the reader.
  if (p.quantile == 0.0) p.quantile = 0.5;
  p.value = Quantile(samples, p.quantile);
  return p;
}

// Calls \p fn on each of the consecutive equal chunks (at least min_chunk
// samples each, at least one chunk) and returns quantile \p across of the
// results.
template <typename Fn>
double AcrossChunks(const std::vector<double>& in_order, size_t min_chunk,
                    double across, size_t* chunks_out, Fn fn) {
  const size_t n = in_order.size();
  const size_t chunks = std::max<size_t>(1, n / std::max<size_t>(min_chunk, 1));
  *chunks_out = chunks;
  if (n == 0) return 0.0;
  std::vector<double> values;
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk(in_order.begin() + c * n / chunks,
                              in_order.begin() + (c + 1) * n / chunks);
    values.push_back(fn(chunk));
  }
  std::sort(values.begin(), values.end());
  return Quantile(values, across);
}

Percentile ChunkedPercentile(const std::vector<double>& in_order, double q,
                             size_t min_chunk, double across) {
  Percentile result;
  result.count = in_order.size();
  result.quantile = q;
  result.value = AcrossChunks(
      in_order, min_chunk, across, &result.chunks,
      [&](std::vector<double>& chunk) {
        const Percentile p = ReportPercentile(chunk, q);
        result.quantile = std::min(result.quantile, p.quantile);
        return p.value;
      });
  return result;
}

double ChunkedMean(const std::vector<double>& in_order, size_t min_chunk,
                   double across) {
  size_t chunks = 0;
  return AcrossChunks(in_order, min_chunk, across, &chunks,
                      [](const std::vector<double>& chunk) {
                        double sum = 0.0;
                        for (double v : chunk) sum += v;
                        return sum / static_cast<double>(chunk.size());
                      });
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t state = seed ^ (tag * 0xd1b54a32d192ed03ULL);
  return SplitMix(state);
}

std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     double seconds) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - UnitDouble(state)) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

std::vector<bool> ClassMix(uint64_t seed, size_t count, double slo_frac) {
  std::vector<bool> slo(count);
  uint64_t state = seed;
  for (size_t i = 0; i < count; ++i) slo[i] = UnitDouble(state) < slo_frac;
  return slo;
}

std::vector<std::vector<uint8_t>> EncodeCorpus(uint64_t seed, int size,
                                               int count, int threads) {
  smol::SynthImageOptions opts;
  opts.width = size;
  opts.height = size;
  opts.num_classes = 8;
  opts.seed = seed;
  const smol::SynthImageGenerator gen(opts);
  std::vector<std::vector<uint8_t>> corpus(static_cast<size_t>(count));
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = t; i < count; i += threads) {
        auto bytes = smol::SjpgEncode(
            gen.Generate(i % 8, static_cast<uint64_t>(i)), {.quality = 85});
        if (!bytes.ok()) {
          failed = true;
          return;
        }
        corpus[static_cast<size_t>(i)] = std::move(bytes).MoveValue();
      }
    });
  }
  for (auto& t : pool) t.join();
  if (failed) corpus.clear();
  return corpus;
}

ZipfSampler::ZipfSampler(int num_items, double s, uint64_t seed)
    : cdf_(static_cast<size_t>(num_items)),
      rank_to_item_(static_cast<size_t>(num_items)),
      state_(seed) {
  double total = 0.0;
  for (int r = 0; r < num_items; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(rank_to_item_.begin(), rank_to_item_.end(), 0);
  // Fisher-Yates with the sampler's own stream.
  for (size_t i = rank_to_item_.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(SplitMix(state_) % i);
    std::swap(rank_to_item_[i - 1], rank_to_item_[j]);
  }
}

int ZipfSampler::Next() {
  const double u = UnitDouble(state_);
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return rank_to_item_[std::min(rank, rank_to_item_.size() - 1)];
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) covered[static_cast<size_t>(span.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[LayerOf(spans[i].name)] += self[i];
  }
  return by_layer;
}

}  // namespace perfbench
