// Measurement primitives of the serving benchmark, kept apart from the
// benchmark program so the self-test can check them without a server:
//
//   * seeded inputs (the image corpus, Poisson arrivals, request-class mix,
//     zipf content order) — the same seed always yields the same inputs;
//   * the percentile rule: report the highest of p50/p90/p99/p99.9/p99.99
//     that still has at least ten samples beyond it, per chunk of a run's
//     samples, and a quantile over the chunks;
//   * span self-time arithmetic: a span's self time is its duration minus
//     the part of it its child spans cover.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- Percentiles ------------------------------------------------------------

/// Nearest-rank quantile of an ascending-sorted sample: the value at rank
/// ceil(q * n), at least 1 (q = 0 gives the smallest). \p sorted must be
/// non-empty and q in [0, 1].
double Quantile(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank quantile \p q of \p n samples.
size_t SamplesBeyond(size_t n, double q);

/// True when quantile \p q of \p n samples has at least ten samples beyond
/// it, i.e. the percentile rule allows reporting it.
bool QuantileSupported(size_t n, double q);

/// The highest of {0.5, 0.9, 0.99, 0.999, 0.9999} the rule allows for \p n
/// samples; 0 when even the median is not supported (n < 20).
double HighestSupportedQuantile(size_t n);

/// A percentile as reported: value, the quantile it is, and sample count.
struct Percentile {
  double value = 0.0;
  double quantile = 0.0;
  size_t count = 0;
  size_t chunks = 1;  ///< ChunkedPercentile: chunks the value was taken over
};

/// Percentile \p q of \p samples (sorted in place). When the rule does not
/// support \p q, falls back to the highest supported quantile; the result's
/// quantile field says which one was reported.
Percentile ReportPercentile(std::vector<double>& samples, double q);

/// Splits \p in_order (samples in arrival order) into as many consecutive
/// equal chunks of at least \p min_chunk samples as fit (at least one),
/// takes ReportPercentile(q) of each chunk, and reports the nearest-rank
/// quantile \p across of the chunk values (0 = the smallest). For a
/// lower-is-better quantity, a low \p across follows the program and not its
/// neighbours: interference from outside the program only ever makes a chunk
/// worse. The quantile field is the lowest quantile any chunk reported;
/// count is the total sample count.
Percentile ChunkedPercentile(const std::vector<double>& in_order, double q,
                             size_t min_chunk, double across);

/// The same chunking, reporting quantile \p across of the chunk means (e.g.
/// 0.75 of 0/1 outcomes: the better quartile of the share that met a limit).
double ChunkedMean(const std::vector<double>& in_order, size_t min_chunk,
                   double across);

// --- Seeded input schedules -------------------------------------------------

/// Derives an independent stream seed from the run seed and a tag.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Poisson arrivals at \p rate_per_s over [0, seconds): due offsets in
/// nanoseconds, ascending.
std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     double seconds);

/// Per-request class draw: true = latency-SLO with probability \p slo_frac.
std::vector<bool> ClassMix(uint64_t seed, size_t count, double slo_frac);

/// \p count distinct SJPG images (quality 85) of \p size x \p size, rendered
/// from the synthetic image generator seeded with \p seed. Encoded on
/// \p threads threads; the bytes do not depend on the thread count. Empty on
/// an encoder error.
std::vector<std::vector<uint8_t>> EncodeCorpus(uint64_t seed, int size,
                                               int count, int threads);

/// Zipf(\p s) draws over \p num_items items. Popularity rank r has weight
/// 1 / (r + 1)^s; ranks map to item indices through a seeded permutation so
/// the hot items differ from seed to seed.
class ZipfSampler {
 public:
  ZipfSampler(int num_items, double s, uint64_t seed);
  /// The next item index in [0, num_items).
  int Next();

 private:
  std::vector<double> cdf_;
  std::vector<int> rank_to_item_;
  uint64_t state_;
};

// --- Spans ------------------------------------------------------------------

/// One timed interval of the trace. Spans of one request share request_id;
/// parent is an index into the same span list (-1 = root).
struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "codec.decode"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request_id = -1;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Children may overlap one another.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// The layer of a span: its name up to the first '.', or the whole name.
std::string LayerOf(const std::string& span_name);

/// Sums SelfTimes by layer.
std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
