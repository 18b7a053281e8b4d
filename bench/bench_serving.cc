// Serving bench: open-loop Poisson arrivals against the streaming Server,
// sweeping offered load up to (and past) the server's capacity.
//
// The reference capacity is the Server's own warm, closed-loop capacity on
// the same workload and configuration, bracketed before and after the
// sweeps: a run whose two brackets disagree by more than kDriftBound exits
// with DRIFT instead of grading anything. The claim under test: the Server
// sustains that capacity under open-loop overload (within 10%) while
// reporting real per-request latency percentiles — overload is absorbed by
// shedding, not collapse.
//
// A second sweep drives a zipfian repeated-content workload (the video
// setting: consecutive frames repeat content) through the same open loop
// with the tensor cache off vs. on, reporting cache hit rate and the served
// throughput uplift under overload.
//
// A third sweep is the device-count axis (`--devices 1,2,4` to override):
// closed-loop runs against homogeneous fleets of slow simulated devices, so
// the fleet — not the host's single preprocessing core — is the bottleneck
// and served throughput measures the modeled multi-device scaling. The
// acceptance checks require near-linear scaling at 4 devices plus balanced,
// starvation-free per-shard serving, and a heterogeneous K80+T4+V100 fleet
// is driven once under capacity-weighted dispatch.
//
// `--adaptive` adds the load-adaptive sweep: a 1.8x-capacity open-loop burst
// of latency-SLO traffic served with the plan ladder off vs. on. The
// acceptance checks require the adaptive run to serve strictly more requests
// within a fixed latency bound and to recover to the full-fidelity rung
// after the burst.
//
// `--json FILE` additionally writes the headline numbers as a
// google-benchmark-compatible snapshot for ci/bench_compare.py.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/sysopt_common.h"
#include "src/hw/fleet.h"
#include "src/runtime/server.h"
#include "src/util/rng.h"

namespace {

using namespace smol;
using namespace smol::bench;

struct LoadPoint {
  double offered_ims = 0.0;
  ServerStats stats;
};

/// Drives one open-loop run: exponential inter-arrivals at \p rate_ims,
/// shedding (not blocking) when admission fills, for \p num_arrivals
/// requests. The WorkItem bytes outlive the server (owned by workload).
/// \p order, when non-null, maps request -> workload item index (the zipfian
/// sweep passes its sampled sequence); round-robin otherwise.
LoadPoint RunOpenLoop(const SysoptWorkload& workload, double rate_ims,
                      int num_arrivals, uint64_t seed,
                      bool enable_cache = false,
                      const std::vector<int>* order = nullptr) {
  SimAccelerator::Options aopts;
  aopts.dnn_throughput_ims = 200000.0;  // preprocessing-bound, like Fig. 7/8
  ServerOptions opts;
  opts.pipeline.num_consumers = 1;
  opts.cache.enable_tensor_cache = enable_cache;
  opts.max_batch = 16;
  opts.admission_capacity = 256;
  opts.overload = OverloadPolicy::kShed;
  Server server(opts, workload.spec, SysoptDecode,
                std::make_shared<SimAccelerator>(aopts));

  // Poisson arrival times, laid out up front against absolute time so sleep
  // jitter cannot depress the offered rate.
  Rng rng(seed);
  std::vector<double> arrival_s(static_cast<size_t>(num_arrivals));
  double t = 0.0;
  for (double& a : arrival_s) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate_ims;
    a = t;
  }

  // Timer wakeups are coalesced into 2 ms quanta: waking once per arrival
  // (thousands/s) would steal measurable CPU from the producers on a small
  // host. Every arrival whose time has passed is submitted on each wakeup,
  // so the offered rate is exact and per-arrival jitter stays under the
  // quantum.
  const auto start = std::chrono::steady_clock::now();
  auto next_wake = start;
  size_t submitted = 0;
  while (submitted < arrival_s.size()) {
    next_wake += std::chrono::milliseconds(2);
    std::this_thread::sleep_until(next_wake);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    while (submitted < arrival_s.size() && arrival_s[submitted] <= elapsed) {
      const size_t item_index =
          order != nullptr
              ? static_cast<size_t>((*order)[submitted % order->size()])
              : submitted % workload.items.size();
      server.Submit(InferenceRequest::FromWorkItem(workload.items[item_index]),
                    [](const InferenceReply&) {});
      ++submitted;
    }
  }
  server.Shutdown();
  LoadPoint point;
  point.offered_ims = rate_ims;
  point.stats = server.stats();
  return point;
}

/// The before/after capacity brackets may differ by at most this fraction;
/// beyond it the host's speed moved during the run and no check is graded.
constexpr double kDriftBound = 0.3;

/// Warm, closed-loop capacity of the Server itself (im/s): the open-loop
/// configuration, kept saturated with kInflight outstanding requests. After
/// a warm-up, the best of three windows counts: interference only ever
/// lowers a window's throughput.
double MeasureServerCapacity(const SysoptWorkload& workload) {
  constexpr int kInflight = 64;
  constexpr double kWarmupS = 0.3;
  constexpr double kWindowS = 0.4;
  SimAccelerator::Options aopts;
  aopts.dnn_throughput_ims = 200000.0;  // preprocessing-bound, like Fig. 7/8
  ServerOptions opts;
  opts.pipeline.num_consumers = 1;
  opts.max_batch = 16;
  opts.admission_capacity = 256;
  opts.overload = OverloadPolicy::kBlock;
  Server server(opts, workload.spec, SysoptDecode,
                std::make_shared<SimAccelerator>(aopts));

  std::mutex mu;
  std::condition_variable cv;
  int inflight = 0;        // guarded by mu
  uint64_t completed = 0;  // guarded by mu
  size_t next = 0;
  const auto run_until = [&](std::chrono::steady_clock::time_point end) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!cv.wait_until(lock, end, [&] { return inflight < kInflight; })) {
          return;
        }
        ++inflight;
      }
      server.Submit(InferenceRequest::FromWorkItem(
                        workload.items[next++ % workload.items.size()]),
                    [&](const InferenceReply&) {
                      {
                        std::lock_guard<std::mutex> lock(mu);
                        --inflight;
                        ++completed;
                      }
                      cv.notify_one();
                    });
    }
  };
  const auto completed_now = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return completed;
  };
  auto t = std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(kWarmupS));
  run_until(t);
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    const auto start = std::chrono::steady_clock::now();
    const uint64_t before = completed_now();
    run_until(start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(kWindowS)));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    best = std::max(
        best, static_cast<double>(completed_now() - before) / seconds);
  }
  server.Shutdown();
  return best;
}

/// One adaptive-vs-static burst run's headline numbers.
struct AdaptiveBurstResult {
  uint64_t ok = 0;            ///< requests served (not shed, not failed)
  uint64_t within_bound = 0;  ///< served within the fixed latency bound
  uint64_t degraded = 0;      ///< served at rung > 0
  uint64_t switches = 0;      ///< controller rung changes over the run
  int post_probe_rung = -1;   ///< rung of a post-burst probe (0 = recovered)
  double shed_pct = 0.0;
};

/// Drives one open-loop burst of latency-SLO traffic at \p rate_ims (set
/// well past capacity) against a shed-policy server, with the adaptive plan
/// ladder on or off, and counts the replies served within \p bound_us.
/// After the burst drains it waits for the controller to recover and probes
/// one more request to read the restored rung.
AdaptiveBurstResult RunAdaptiveBurst(const SysoptWorkload& workload,
                                     double rate_ims, int num_arrivals,
                                     double bound_us, bool adaptive,
                                     uint64_t seed) {
  SimAccelerator::Options aopts;
  aopts.dnn_throughput_ims = 200000.0;  // preprocessing-bound, like Fig. 7/8
  ServerOptions opts;
  opts.pipeline.num_consumers = 1;
  opts.max_batch = 16;
  opts.admission_capacity = 256;
  opts.overload = OverloadPolicy::kShed;
  if (adaptive) {
    // Full fidelity plus two cheaper rungs; the 0.55x rung also decodes at
    // half resolution straight from the DCT domain.
    opts.adaptive.ladder_scales = {1.0, 0.75, 0.55};
    opts.adaptive.controller.sample_interval_us = 5000.0;
  }
  Server server(opts, workload.spec, SysoptDecode,
                std::make_shared<SimAccelerator>(aopts));

  std::atomic<uint64_t> ok{0}, within{0}, degraded{0};
  Rng rng(seed);
  std::vector<double> arrival_s(static_cast<size_t>(num_arrivals));
  double t = 0.0;
  for (double& a : arrival_s) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate_ims;
    a = t;
  }
  const auto start = std::chrono::steady_clock::now();
  auto next_wake = start;
  size_t submitted = 0;
  while (submitted < arrival_s.size()) {
    next_wake += std::chrono::milliseconds(2);
    std::this_thread::sleep_until(next_wake);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    while (submitted < arrival_s.size() && arrival_s[submitted] <= elapsed) {
      server.Submit(
          InferenceRequest::FromWorkItem(
              workload.items[submitted % workload.items.size()],
              RequestClass::kLatencySlo),
          [&, bound_us](const InferenceReply& reply) {
            if (!reply.ok()) return;
            ok.fetch_add(1, std::memory_order_relaxed);
            if (reply.latency_us <= bound_us) {
              within.fetch_add(1, std::memory_order_relaxed);
            }
            if (reply.degraded) {
              degraded.fetch_add(1, std::memory_order_relaxed);
            }
          });
      ++submitted;
    }
  }

  // Burst over: give the controller its hysteresis window to recover, then
  // read the rung a fresh request would be served at.
  const auto recover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.ActiveRung(RequestClass::kLatencySlo) != 0 &&
         std::chrono::steady_clock::now() < recover_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  AdaptiveBurstResult result;
  // The queue may still be draining; a shed probe says nothing about the
  // restored rung, so retry until one is admitted.
  InferenceReply probe;
  const auto probe_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    probe = server
                .Submit(InferenceRequest::FromWorkItem(
                    workload.items[0], RequestClass::kLatencySlo))
                .get();
    if (probe.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < probe_deadline);
  result.post_probe_rung = probe.ok() ? probe.plan_rung : -1;
  server.Shutdown();

  const ServerStats stats = server.stats();
  result.ok = ok.load();
  result.within_bound = within.load();
  result.degraded = degraded.load();
  result.switches = stats.plan_switches;
  result.shed_pct =
      stats.submitted + stats.shed > 0
          ? 100.0 * static_cast<double>(stats.shed) /
                static_cast<double>(stats.submitted + stats.shed)
          : 0.0;
  return result;
}

/// Drives one closed-loop (blocking-admission) run of \p num_requests
/// against \p devices and returns the drained stats. Closed loop + slow
/// devices = the fleet is the bottleneck, which is exactly what the
/// device-scaling sweep wants to measure.
ServerStats RunClosedLoopFleet(const SysoptWorkload& workload,
                               std::vector<std::shared_ptr<Device>> devices,
                               DispatchPolicy policy, int num_requests) {
  ServerOptions opts;
  opts.pipeline.num_consumers = 1;
  opts.max_batch = 16;
  opts.admission_capacity = 256;
  opts.overload = OverloadPolicy::kBlock;
  opts.dispatch = policy;
  opts.shard_queue_capacity = 32;
  opts.devices = std::move(devices);
  Server server(opts, workload.spec, SysoptDecode, nullptr);
  for (int i = 0; i < num_requests; ++i) {
    server.Submit(InferenceRequest::FromWorkItem(
                      workload.items[static_cast<size_t>(i) %
                                     workload.items.size()]),
                  [](const InferenceReply&) {});
  }
  server.Shutdown();
  return server.stats();
}

/// Served min/max over a run's shards (balance + starvation accounting).
void ShardServedRange(const ServerStats& stats, uint64_t* min_served,
                      uint64_t* max_served) {
  *min_served = stats.completed;
  *max_served = 0;
  for (const ShardStats& shard : stats.shards) {
    *min_served = std::min(*min_served, shard.served);
    *max_served = std::max(*max_served, shard.served);
  }
}

/// Samples \p num_requests item indices from a zipf(s) distribution over
/// \p num_items ranks (rank k -> item k). s = 1.0 over 64 items puts ~21%
/// of the mass on the hottest item — the paper's repeated-content regime.
std::vector<int> MakeZipfOrder(int num_requests, int num_items, double s,
                               uint64_t seed) {
  std::vector<double> cdf(static_cast<size_t>(num_items));
  double total = 0.0;
  for (int k = 0; k < num_items; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[static_cast<size_t>(k)] = total;
  }
  Rng rng(seed);
  std::vector<int> order(static_cast<size_t>(num_requests));
  for (int& index : order) {
    const double u = rng.UniformDouble() * total;
    index = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin());
    index = std::min(index, num_items - 1);
  }
  return order;
}

/// Writes headline numbers as a google-benchmark JSON snapshot so
/// ci/bench_compare.py can gate them like the bench_micro rows.
bool WriteBenchJson(const char* path,
                    const std::vector<std::pair<std::string, double>>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serving: cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n  \"context\": {\"executable\": \"bench_serving\"},\n"
                  "  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                 "\"iterations\": 1, \"real_time\": %.3f, "
                 "\"cpu_time\": %.3f, \"time_unit\": \"us\"}%s\n",
                 rows[i].first.c_str(), rows[i].second, rows[i].second,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_out = nullptr;
  bool run_adaptive = false;
  std::vector<int> device_counts = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--adaptive") == 0) {
      run_adaptive = true;
    } else if ((std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) ||
               std::strncmp(argv[i], "--devices=", 10) == 0) {
      const std::string list = argv[i][9] == '=' ? argv[i] + 10 : argv[++i];
      device_counts.clear();
      for (size_t pos = 0; pos < list.size();) {
        const size_t comma = std::min(list.find(',', pos), list.size());
        const int count = std::atoi(list.substr(pos, comma - pos).c_str());
        if (count > 0) device_counts.push_back(count);
        pos = comma + 1;
      }
      if (device_counts.empty()) device_counts = {1, 2, 4};
    }
  }

  PrintTitle("Serving: open-loop Poisson sweep vs. closed-loop capacity");

  const SysoptWorkload workload = MakeSysoptWorkload(/*count=*/512,
                                                     /*size=*/128);

  // Reference: the Server's warm closed-loop capacity, re-measured after
  // the sweeps (see kDriftBound).
  const double capacity_before = MeasureServerCapacity(workload);
  std::printf("Server closed-loop capacity: %.0f im/s\n\n", capacity_before);

  PrintRow({"Offered (im/s)", "Served (im/s)", "Shed %", "p50 (ms)",
            "p99 (ms)", "Mean batch"},
           16);
  PrintRule(6, 16);

  bool ok = capacity_before > 0.0;
  ServerStats max_load_stats;
  double max_load_served = 0.0;
  const double load_factors[] = {0.3, 0.6, 0.9, 1.3};
  const double max_factor = load_factors[3];
  for (const double factor : load_factors) {
    const double rate = capacity_before * factor;
    const int arrivals =
        std::max(400, static_cast<int>(rate * 1.5));  // ~1.5 s per point
    // The max-load point carries the acceptance check, so like the Fig. 7/8
    // harness it gets a second round to absorb host drift (best-of-2).
    const int rounds = factor == max_factor ? 2 : 1;
    LoadPoint point;
    for (int r = 0; r < rounds; ++r) {
      LoadPoint candidate =
          RunOpenLoop(workload, rate, arrivals,
                      /*seed=*/1000 + static_cast<uint64_t>(factor * 100) +
                          static_cast<uint64_t>(r));
      if (r == 0 ||
          candidate.stats.throughput_ims > point.stats.throughput_ims) {
        point = candidate;
      }
    }
    const ServerStats& s = point.stats;
    const double shed_pct =
        s.submitted + s.shed > 0
            ? 100.0 * static_cast<double>(s.shed) /
                  static_cast<double>(s.submitted + s.shed)
            : 0.0;
    PrintRow({Fmt(point.offered_ims, 0), Fmt(s.throughput_ims, 0),
              Fmt(shed_pct, 1), Fmt(s.latency.p50_us / 1000.0, 2),
              Fmt(s.latency.p99_us / 1000.0, 2), Fmt(s.mean_batch, 1)},
             16);
    if (s.latency.p50_us <= 0.0 || s.latency.p99_us < s.latency.p50_us) {
      ok = false;
    }
    // The sweep is ordered, so the last point is the max offered load.
    max_load_stats = s;
    max_load_served = s.throughput_ims;
  }

  // --- Zipfian repeated content: tensor cache off vs. on -------------------
  //
  // Overload the server (1.8x capacity, shed policy) with zipf(1.0) repeats
  // over 64 unique images. Cache off: served throughput pins at capacity.
  // Cache on: hits skip decode+preprocess entirely, so served throughput
  // climbs toward the offered rate.
  const int kUniqueImages = 64;
  const double kZipfLoad = 1.8;
  const SysoptWorkload zipf_workload =
      MakeSysoptWorkload(kUniqueImages, /*size=*/128, /*seed=*/901);
  const double zipf_rate = capacity_before * kZipfLoad;
  const int zipf_arrivals =
      std::max(600, static_cast<int>(zipf_rate * 1.5));  // ~1.5 s per run
  const std::vector<int> zipf_order =
      MakeZipfOrder(zipf_arrivals, kUniqueImages, /*s=*/1.0, /*seed=*/77);

  std::printf("\nZipfian repeated content (s=1.0, %d unique images) at "
              "%.1fx capacity:\n\n",
              kUniqueImages, kZipfLoad);
  PrintRow({"Tensor cache", "Offered (im/s)", "Served (im/s)", "Hit rate %",
            "Shed %", "p50 (ms)"},
           16);
  PrintRule(6, 16);

  double zipf_served[2] = {0.0, 0.0};
  double zipf_hit_rate = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool cache_on = pass == 1;
    // Best-of-2, like the max-load Poisson point: this row carries a check.
    LoadPoint point;
    for (int r = 0; r < 2; ++r) {
      LoadPoint candidate =
          RunOpenLoop(zipf_workload, zipf_rate, zipf_arrivals,
                      /*seed=*/2000 + static_cast<uint64_t>(pass * 10 + r),
                      cache_on, &zipf_order);
      if (r == 0 ||
          candidate.stats.throughput_ims > point.stats.throughput_ims) {
        point = candidate;
      }
    }
    const ServerStats& s = point.stats;
    const double shed_pct =
        s.submitted + s.shed > 0
            ? 100.0 * static_cast<double>(s.shed) /
                  static_cast<double>(s.submitted + s.shed)
            : 0.0;
    zipf_served[pass] = s.throughput_ims;
    if (cache_on) zipf_hit_rate = s.tensor_cache.hit_rate();
    PrintRow({cache_on ? "on" : "off", Fmt(zipf_rate, 0),
              Fmt(s.throughput_ims, 0),
              Fmt(100.0 * s.tensor_cache.hit_rate(), 1), Fmt(shed_pct, 1),
              Fmt(s.latency.p50_us / 1000.0, 2)},
             16);
  }

  const double uplift =
      zipf_served[0] > 0.0 ? zipf_served[1] / zipf_served[0] : 0.0;
  std::printf("\nTensor cache under overload: hit rate %.0f%%, served "
              "throughput uplift %.2fx\n",
              100.0 * zipf_hit_rate, uplift);
  // The zipf(1.0) stream re-serves most requests from the cache; anything
  // less means the content-addressed path is broken, not merely slow.
  if (zipf_hit_rate < 0.5) ok = false;
  // Hits skip decode+preprocess, so under 1.8x overload the cache must buy
  // real served throughput (threshold well under the ~1.8x ideal to absorb
  // shared-runner noise).
  if (uplift < 1.15) ok = false;

  // --- Adaptive plan selection under burst (--adaptive) --------------------
  //
  // The flagship claim: under a sustained 1.8x-capacity open-loop burst of
  // latency-SLO traffic, the adaptive ladder serves strictly more requests
  // within a fixed latency bound than static best-accuracy serving — and
  // recovers to the full-fidelity rung once the burst drains (verified by a
  // post-burst probe). Both runs shed at admission; the adaptive one also
  // degrades decode/preprocess resolution, so its effective capacity rises
  // and both its shed rate and its queue wait fall.
  double adaptive_within_rate[2] = {0.0, 0.0};  // [0] static, [1] adaptive
  if (run_adaptive) {
    const double kBurstLoad = 1.8;
    const double kBoundUs = 250000.0;  // generous: queueing, not noise, decides
    const double burst_rate = capacity_before * kBurstLoad;
    const int burst_arrivals =
        std::max(800, static_cast<int>(burst_rate * 1.5));  // ~1.5 s per run
    const double burst_seconds =
        static_cast<double>(burst_arrivals) / burst_rate;
    std::printf("\nAdaptive plan selection at %.1fx capacity "
                "(latency bound %.0f ms):\n\n",
                kBurstLoad, kBoundUs / 1000.0);
    PrintRow({"Ladder", "Served (im/s)", "In-bound (im/s)", "Degraded %",
              "Shed %", "Probe rung"},
             16);
    PrintRule(6, 16);
    AdaptiveBurstResult results[2];
    for (int pass = 0; pass < 2; ++pass) {
      const bool adaptive = pass == 1;
      // Best-of-2 on the checked metric, like the other acceptance rows.
      AdaptiveBurstResult best;
      for (int r = 0; r < 2; ++r) {
        AdaptiveBurstResult candidate = RunAdaptiveBurst(
            workload, burst_rate, burst_arrivals, kBoundUs,
            adaptive, /*seed=*/3000 + static_cast<uint64_t>(pass * 10 + r));
        if (r == 0 || candidate.within_bound > best.within_bound) {
          best = candidate;
        }
      }
      results[pass] = best;
      adaptive_within_rate[pass] =
          static_cast<double>(best.within_bound) / burst_seconds;
      PrintRow({adaptive ? "adaptive" : "static",
                Fmt(static_cast<double>(best.ok) / burst_seconds, 0),
                Fmt(adaptive_within_rate[pass], 0),
                Fmt(best.ok > 0 ? 100.0 * static_cast<double>(best.degraded) /
                                      static_cast<double>(best.ok)
                                : 0.0,
                    1),
                Fmt(best.shed_pct, 1), Fmt(best.post_probe_rung, 0)},
               16);
    }
    std::printf("\nAdaptive vs static within %.0f ms: %llu vs %llu requests "
                "(%llu controller switches)\n",
                kBoundUs / 1000.0,
                static_cast<unsigned long long>(results[1].within_bound),
                static_cast<unsigned long long>(results[0].within_bound),
                static_cast<unsigned long long>(results[1].switches));
    // Acceptance: strictly more in-bound requests than the static ladder,
    // real degradation during the burst, and full recovery after it.
    if (results[1].within_bound <= results[0].within_bound) ok = false;
    if (results[1].degraded == 0) ok = false;
    if (results[1].switches < 2) ok = false;  // at least one down + one up
    if (results[1].post_probe_rung != 0) ok = false;
    if (results[0].post_probe_rung != 0) ok = false;  // static is always rung 0
  }

  // --- Capacity bracket and the max-load check -----------------------------
  //
  // The capacity every sweep above was scaled by is measured again now. When
  // the two brackets disagree beyond kDriftBound, the host's speed moved
  // during the sweeps: the run says so and fails rather than grading. Else
  // the max-load check grades against the slower bracket, so residual drift
  // within the bound cannot pass a slow server.
  const double capacity_after = MeasureServerCapacity(workload);
  const double drift =
      capacity_before > 0.0 ? std::fabs(capacity_after / capacity_before - 1.0)
                            : 1.0;
  std::printf("\nServer closed-loop capacity before/after the sweeps: "
              "%.0f/%.0f im/s (drift %.1f%%, bound %.0f%%)\n",
              capacity_before, capacity_after, drift * 100.0,
              kDriftBound * 100.0);
  if (drift > kDriftBound) {
    std::printf("DRIFT: capacity moved %.1f%% between the brackets (bound "
                "%.0f%%); the host was not steady, no check is graded\n",
                drift * 100.0, kDriftBound * 100.0);
    return 3;
  }
  // Acceptance: at max offered load the streaming server serves its own
  // closed-loop capacity within 10%, with live latency accounting.
  const double graded_capacity = std::min(capacity_before, capacity_after);
  const double ratio =
      graded_capacity > 0.0 ? max_load_served / graded_capacity : 0.0;
  std::printf("Server at max load: %.0f im/s = %.0f%% of closed-loop "
              "capacity (p50 %.2f ms, p99 %.2f ms)\n",
              max_load_served, ratio * 100.0,
              max_load_stats.latency.p50_us / 1000.0,
              max_load_stats.latency.p99_us / 1000.0);
  if (ratio < 0.9) ok = false;

  // --- Multi-device scaling (homogeneous fleets, least-loaded) -------------
  //
  // Each simulated device is deliberately slow (300 im/s) so the host's one
  // preprocessing core (~2400 im/s on this workload) can feed four of them:
  // served throughput then measures the fleet, and scaling 1 -> N devices is
  // the modeled near-linear curve the sharded runtime promises.
  constexpr double kPerDeviceIms = 300.0;
  constexpr int kRequestsPerDevice = 500;
  std::printf("\nMulti-device scaling (%.0f im/s per device, closed loop, "
              "least-loaded dispatch):\n\n",
              kPerDeviceIms);
  PrintRow({"Devices", "Served (im/s)", "Scaling x", "Shard max/min",
            "Mean batch"},
           16);
  PrintRule(5, 16);

  double served_at[2] = {0.0, 0.0};  // [0] = 1 device, [1] = max count
  int max_count = 0;
  ServerStats largest_fleet_stats;
  std::vector<std::pair<int, double>> scaling_rows;  // (devices, served im/s)
  for (const int count : device_counts) {
    SimAccelerator::Options dev_opts;
    dev_opts.dnn_throughput_ims = kPerDeviceIms;
    dev_opts.name = "sim";
    const ServerStats s = RunClosedLoopFleet(
        workload, MakeHomogeneousFleet(count, dev_opts),
        DispatchPolicy::kLeastLoaded, kRequestsPerDevice * count);
    scaling_rows.emplace_back(count, s.throughput_ims);
    uint64_t min_served = 0, max_served = 0;
    ShardServedRange(s, &min_served, &max_served);
    if (min_served == 0) ok = false;  // zero starvation, every fleet size
    const double balance =
        min_served > 0
            ? static_cast<double>(max_served) / static_cast<double>(min_served)
            : 0.0;
    if (count == 1) served_at[0] = s.throughput_ims;
    if (count > max_count) {
      max_count = count;
      served_at[1] = s.throughput_ims;
      largest_fleet_stats = s;
    }
    const double scaling =
        served_at[0] > 0.0 ? s.throughput_ims / served_at[0] : 0.0;
    PrintRow({Fmt(count, 0), Fmt(s.throughput_ims, 0), Fmt(scaling, 2),
              Fmt(balance, 2), Fmt(s.mean_batch, 1)},
             16);
    // Uniform load over a homogeneous fleet must stay balanced.
    if (count > 1 && balance > 1.25) ok = false;
  }
  for (const ShardStats& shard : largest_fleet_stats.shards) {
    std::printf("  shard %d (%s): served %llu, batches %llu, "
                "queue hwm %llu, p50 %.2f ms\n",
                shard.shard, shard.device.c_str(),
                static_cast<unsigned long long>(shard.served),
                static_cast<unsigned long long>(shard.batches),
                static_cast<unsigned long long>(shard.queue_depth_hwm),
                shard.latency.p50_us / 1000.0);
  }
  // Acceptance: near-linear modeled scaling — >= 3.2x at 4 homogeneous
  // devices (or proportionally, 0.8x-per-device, for an overridden sweep).
  if (max_count > 1) {
    const double scaling =
        served_at[0] > 0.0 ? served_at[1] / served_at[0] : 0.0;
    const double required = 0.8 * max_count;
    std::printf("\nScaling at %d devices: %.2fx (require >= %.1fx)\n",
                max_count, scaling, required);
    if (scaling < required) ok = false;
  }

  // --- Heterogeneous fleet: K80 + T4 + V100, capacity-weighted -------------
  //
  // time_scale 8 slows the Table 5 devices into the host's feedable range
  // (fleet ~1480 im/s real time), so dispatch — not the producer — decides
  // the split. Capacity-weighted dispatch must load-shape toward the V100
  // without starving the K80.
  {
    SimFleetOptions fleet_opts;
    fleet_opts.time_scale = 8.0;
    auto mixed = MakeSimFleet(
        {GpuModel::kK80, GpuModel::kT4, GpuModel::kV100}, fleet_opts);
    if (!mixed.ok()) {
      std::printf("\nmixed fleet construction failed: %s\n",
                  mixed.status().ToString().c_str());
      ok = false;
    } else {
      const ServerStats s =
          RunClosedLoopFleet(workload, std::move(mixed).MoveValue(),
                             DispatchPolicy::kCapacityWeighted, 600);
      std::printf("\nHeterogeneous fleet (capacity-weighted, time_scale 8):\n");
      uint64_t min_served = 0, max_served = 0;
      ShardServedRange(s, &min_served, &max_served);
      for (const ShardStats& shard : s.shards) {
        std::printf("  shard %d (%-7s cap %5.0f im/s): served %llu (%.0f%%)\n",
                    shard.shard, shard.device.c_str(), shard.capacity_ims,
                    static_cast<unsigned long long>(shard.served),
                    s.completed > 0 ? 100.0 * static_cast<double>(shard.served) /
                                          static_cast<double>(s.completed)
                                    : 0.0);
      }
      // The K80 has 45x less capacity than the V100; capacity-weighted
      // dispatch must still keep it fed (zero starvation) while the fast
      // devices take the bulk.
      if (min_served == 0 || s.completed != 600u) ok = false;
      const ShardStats& v100 = s.shards.back();
      const ShardStats& k80 = s.shards.front();
      if (v100.served <= k80.served) ok = false;
    }
  }

  if (json_out != nullptr) {
    std::vector<std::pair<std::string, double>> rows;
    rows.emplace_back("serving_poisson_max_load/us_per_image",
                      max_load_served > 0.0 ? 1e6 / max_load_served : 0.0);
    rows.emplace_back("serving_zipf_cache_off/us_per_image",
                      zipf_served[0] > 0.0 ? 1e6 / zipf_served[0] : 0.0);
    rows.emplace_back("serving_zipf_cache_on/us_per_image",
                      zipf_served[1] > 0.0 ? 1e6 / zipf_served[1] : 0.0);
    for (const auto& [count, served] : scaling_rows) {
      rows.emplace_back(
          "serving_devices" + std::to_string(count) + "/us_per_image",
          served > 0.0 ? 1e6 / served : 0.0);
    }
    if (run_adaptive) {
      rows.emplace_back("serving_adaptive_static/us_per_image",
                        adaptive_within_rate[0] > 0.0
                            ? 1e6 / adaptive_within_rate[0]
                            : 0.0);
      rows.emplace_back("serving_adaptive_on/us_per_image",
                        adaptive_within_rate[1] > 0.0
                            ? 1e6 / adaptive_within_rate[1]
                            : 0.0);
    }
    if (!WriteBenchJson(json_out, rows)) ok = false;
  }

  std::printf("%s\n", ok ? "OK: streaming serving sustains closed-loop capacity"
                         : "FAIL: serving throughput or latency check");
  return ok ? 0 : 1;
}
