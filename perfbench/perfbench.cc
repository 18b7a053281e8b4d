// Serving benchmark program.
//
// One load-generator thread drives the real smol::Server through its public
// API on a seeded workload of SJPG images, checks every reply, and prints
// one JSON line of metrics (human-readable detail goes to stderr):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--key value]
//
// perfbench/run.py builds this binary and passes each workload's fixed
// parameters from perfbench/workloads.json. Rates are absolute numbers from
// that file; nothing is calibrated inside a run.
//
// A run is a sequence of phases on one warm server (see RunPhases):
//
//   warm-up -> cycles of {capacity (closed loop), open loop at fixed rates}
//   -> a fixed ladder of rates (max_rate_ims) -> a last capacity bracket
//
// Latency is measured from each request's due time, so generator lateness
// counts against the program. Capacity in the first and the second half of
// the run must agree within --drift_bound or the run fails loudly, naming
// the workload.
//
// With --trace 1 every other cycle is traced: the harness times the calls
// into each layer from outside the program — the decode function it passes
// in (codec), a Device wrapper around the default SimAccelerator (hw),
// Submit and the reply callback (runtime) — samples ServerStats, and derives
// per-layer metrics. The untraced cycles in between give the tracing
// overhead and the reference for the stage-sum check.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "src/codec/sjpg.h"
#include "src/hw/sim_accelerator.h"
#include "src/runtime/server.h"
#include "src/util/cpu_features.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using smol::InferenceReply;
using smol::RequestClass;
using smol::StatusCode;

// --- Parameters -------------------------------------------------------------

struct Params {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_path;  ///< traced run: span CSV written at exit

  int corpus = 1024;        ///< distinct encoded images
  bool zipf = false;        ///< zipf content order (else cycle the corpus)
  double zipf_s = 1.0;
  bool cache = false;       ///< tensor cache on
  double cache_mb = 64.0;   ///< tensor cache byte budget
  bool adaptive = false;    ///< plan ladder {1.0, 0.75, 0.55} + controller
  double slo_frac = 0.0;    ///< share of kLatencySlo requests (open loop)
  bool burst = false;       ///< calm -> burst -> calm instead of low, high
  double low_rate = 0.0;    ///< im/s ("calm" rate on a burst workload)
  double high_rate = 0.0;   ///< im/s ("burst" rate on a burst workload)
  std::vector<double> ladder;  ///< ascending rates for max_rate_ims
};

/// The latency limit of every workload (p99, goodput, max_rate_ims).
constexpr double kLimitMs = 50.0;
/// Latency-SLO deadline after the due time; the rest of the limit covers
/// decode, preprocessing, batching and the device.
constexpr double kDeadlineMs = 40.0;
/// Capacity in the two halves of a run must agree within this share. Per-
/// second throughput on a shared 4-core host swings by +-25%; the check is
/// for a cold or throttled host, which runs 2-3x slower.
constexpr double kDriftBound = 0.4;

constexpr int kImageSize = 256;      ///< SJPG images are kImageSize squared
constexpr int kSetupReps = 9;        ///< fresh servers timed for setup_s
constexpr int kInflight = 64;        ///< closed-loop outstanding requests
constexpr size_t kChunk = 1200;      ///< min requests per percentile chunk
/// Quantile across capacity windows and ladder-step chunks of a
/// lower-is-better value: the better quartile (see ChunkedPercentile).
constexpr double kBetterQuartile = 0.25;

/// The reported form of quantile \p q of a run's latency samples (in arrival
/// order): the best of the run's chunks of at least kChunk requests. A
/// latency tail at a fixed rate is what interference from other tenants
/// moves most, and it reaches most chunks of a run on a busy host; the best
/// chunk is the one it reached least.
Percentile Summarize(const std::vector<double>& in_order, double q) {
  return ChunkedPercentile(in_order, q, kChunk, /*across=*/0.0);
}
/// Traced p50 latency must be within this share of the untraced p50.
constexpr double kStageSumTolerance = 0.25;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t next = text.find(',', pos);
    if (next == std::string::npos) next = text.size();
    out.push_back(std::stod(text.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

Params ParseArgs(int argc, char** argv) try {
  Params p;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad argument " + key);
    const std::string v = argv[i + 1];
    const std::string k = key.substr(2);
    if (k == "workload") p.workload = v;
    else if (k == "seed") p.seed = std::stoull(v);
    else if (k == "seconds") p.seconds = std::stod(v);
    else if (k == "trace") p.trace = v == "1";
    else if (k == "spans") p.spans_path = v;
    else if (k == "corpus") p.corpus = std::stoi(v);
    else if (k == "zipf_s") { p.zipf = true; p.zipf_s = std::stod(v); }
    else if (k == "cache_mb") { p.cache = true; p.cache_mb = std::stod(v); }
    else if (k == "adaptive") p.adaptive = v == "1";
    else if (k == "slo_frac") p.slo_frac = std::stod(v);
    else if (k == "burst") p.burst = v == "1";
    else if (k == "low_rate") p.low_rate = std::stod(v);
    else if (k == "high_rate") p.high_rate = std::stod(v);
    else if (k == "ladder") p.ladder = ParseList(v);
    else Usage("unknown option " + key);
  }
  if (p.workload.empty()) Usage("--workload is required");
  if (p.low_rate <= 0 || p.high_rate <= 0 || p.ladder.empty()) {
    Usage("--low_rate, --high_rate and --ladder are required");
  }
  if (p.seconds <= 0 || p.corpus <= 0) {
    Usage("--seconds and --corpus must be positive");
  }
  return p;
} catch (const std::exception& e) {
  Usage(std::string("bad number: ") + e.what());
}

// --- Per-request record -----------------------------------------------------

// Which measurement a request belongs to.
enum class Set : uint8_t {
  kWarmup,    ///< warm-up closed loop (not measured)
  kCapacity,  ///< closed-loop capacity bracket
  kLow,       ///< low rate (calm before a burst)
  kHigh,      ///< high rate (the burst)
  kRecovery,  ///< calm after a burst
  kLadder,    ///< max_rate_ims ladder step
};

// Everything the harness learns about one request, in nanoseconds since the
// run's time origin. The generator writes the request side before Submit;
// the reply callback writes the reply side and then bumps the run's
// completion counter (release), which the generator acquires before it reads
// any reply field. The decode wrapper and the device wrapper write the
// traced timestamps on worker / batcher threads before the reply fires.
struct Record {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;      ///< Submit() entered
  int64_t submitted_ns = 0;   ///< Submit() returned
  int64_t decode_start_ns = 0;  ///< traced: decode entered (0 = no decode)
  int64_t decode_end_ns = 0;
  int64_t batch_start_ns = 0;   ///< traced: device batch that served it
  int64_t batch_end_ns = 0;
  int64_t reply_ns = 0;
  Set set = Set::kWarmup;
  int decode_denom = 0;
  StatusCode status = StatusCode::kOk;
  RequestClass klass = RequestClass::kBestAccuracy;
  RequestClass reply_klass = RequestClass::kBestAccuracy;
  int rung = 0;
  bool label_ok = false;
  std::atomic<uint32_t> replies{0};

  /// Answered, and OK.
  bool ok() const {
    return replies.load(std::memory_order_relaxed) > 0 &&
           status == StatusCode::kOk;
  }
};

// The device batch that the current batcher thread last executed. The
// server fires a batch's reply callbacks on the thread that executed it,
// right after ExecuteBatch returns, so the callback reads its batch here.
thread_local int64_t tls_batch_start_ns = 0;
thread_local int64_t tls_batch_end_ns = 0;

// --- Device wrapper (hw layer) ----------------------------------------------

// Times ExecuteBatch calls on the wrapped device while tracing is on:
// per-batch duration, chunks per batch, and the union of busy intervals.
class TimedDevice final : public smol::Device {
 public:
  TimedDevice(std::shared_ptr<smol::Device> inner,
              const std::atomic<bool>* tracing, Clock::time_point origin)
      : inner_(std::move(inner)), tracing_(tracing), origin_(origin) {}

  void ExecuteBatch(int batch_size, size_t input_bytes, bool pinned,
                    int chunks) override {
    if (!tracing_->load(std::memory_order_relaxed)) {
      inner_->ExecuteBatch(batch_size, input_bytes, pinned, chunks);
      return;
    }
    const int64_t start = Now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (in_flight_++ == 0) busy_since_ = start;
    }
    inner_->ExecuteBatch(batch_size, input_bytes, pinned, chunks);
    const int64_t end = Now();
    tls_batch_start_ns = start;
    tls_batch_end_ns = end;
    std::lock_guard<std::mutex> lock(mu_);
    if (--in_flight_ == 0) busy_ns_ += end - busy_since_;
    batches_.push_back({start, end, batch_size, chunks});
  }
  void Drain() override { inner_->Drain(); }
  smol::DeviceStats stats() const override { return inner_->stats(); }
  double capacity_ims() const override { return inner_->capacity_ims(); }
  const std::string& name() const override { return inner_->name(); }

  struct Batch {
    int64_t start_ns, end_ns;
    int size, chunks;
  };
  /// Batches recorded so far and the accumulated busy time.
  std::vector<Batch> batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }
  int64_t busy_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_ns_;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::shared_ptr<smol::Device> inner_;
  const std::atomic<bool>* tracing_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  int in_flight_ = 0;         // guarded by mu_
  int64_t busy_since_ = 0;    // guarded by mu_
  int64_t busy_ns_ = 0;       // guarded by mu_
  std::vector<Batch> batches_;  // guarded by mu_
};

// --- Phases -----------------------------------------------------------------

// One measured phase: a contiguous range of request ids plus the server
// statistics and timing around it.
struct Phase {
  std::string name;
  bool closed = false;  ///< closed loop (capacity) vs open loop
  bool traced = false;
  int64_t first_id = 0, end_id = 0;
  int64_t start_ns = 0, end_ns = 0;  ///< sending window
  int64_t backlog = 0;  ///< requests outstanding when sending stopped
  smol::ServerStats before, after;
  int64_t device_busy_before_ns = 0, device_busy_after_ns = 0;
  uint64_t decodes_before = 0, decodes_after = 0;
  /// Calm-burst-calm phase: burst start and end, offsets from start_ns.
  int64_t burst_start_ns = -1, burst_end_ns = -1;
  /// (time since start_ns, rung) whenever the latency-SLO rung changed.
  std::vector<std::pair<int64_t, int>> rung_changes;
};

struct Arrival {
  int64_t due_ns;  ///< offset from the phase start
  int item;
  bool slo;
  Set set;
};

class Benchmark {
 public:
  explicit Benchmark(Params params)
      : p_(std::move(params)),
        origin_(Clock::now()),
        capacity_records_(static_cast<size_t>(p_.seconds * 9000.0) + 20000),
        records_(new Record[capacity_records_]) {}

  int Run();

 private:
  using Phases = std::vector<const Phase*>;

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point TimeOf(int64_t ns) const {
    return origin_ + std::chrono::nanoseconds(ns);
  }
  const Record& R(int64_t id) const {
    return records_[static_cast<size_t>(id)];
  }

  // Inputs and servers.
  void BuildCorpus();
  smol::ServerOptions MakeOptions() const;
  smol::PipelineSpec MakeSpec() const;
  smol::DecodeIntoFn MakeDecode();
  double MeasureSetupOnce();
  int NextItem(uint64_t tag);
  std::vector<Arrival> SteadySchedule(uint64_t tag, double rate,
                                      double seconds, Set set);
  std::vector<Arrival> BurstSchedule(uint64_t tag, Phase* phase);

  // Load generation.
  void Submit(int item, bool slo, int64_t due_ns, Set set);
  void OnReply(int64_t id, const InferenceReply& reply);
  bool WaitDrained(double timeout_s);
  Phase& BeginPhase(const std::string& name, bool traced);
  void EndPhase(Phase& phase);
  const Phase* RunClosed(const std::string& name, double seconds, bool traced,
                         Set set);
  const Phase* RunOpen(Phase& phase, const std::vector<Arrival>& schedule);
  void RunPhases();
  double ClimbLadder(double step_s, std::string* note);

  // Results.
  Phases Select(bool traced, bool closed) const;
  template <typename Pred>
  std::vector<double> Collect(const Phases& phases, Pred pred) const;
  std::vector<double> LatencyMs(const Phases& phases, Set set,
                                bool best_only) const;
  double Capacity(const Phases& phases) const;
  bool CheckDrift() const;
  void CheckCorrectness();
  void CheckParity();
  void EndToEndMetrics(std::vector<double> setups);
  void PerLayerMetrics();
  std::vector<Span> BuildSpans(const Phases& phases) const;
  void WriteSpans(const std::vector<Span>& spans) const;
  void PrintResult() const;

  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Error(const std::string& what) { errors_.push_back(what); }

  Params p_;
  Clock::time_point origin_;
  std::vector<std::vector<uint8_t>> corpus_;

  // Request bookkeeping.
  const size_t capacity_records_;
  std::unique_ptr<Record[]> records_;
  int64_t sent_ = 0;  // generator thread only
  std::atomic<int64_t> done_{0};
  std::atomic<int64_t> duplicates_{0};
  std::atomic<bool> closed_loop_{false};
  std::mutex wake_mu_;  // pairs with wake_cv_ (closed-loop completions)
  std::condition_variable wake_cv_;

  // Layer probes.
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> decodes_{0};        // main server decodes
  std::atomic<uint64_t> decode_errors_{0};  // main server decode failures
  std::mutex producer_mu_;
  std::set<std::thread::id> producer_threads_;  // guarded by producer_mu_
  std::shared_ptr<TimedDevice> device_;
  std::unique_ptr<smol::Server> server_;

  // Per-phase cursors of the content order (one stream per phase tag).
  std::map<uint64_t, std::unique_ptr<ZipfSampler>> zipf_;
  std::map<uint64_t, int> cycle_;

  // Phases in run order, reserved up front: Phase pointers stay valid.
  std::vector<Phase> phases_;
  double max_rate_ = 0.0;
  std::string max_rate_note_;

  struct MetricValue {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<MetricValue> metrics_;
  std::vector<std::string> errors_;
};

void Benchmark::BuildCorpus() {
  const int threads = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  corpus_ = EncodeCorpus(SubSeed(p_.seed, 0xC0), kImageSize, p_.corpus,
                         threads);
  if (corpus_.empty()) Usage("corpus encode failed");
}

smol::PipelineSpec Benchmark::MakeSpec() const {
  // The standard resize/crop geometry of the system-optimization benches.
  smol::PipelineSpec spec;
  spec.input_width = kImageSize;
  spec.input_height = kImageSize;
  spec.resize_short_side = kImageSize * 3 / 4;
  spec.crop_width = kImageSize * 2 / 3;
  spec.crop_height = kImageSize * 2 / 3;
  return spec;
}

smol::ServerOptions Benchmark::MakeOptions() const {
  smol::ServerOptions opts;
  opts.overload = smol::OverloadPolicy::kShed;  // open-loop traffic
  opts.cache.enable_tensor_cache = p_.cache;
  opts.cache.tensor_cache_bytes =
      static_cast<size_t>(p_.cache_mb * 1024.0 * 1024.0);
  if (p_.adaptive) {
    opts.adaptive.ladder_scales = {1.0, 0.75, 0.55};
    opts.adaptive.controller.sample_interval_us = 5000.0;
    opts.adaptive.controller.degrade_p99_us = kLimitMs * 1000.0;
  }
  return opts;
}

smol::DecodeIntoFn Benchmark::MakeDecode() {
  // The codec call the server makes for every non-cached request. The
  // argument is the pipeline's decode descriptor (bytes, label, ROI, decode
  // denominator); the label is the request id this harness assigned, -1 on
  // set-up probes.
  return [this](const auto& item, smol::Image* out) -> smol::Status {
    smol::SjpgDecodeOptions opts;
    opts.roi = item.roi;
    if (item.roi.empty()) opts.scale_denom = item.decode_scale_denom;
    const int64_t id = item.label;
    if (id < 0) return smol::SjpgDecodeInto(*item.bytes, opts, out);
    decodes_.fetch_add(1, std::memory_order_relaxed);
    const bool traced = tracing_.load(std::memory_order_relaxed);
    const int64_t start = traced ? Now() : 0;
    smol::Status status = smol::SjpgDecodeInto(*item.bytes, opts, out);
    if (!status.ok()) decode_errors_.fetch_add(1, std::memory_order_relaxed);
    if (!traced || static_cast<size_t>(id) >= capacity_records_) return status;
    Record& r = records_[static_cast<size_t>(id)];
    r.decode_start_ns = start;
    r.decode_end_ns = Now();
    r.decode_denom = opts.scale_denom;
    std::lock_guard<std::mutex> lock(producer_mu_);
    producer_threads_.insert(std::this_thread::get_id());
    return status;
  };
}

// One set-up: fresh Server construction (plan / ladder compile, thread
// start) until its first OK reply. Teardown is not timed.
double Benchmark::MeasureSetupOnce() {
  const auto start = Clock::now();
  smol::Server server(
      MakeOptions(), MakeSpec(), MakeDecode(),
      std::make_shared<smol::SimAccelerator>(smol::SimAccelerator::Options{}));
  smol::InferenceRequest request;
  request.bytes = &corpus_[0];
  request.label = -1;
  const InferenceReply reply = server.Submit(request).get();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!reply.ok()) Error("set-up probe failed: " + reply.status.ToString());
  return seconds;
}

int Benchmark::NextItem(uint64_t tag) {
  if (p_.zipf) {
    auto& sampler = zipf_[tag];
    if (!sampler) {
      sampler = std::make_unique<ZipfSampler>(p_.corpus, p_.zipf_s,
                                              SubSeed(p_.seed, tag));
    }
    return sampler->Next();
  }
  auto it = cycle_.find(tag);
  if (it == cycle_.end()) {
    const auto start = static_cast<int>(SubSeed(p_.seed, tag) %
                                        static_cast<uint64_t>(p_.corpus));
    it = cycle_.emplace(tag, start).first;
  }
  const int item = it->second;
  it->second = (item + 1) % p_.corpus;
  return item;
}

std::vector<Arrival> Benchmark::SteadySchedule(uint64_t tag, double rate,
                                               double seconds, Set set) {
  const auto due = PoissonArrivals(SubSeed(p_.seed, tag), rate, seconds);
  const auto slo =
      ClassMix(SubSeed(p_.seed, tag + 0x100), due.size(), p_.slo_frac);
  std::vector<Arrival> schedule(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    schedule[i] = {due[i], NextItem(tag), static_cast<bool>(slo[i]), set};
  }
  return schedule;
}

// calm (low_rate) -> burst (high_rate) -> calm, back to back; the burst
// bounds go to \p phase for the controller lags.
std::vector<Arrival> Benchmark::BurstSchedule(uint64_t tag, Phase* phase) {
  const double S = p_.seconds;
  const struct {
    double rate, seconds;
    Set set;
  } segments[3] = {{p_.low_rate, 0.04 * S, Set::kLow},
                   {p_.high_rate, 0.028 * S, Set::kHigh},
                   {p_.low_rate, 0.022 * S, Set::kRecovery}};
  std::vector<Arrival> schedule;
  int64_t offset = 0;
  for (int s = 0; s < 3; ++s) {
    if (s == 1) phase->burst_start_ns = offset;
    if (s == 2) phase->burst_end_ns = offset;
    for (Arrival a : SteadySchedule(tag + static_cast<uint64_t>(s) * 0x1000,
                                    segments[s].rate, segments[s].seconds,
                                    segments[s].set)) {
      a.due_ns += offset;
      schedule.push_back(a);
    }
    offset += static_cast<int64_t>(segments[s].seconds * 1e9);
  }
  return schedule;
}

void Benchmark::Submit(int item, bool slo, int64_t due_ns, Set set) {
  const int64_t id = sent_;
  if (static_cast<size_t>(id) >= capacity_records_) {
    Usage("request record capacity exceeded");
  }
  Record& r = records_[static_cast<size_t>(id)];
  r.due_ns = due_ns;
  r.set = set;
  r.klass = slo ? RequestClass::kLatencySlo : RequestClass::kBestAccuracy;
  smol::InferenceRequest request;
  request.bytes = &corpus_[static_cast<size_t>(item)];
  request.label = static_cast<int>(id);
  request.klass = r.klass;
  if (slo) {
    request.deadline =
        TimeOf(due_ns + static_cast<int64_t>(kDeadlineMs * 1e6));
  }
  ++sent_;
  r.submit_ns = Now();
  server_->Submit(std::move(request), [this, id](const InferenceReply& reply) {
    OnReply(id, reply);
  });
  r.submitted_ns = Now();
}

void Benchmark::OnReply(int64_t id, const InferenceReply& reply) {
  const int64_t now = Now();
  Record& r = records_[static_cast<size_t>(id)];
  if (r.replies.fetch_add(1, std::memory_order_relaxed) == 0) {
    r.reply_ns = now;
    r.status = reply.status.code();
    r.reply_klass = reply.klass;
    r.rung = reply.plan_rung;
    r.label_ok = reply.label == id;
    if (reply.ok() && tracing_.load(std::memory_order_relaxed)) {
      r.batch_start_ns = tls_batch_start_ns;
      r.batch_end_ns = tls_batch_end_ns;
    }
  } else {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
  }
  done_.fetch_add(1, std::memory_order_release);
  if (closed_loop_.load(std::memory_order_relaxed)) {
    // Taking the mutex after the increment orders it before the waiter's
    // predicate check, so the notification cannot be lost.
    { std::lock_guard<std::mutex> lock(wake_mu_); }
    wake_cv_.notify_one();
  }
}

bool Benchmark::WaitDrained(double timeout_s) {
  const int64_t deadline = Now() + static_cast<int64_t>(timeout_s * 1e9);
  while (done_.load(std::memory_order_acquire) < sent_) {
    if (Now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

Phase& Benchmark::BeginPhase(const std::string& name, bool traced) {
  if (phases_.size() == phases_.capacity()) Usage("too many phases");
  Phase& phase = phases_.emplace_back();
  phase.name = name;
  phase.traced = traced;
  tracing_.store(traced, std::memory_order_relaxed);
  phase.first_id = sent_;
  phase.before = server_->stats();
  phase.device_busy_before_ns = device_->busy_ns();
  phase.decodes_before = decodes_.load();
  phase.start_ns = Now();
  return phase;
}

void Benchmark::EndPhase(Phase& phase) {
  phase.end_id = sent_;
  phase.backlog = sent_ - done_.load(std::memory_order_acquire);
  if (!WaitDrained(30.0)) {
    Error("phase " + phase.name + ": replies missing 30 s after sending");
  }
  phase.after = server_->stats();
  phase.device_busy_after_ns = device_->busy_ns();
  phase.decodes_after = decodes_.load();
  tracing_.store(false, std::memory_order_relaxed);
}

// Closed loop: keep kInflight requests outstanding for \p seconds.
const Phase* Benchmark::RunClosed(const std::string& name, double seconds,
                                  bool traced, Set set) {
  Phase& phase = BeginPhase(name, traced);
  phase.closed = true;
  const uint64_t tag = std::hash<std::string>{}(name) + phases_.size();
  phase.end_ns = phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  closed_loop_ = true;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait_until(lock, TimeOf(phase.end_ns), [&] {
        return sent_ - done_.load(std::memory_order_acquire) < kInflight;
      });
    }
    const int64_t now = Now();
    if (now >= phase.end_ns) break;
    Submit(NextItem(tag), /*slo=*/false, now, set);
  }
  closed_loop_ = false;
  EndPhase(phase);
  return &phase;
}

// Open loop: submit each arrival at its due time, whatever the replies do.
// With the adaptive ladder on, also watch the latency-SLO rung, until it
// recovers (at most 2 s after the last arrival) so the recovery lag is
// observable.
const Phase* Benchmark::RunOpen(Phase& phase,
                                const std::vector<Arrival>& schedule) {
  phase.start_ns = Now() + 1000000;  // 1 ms lead-in
  int rung = server_->ActiveRung(RequestClass::kLatencySlo);
  auto poll_rung = [&] {
    const int now_rung = server_->ActiveRung(RequestClass::kLatencySlo);
    if (now_rung != rung) {
      phase.rung_changes.push_back({Now() - phase.start_ns, now_rung});
      rung = now_rung;
    }
  };
  for (const Arrival& a : schedule) {
    const int64_t due = phase.start_ns + a.due_ns;
    if (due > Now()) std::this_thread::sleep_until(TimeOf(due));
    Submit(a.item, a.slo, due, a.set);
    if (p_.adaptive) poll_rung();
  }
  phase.end_ns =
      phase.start_ns + (schedule.empty() ? 1 : schedule.back().due_ns + 1);
  const int64_t watch_until = Now() + 2000000000LL;
  while (p_.adaptive && rung != 0 && Now() < watch_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    poll_rung();
  }
  EndPhase(phase);
  return &phase;
}

// Phase plan, as shares of --seconds. The measured phases run in cycles so
// that each metric samples the whole run and minute-scale host noise
// averages out:
//
//   warm-up .04, then per cycle: capacity .05 (closed loop), then
//     steady workload:  low .04, high .028
//     burst workload:   calm .04 -> burst .028 -> calm .022, back to back
//   5 cycles (burst: 4), then the rate ladder (<= .30), then a last
//   capacity bracket .05.
//
// A traced run has no ladder and 7 cycles (burst: 6) instead; odd cycles are
// traced, so traced and untraced measurements interleave.
void Benchmark::RunPhases() {
  const double S = p_.seconds;
  const int cycles = p_.trace ? (p_.burst ? 6 : 7) : (p_.burst ? 4 : 5);
  phases_.reserve(static_cast<size_t>(4 * cycles) + p_.ladder.size() + 4);
  RunClosed("warmup", 0.04 * S, false, Set::kWarmup);
  for (int c = 0; c < cycles; ++c) {
    const bool traced = p_.trace && c % 2 == 1;
    const uint64_t tag = 0x100000 * static_cast<uint64_t>(c + 1);
    RunClosed("capacity", 0.05 * S, traced, Set::kCapacity);
    if (p_.burst) {
      Phase& phase = BeginPhase("calm_burst_calm", traced);
      RunOpen(phase, BurstSchedule(tag, &phase));
    } else {
      RunOpen(BeginPhase("low", traced),
              SteadySchedule(tag, p_.low_rate, 0.04 * S, Set::kLow));
      RunOpen(BeginPhase("high", traced),
              SteadySchedule(tag + 1, p_.high_rate, 0.028 * S, Set::kHigh));
    }
  }
  if (!p_.trace) {
    max_rate_ = ClimbLadder(std::min(0.06 * S, 0.30 * S / p_.ladder.size()),
                            &max_rate_note_);
  }
  RunClosed("capacity", 0.05 * S, false, Set::kCapacity);
}

// max_rate_ims: climbs the fixed ladder of rates until a step serves less
// than 99% of its requests OK within the latency limit (p99 <= limit with
// failed and shed requests counted as missing it; the share is the better
// quartile over chunks of the step) or ends with more requests outstanding
// than the limit's worth of arrivals (backlog growth). The result is the 99%
// crossing, interpolated between the last passing and the first failing
// step.
double Benchmark::ClimbLadder(double step_s, std::string* note) {
  const double limit_ns = kLimitMs * 1e6;
  double prev_rate = 0.0, prev_share = 1.0;
  for (size_t k = 0; k < p_.ladder.size(); ++k) {
    const double rate = p_.ladder[k];
    const Phase* step =
        RunOpen(BeginPhase("ladder", false),
                SteadySchedule(0x40 + k, rate, step_s, Set::kLadder));
    const auto within = Collect({step}, [&](const Record& r, double& v) {
      v = r.ok() &&
                  static_cast<double>(r.reply_ns - r.due_ns) <= limit_ns
              ? 1.0
              : 0.0;
      return true;
    });
    const double share = ChunkedMean(within, kChunk, 1.0 - kBetterQuartile);
    const bool backlog =
        static_cast<double>(step->backlog) > rate * kLimitMs / 1000.0;
    const bool pass = share >= 0.99 && !backlog;
    std::fprintf(stderr,
                 "  ladder %6.0f im/s: %6.2f%% within %g ms, backlog %lld"
                 "  %s\n",
                 rate, share * 100.0, kLimitMs,
                 static_cast<long long>(step->backlog), pass ? "pass" : "FAIL");
    if (pass) {
      prev_rate = rate;
      prev_share = share;
      if (k + 1 == p_.ladder.size()) *note = " (ladder top)";
      continue;
    }
    if (k == 0) *note = " (below the ladder)";
    if (share >= 0.99) return prev_rate;  // failed on backlog alone
    const double frac = (prev_share - 0.99) / (prev_share - share);
    return prev_rate + (rate - prev_rate) * std::clamp(frac, 0.0, 1.0);
  }
  return prev_rate;
}

// --- Results ----------------------------------------------------------------

// The cycle phases that are (not) traced and closed / open loop.
Benchmark::Phases Benchmark::Select(bool traced, bool closed) const {
  Phases out;
  for (const Phase& phase : phases_) {
    if (phase.name == "warmup" || phase.name == "ladder") continue;
    if (phase.traced == traced && phase.closed == closed) out.push_back(&phase);
  }
  return out;
}

template <typename Pred>
std::vector<double> Benchmark::Collect(const Phases& phases, Pred pred) const {
  std::vector<double> out;
  for (const Phase* phase : phases) {
    for (int64_t id = phase->first_id; id < phase->end_id; ++id) {
      double value = 0.0;
      if (pred(R(id), value)) out.push_back(value);
    }
  }
  return out;
}

// Latency from due time of the OK replies of one request set, in arrival
// order.
std::vector<double> Benchmark::LatencyMs(const Phases& phases, Set set,
                                         bool best_only) const {
  return Collect(phases, [&](const Record& r, double& v) {
    if (!r.ok() || r.set != set) return false;
    if (best_only && r.klass != RequestClass::kBestAccuracy) return false;
    v = static_cast<double>(r.reply_ns - r.due_ns) / 1e6;
    return true;
  });
}

// Capacity: OK completions per window of about 0.5 s inside the closed-loop
// sending windows of the given phases; the better quartile over windows, as
// interference only ever lowers a window's throughput.
double Benchmark::Capacity(const Phases& phases) const {
  std::vector<double> rates;
  for (const Phase* phase : phases) {
    const int64_t span = phase->end_ns - phase->start_ns;
    const int64_t windows = std::max<int64_t>(1, span / 500000000);
    const int64_t width = span / windows;
    std::vector<double> counts(static_cast<size_t>(windows), 0.0);
    for (int64_t id = phase->first_id; id < phase->end_id; ++id) {
      if (!R(id).ok()) continue;
      const int64_t w = (R(id).reply_ns - phase->start_ns) / width;
      if (w >= 0 && w < windows) counts[static_cast<size_t>(w)] += 1.0;
    }
    for (double c : counts) {
      rates.push_back(c * 1e9 / static_cast<double>(width));
    }
  }
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  return Quantile(rates, 1.0 - kBetterQuartile);
}

// The untraced capacity brackets of the first half of the run must agree
// with those of the second half: when the host's speed moved more than the
// stated bound during the run, its numbers mean nothing and the run says so
// instead of reporting them.
bool Benchmark::CheckDrift() const {
  const Phases brackets = Select(false, true);
  const size_t half = brackets.size() / 2;
  const double before =
      Capacity(Phases(brackets.begin(), brackets.begin() + half));
  const double after = Capacity(Phases(brackets.end() - half, brackets.end()));
  const double drift = std::fabs(after / before - 1.0);
  std::fprintf(stderr,
               "  capacity first half %.1f im/s, second half %.1f im/s\n",
               before, after);
  if (drift <= kDriftBound) return true;
  std::fprintf(stderr,
               "perfbench: DRIFT on workload %s: capacity %.1f im/s in the "
               "first half of the run, %.1f im/s in the second (%.1f%% > "
               "%.1f%% bound); the measurement is not steady, no result\n",
               p_.workload.c_str(), before, after, drift * 100.0,
               kDriftBound * 100.0);
  return false;
}

// Decode a few corpus images at every ladder rung's denominator and require
// the zero-copy executor to match the reference executor byte for byte.
void Benchmark::CheckParity() {
  smol::PreprocScratch scratch;
  for (const smol::PlanRung& rung : server_->ladder()) {
    for (uint64_t k = 0; k < 3; ++k) {
      const size_t item = static_cast<size_t>(
          SubSeed(p_.seed, 0x9A + k) % static_cast<uint64_t>(p_.corpus));
      smol::SjpgDecodeOptions dopts;
      dopts.scale_denom = rung.decode_scale_denom;
      auto decoded = smol::SjpgDecode(corpus_[item], dopts);
      if (!decoded.ok()) {
        Error("parity: decode failed at " + rung.name);
        continue;
      }
      auto ref = smol::ExecutePlan(rung.plan, rung.spec, *decoded);
      if (!ref.ok()) {
        Error("parity: ExecutePlan failed at " + rung.name);
        continue;
      }
      std::vector<float> dst(ref->data.size(), -1.0f);
      auto written = smol::ExecutePlanInto(rung.plan, rung.spec, *decoded,
                                           scratch, dst.data(), dst.size());
      if (!written.ok() || *written != ref->data.size() ||
          std::memcmp(dst.data(), ref->data.data(),
                      dst.size() * sizeof(float)) != 0) {
        Error("parity: ExecutePlanInto differs from ExecutePlan at " +
              rung.name);
      }
    }
  }
}

// Every reply is checked after the server has drained and shut down.
void Benchmark::CheckCorrectness() {
  struct Count {
    uint64_t sent = 0, ok = 0, shed = 0, failed = 0, expired = 0,
             degraded = 0;
  };
  Count per_class[smol::kNumRequestClasses];
  int64_t bad_status = 0, bad_label = 0, bad_rung = 0, bad_klass = 0,
          missing = 0;
  for (int64_t id = 0; id < sent_; ++id) {
    const Record& r = R(id);
    Count& c = per_class[static_cast<int>(r.klass)];
    ++c.sent;
    if (r.replies.load() == 0) {
      ++missing;
      continue;
    }
    if (!r.label_ok) ++bad_label;
    if (r.reply_klass != r.klass) ++bad_klass;
    switch (r.status) {
      case StatusCode::kOk:
        ++c.ok;
        if (r.rung > 0) ++c.degraded;
        if (r.klass == RequestClass::kBestAccuracy && r.rung != 0) ++bad_rung;
        break;
      case StatusCode::kResourceExhausted:
        ++c.shed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++c.failed;
        ++c.expired;
        break;
      default:
        ++c.failed;
        ++bad_status;
    }
  }
  auto report = [&](int64_t n, const char* what) {
    if (n > 0) Error(std::to_string(n) + " " + what);
  };
  report(missing, "requests got no reply");
  report(duplicates_.load(), "duplicate replies");
  report(bad_label, "replies carried another request's label");
  report(bad_klass, "replies echoed the wrong request class");
  report(bad_status,
         "replies had a status other than OK, ResourceExhausted or "
         "DeadlineExceeded");
  report(bad_rung, "kBestAccuracy replies were served at plan_rung > 0");
  report(static_cast<int64_t>(decode_errors_.load()), "decode errors");

  // Client counts must reconcile with the server's own, in total and per
  // class.
  const smol::ServerStats s = server_->stats();
  Count total;
  for (int k = 0; k < smol::kNumRequestClasses; ++k) {
    const Count& c = per_class[k];
    total.sent += c.sent;
    total.ok += c.ok;
    total.shed += c.shed;
    total.failed += c.failed;
    total.expired += c.expired;
    total.degraded += c.degraded;
    if (static_cast<size_t>(k) >= s.classes.size()) {
      Error("ServerStats has no class " + std::to_string(k));
      continue;
    }
    const smol::ClassStats& cs = s.classes[static_cast<size_t>(k)];
    if (cs.submitted != c.sent - c.shed || cs.completed != c.ok ||
        cs.shed != c.shed || cs.failed != c.failed ||
        cs.degraded != c.degraded) {
      Error(std::string("class ") + smol::RequestClassName(cs.klass) +
            " counts disagree with ServerStats");
    }
  }
  if (s.submitted != total.sent - total.shed || s.completed != total.ok ||
      s.shed != total.shed || s.failed != total.failed ||
      s.deadline_expired != total.expired) {
    Error("client totals disagree with ServerStats");
  }
  // Every decode is a cache miss and vice versa (no decode without a miss).
  if (p_.cache && decodes_.load() != s.tensor_cache.misses) {
    Error("decodes (" + std::to_string(decodes_.load()) +
          ") != tensor cache misses (" +
          std::to_string(s.tensor_cache.misses) + ")");
  }
}

// Per-request span tree of the traced phases (times relative to the origin):
//
//   request                   [due, reply]
//     harness.gen_late        [due, Submit entered]
//     runtime.submit          [Submit entered, Submit returned]
//     runtime.admission       [Submit returned, decode entered]
//     codec.decode            [decode entered, decode returned]
//     runtime.post_decode     [decode returned, reply]
//       hw.device             [the serving batch's ExecuteBatch call]
//
// Cache hits and rejected requests have no decode; their wait after Submit
// is one runtime.serve span (with hw.device under it for a hit).
std::vector<Span> Benchmark::BuildSpans(
    const std::vector<const Phase*>& phases) const {
  std::vector<Span> spans;
  for (const Phase* phase : phases) {
    for (int64_t id = phase->first_id; id < phase->end_id; ++id) {
      const Record& r = R(id);
      const int root = static_cast<int>(spans.size());
      spans.push_back({"request", r.due_ns, r.reply_ns, -1, id});
      spans.push_back({"harness.gen_late", r.due_ns, r.submit_ns, root, id});
      // Submit may return after a worker already began decoding, or after
      // the reply fired inside it (shed); the submit span ends at whichever
      // comes first.
      const int64_t next_event =
          r.decode_start_ns > 0 ? r.decode_start_ns : r.reply_ns;
      const int64_t after_submit = std::min(r.submitted_ns, next_event);
      spans.push_back({"runtime.submit", r.submit_ns, after_submit, root, id});
      int wait = -1;
      if (r.decode_start_ns > 0) {
        spans.push_back({"runtime.admission", after_submit, r.decode_start_ns,
                         root, id});
        spans.push_back({"codec.decode", r.decode_start_ns, r.decode_end_ns,
                         root, id});
        wait = static_cast<int>(spans.size());
        spans.push_back({"runtime.post_decode", r.decode_end_ns, r.reply_ns,
                         root, id});
      } else {
        wait = static_cast<int>(spans.size());
        spans.push_back({"runtime.serve", after_submit, r.reply_ns, root, id});
      }
      if (r.ok() && r.batch_end_ns > 0) {
        spans.push_back({"hw.device", r.batch_start_ns, r.batch_end_ns, wait,
                         id});
      }
    }
  }
  return spans;
}

void Benchmark::WriteSpans(const std::vector<Span>& spans) const {
  if (p_.spans_path.empty()) return;
  FILE* f = std::fopen(p_.spans_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", p_.spans_path.c_str());
    return;
  }
  std::fprintf(f, "index,name,start_us,end_us,parent,request_id\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%.3f,%.3f,%d,%lld\n", i, s.name.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3, s.parent,
                 static_cast<long long>(s.request_id));
  }
  std::fclose(f);
}

void PrintPercentile(const char* name, const Percentile& p) {
  std::fprintf(stderr,
               "  %-24s p%-6g %9.3f ms  (n=%zu, best of %zu chunks)\n",
               name, p.quantile * 100.0, p.value, p.count, p.chunks);
}

double Median(std::vector<double> v) {
  return v.empty() ? 0.0 : ReportPercentile(v, 0.5).value;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return num / std::max(den, 1e-9); }

// End-to-end metrics of the untraced cycles. "low" and "high" are the two
// fixed rates on a steady workload, and the calm before each burst and the
// burst itself on a burst workload. Where every request is kBestAccuracy,
// best_p99_ms equals p99_ms.high.
void Benchmark::EndToEndMetrics(std::vector<double> setups) {
  const Phases open = Select(false, false);
  const auto low_lat = LatencyMs(open, Set::kLow, false);
  const auto high_lat = LatencyMs(open, Set::kHigh, false);
  // kBestAccuracy latency under load: at the high rate, or in the burst.
  const auto best_lat = LatencyMs(open, Set::kHigh, true);
  const Percentile p50_low = Summarize(low_lat, 0.5);
  const Percentile p99_low = Summarize(low_lat, 0.99);
  const Percentile p50_high = Summarize(high_lat, 0.5);
  const Percentile p99_high = Summarize(high_lat, 0.99);
  const Percentile best_p99 = Summarize(best_lat, 0.99);

  // Goodput, failures and degradation over the offered open-loop windows.
  double window_s = 0.0, sent = 0.0, failed = 0.0, ok = 0.0, degraded = 0.0,
         good = 0.0;
  for (const Phase* phase : open) {
    window_s += static_cast<double>(phase->end_ns - phase->start_ns) / 1e9;
    for (int64_t id = phase->first_id; id < phase->end_id; ++id) {
      const Record& r = R(id);
      sent += 1.0;
      if (!r.ok()) {
        failed += 1.0;
        continue;
      }
      ok += 1.0;
      if (r.rung > 0) degraded += 1.0;
      if (static_cast<double>(r.reply_ns - r.due_ns) <= kLimitMs * 1e6) {
        good += 1.0;
      }
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);

  const double setup = Median(setups);
  Metric("setup_s", setup, "s");
  Metric("capacity_ims", Capacity(Select(false, true)), "im/s");
  Metric("p50_ms.low", p50_low.value, "ms");
  Metric("p99_ms.low", p99_low.value, "ms");
  Metric("p50_ms.high", p50_high.value, "ms");
  Metric("p99_ms.high", p99_high.value, "ms");
  if (!p_.trace) Metric("max_rate_ims", max_rate_, "im/s");
  Metric("goodput_ims", Ratio(good, window_s), "im/s");
  Metric("fail_frac", Ratio(failed, sent), "fraction");
  Metric("degraded_frac", Ratio(degraded, ok), "fraction");
  Metric("best_p99_ms", best_p99.value, "ms");
  Metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");

  std::fprintf(stderr, "  set-up median %.4f s over %zu servers\n", setup,
               setups.size());
  PrintPercentile("latency low", p50_low);
  PrintPercentile("latency low", p99_low);
  PrintPercentile("latency high", p50_high);
  PrintPercentile("latency high", p99_high);
  PrintPercentile("best-accuracy latency", best_p99);
  if (!p_.trace) {
    std::fprintf(stderr, "  max_rate %.1f im/s%s at p99 <= %g ms\n", max_rate_,
                 max_rate_note_.c_str(), kLimitMs);
  }
}

// Per-layer metrics of the traced cycles, each from the calls this harness
// timed around a layer or from ServerStats deltas over the same phases.
void Benchmark::PerLayerMetrics() {
  using Stats = smol::ServerStats;
  const Phases closed = Select(true, true);
  const Phases open = Select(true, false);
  Phases traced = closed;
  traced.insert(traced.end(), open.begin(), open.end());
  // Sum of a ServerStats field's change over \p phases.
  auto delta = [](const Phases& phases, auto field) {
    double sum = 0.0;
    for (const Phase* ph : phases) {
      sum += static_cast<double>(field(ph->after)) -
             static_cast<double>(field(ph->before));
    }
    return sum;
  };
  auto decodes_in = [](const Phases& phases) {
    double sum = 0.0;
    for (const Phase* ph : phases) {
      sum += static_cast<double>(ph->decodes_after - ph->decodes_before);
    }
    return sum;
  };
  auto seconds_in = [](const Phases& phases) {
    double sum = 0.0;
    for (const Phase* ph : phases) {
      sum += static_cast<double>(ph->end_ns - ph->start_ns) / 1e9;
    }
    return sum;
  };

  // codec: the decode function the server calls.
  auto decode_us = [](int denom) {
    return [denom](const Record& r, double& v) {
      if (r.decode_start_ns == 0) return false;
      if (denom > 0 && r.decode_denom != denom) return false;
      v = static_cast<double>(r.decode_end_ns - r.decode_start_ns) / 1e3;
      return true;
    };
  };
  const auto all_decodes = Collect(traced, decode_us(0));
  Metric("codec.decode_us.p50", Median(all_decodes), "us");
  Metric("codec.decode_us.mean", Mean(all_decodes), "us");
  Metric("codec.decode_us.denom2", Mean(Collect(traced, decode_us(2))), "us");
  Metric("codec.decodes", decodes_in(traced), "count");
  Metric("codec.decode_errors", static_cast<double>(decode_errors_.load()),
         "count");

  // preproc and producer occupancy, over the traced closed loops.
  const double preproc_s =
      delta(closed, [](const Stats& s) { return s.preprocess_seconds; });
  const double decode_s =
      delta(closed, [](const Stats& s) { return s.decode_seconds; });
  Metric("preproc.us_per_image", Ratio(preproc_s * 1e6, decodes_in(closed)),
         "us");
  double producers = 0.0;
  {
    std::lock_guard<std::mutex> lock(producer_mu_);
    producers = static_cast<double>(producer_threads_.size());
  }
  Metric("runtime.producer_busy_frac",
         Ratio(decode_s + preproc_s, producers * seconds_in(closed)),
         "fraction");

  // runtime: admission wait (due -> decode entry) at high load, and the
  // post-decode path (preproc, staging, shard queue, batch wait, device).
  const auto admission = Collect(open, [](const Record& r, double& v) {
    if (r.set != Set::kHigh || r.decode_start_ns == 0) return false;
    v = static_cast<double>(r.decode_start_ns - r.due_ns) / 1e6;
    return true;
  });
  const auto post_decode = Collect(open, [](const Record& r, double& v) {
    if (r.decode_start_ns == 0 || !r.ok()) return false;
    v = static_cast<double>(r.reply_ns - r.decode_end_ns) / 1e6;
    return true;
  });
  Metric("runtime.admission_wait_ms.p50",
         Summarize(admission, 0.5).value, "ms");
  Metric("runtime.admission_wait_ms.p99",
         Summarize(admission, 0.99).value, "ms");
  Metric("runtime.post_decode_ms.p50",
         Summarize(post_decode, 0.5).value, "ms");
  Metric("runtime.post_decode_ms.p99",
         Summarize(post_decode, 0.99).value, "ms");
  Metric("runtime.mean_batch",
         Ratio(delta(open, [](const Stats& s) { return s.completed; }),
               delta(open, [](const Stats& s) { return s.batches; })),
         "count");
  uint64_t hwm = 0;
  for (const auto& shard : phases_.back().after.shards) {
    hwm = std::max(hwm, shard.queue_depth_hwm);
  }
  Metric("runtime.shard_queue_hwm", static_cast<double>(hwm), "count");
  Metric("runtime.shed",
         delta(open, [](const Stats& s) { return s.shed; }),
         "count");
  Metric("runtime.deadline_expired",
         delta(open, [](const Stats& s) { return s.deadline_expired; }),
         "count");

  // plan controller: switches, and per burst the lag from burst start to the
  // first degrade and from burst end back to rung 0 (median over bursts).
  Metric("controller.switches",
         delta(open, [](const Stats& s) { return s.plan_switches; }),
         "count");
  std::vector<double> degrade_lags, recover_lags;
  for (const Phase* ph : open) {
    if (ph->burst_start_ns < 0) continue;
    for (const auto& [t, rung] : ph->rung_changes) {
      if (t >= ph->burst_start_ns && rung > 0) {
        degrade_lags.push_back(static_cast<double>(t - ph->burst_start_ns) /
                               1e6);
        break;
      }
    }
    for (const auto& [t, rung] : ph->rung_changes) {
      if (t >= ph->burst_end_ns && rung == 0) {
        recover_lags.push_back(static_cast<double>(t - ph->burst_end_ns) / 1e6);
        break;
      }
    }
  }
  Metric("controller.degrade_lag_ms", Median(degrade_lags), "ms");
  Metric("controller.recover_lag_ms", Median(recover_lags), "ms");
  double rung_ok[3] = {0.0, 0.0, 0.0};
  const auto ok_rungs = Collect(open, [](const Record& r, double& v) {
    v = r.rung;
    return r.ok();
  });
  for (double rung : ok_rungs) {
    if (rung >= 0 && rung < 3) rung_ok[static_cast<int>(rung)] += 1.0;
  }
  for (int n = 0; n < 3; ++n) {
    Metric("controller.rung_share." + std::to_string(n),
           Ratio(rung_ok[n], static_cast<double>(ok_rungs.size())), "fraction");
  }

  // hw: the device wrapper, over the traced open-loop phases.
  std::vector<double> batch_ms;
  double chunks = 0.0;
  for (const auto& b : device_->batches()) {
    for (const Phase* ph : open) {
      if (b.start_ns < ph->start_ns || b.start_ns > ph->end_ns) continue;
      batch_ms.push_back(static_cast<double>(b.end_ns - b.start_ns) / 1e6);
      chunks += b.chunks;
    }
  }
  double busy_ns = 0.0;
  for (const Phase* ph : open) {
    busy_ns += static_cast<double>(ph->device_busy_after_ns -
                                   ph->device_busy_before_ns);
  }
  Metric("device.batch_ms.p50", Median(batch_ms), "ms");
  Metric("device.busy_frac", Ratio(busy_ns / 1e9, seconds_in(open)),
         "fraction");
  Metric("device.chunks_per_batch",
         Ratio(chunks, static_cast<double>(batch_ms.size())), "count");

  // util: tensor cache over the traced phases; buffer pool cumulative.
  const double hits =
      delta(traced, [](const Stats& s) { return s.tensor_cache.hits; });
  const double misses = delta(
      traced, [](const Stats& s) { return s.tensor_cache.misses; });
  Metric("tensor_cache.hit_rate", Ratio(hits, hits + misses), "fraction");
  Metric("tensor_cache.insertions",
         delta(traced, [](const Stats& s) {
           return s.tensor_cache.insertions;
         }),
         "count");
  Metric("tensor_cache.evictions",
         delta(traced, [](const Stats& s) {
           return s.tensor_cache.evictions;
         }),
         "count");
  const smol::BufferPoolStats& bp = phases_.back().after.buffer_stats;
  Metric("buffer_pool.reuse_frac",
         Ratio(static_cast<double>(bp.reuses),
               static_cast<double>(bp.allocations + bp.reuses)),
         "fraction");
  Metric("buffer_pool.bytes_allocated",
         static_cast<double>(bp.bytes_allocated), "bytes");

  // harness: generator lateness, tracing overhead (traced against untraced
  // capacity brackets, interleaved), and the stage-sum check.
  auto late = Collect(open, [](const Record& r, double& v) {
    v = static_cast<double>(r.submit_ns - r.due_ns) / 1e6;
    return true;
  });
  Metric("harness.gen_late_ms.p99", Summarize(late, 0.99).value,
         "ms");
  Metric("harness.gen_late_ms.max",
         late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
         "ms");
  const double cap_untraced = Capacity(Select(false, true));
  Metric("harness.trace_overhead_frac",
         Ratio(cap_untraced - Capacity(closed), cap_untraced), "fraction");

  // Spans of the traced open-loop phases: latency at the fixed rates.
  const std::vector<Span> spans = BuildSpans(open);
  // Per request, the stages must tile the latency from the due time: the
  // root span's self time is at most 1 us (timer resolution).
  const std::vector<int64_t> self = SelfTimes(spans);
  int64_t untiled = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && std::llabs(self[i]) > 1000) ++untiled;
  }
  if (untiled > 0) {
    Error(std::to_string(untiled) +
          " traced requests whose stages do not add up to their latency");
  }
  // The traced stage sum (= traced latency) against untraced latency at the
  // low rate, p50 over the interleaved cycles.
  const double ratio =
      Ratio(Median(LatencyMs(open, Set::kLow, false)),
            Median(LatencyMs(Select(false, false), Set::kLow, false)));
  Metric("harness.stage_sum_vs_untraced", ratio, "ratio");
  if (std::fabs(ratio - 1.0) > kStageSumTolerance) {
    Error("traced p50 latency differs from the untraced p50 by more than " +
          std::to_string(kStageSumTolerance));
  }
  // Self time per layer, per traced request.
  double requests = 0.0;
  for (const Span& s : spans) requests += s.parent < 0 ? 1.0 : 0.0;
  const auto by_layer = SelfTimeByLayer(spans);
  for (const char* layer : {"harness", "runtime", "codec", "hw"}) {
    const auto it = by_layer.find(layer);
    const double ns =
        it == by_layer.end() ? 0.0 : static_cast<double>(it->second);
    Metric(std::string("self_ms.") + layer, Ratio(ns / 1e6, requests), "ms");
  }
  WriteSpans(spans);
}

// The result line: verdict, counts, host fingerprint and every metric.
// `failed` counts operations that went wrong (no reply, a duplicate or
// mislabelled reply, a status the server must never return); requests the
// server sheds or expires under overload are its designed behaviour and are
// reported by fail_frac instead.
void Benchmark::PrintResult() const {
  uint64_t failed_ops = 0;
  for (int64_t id = 0; id < sent_; ++id) {
    const Record& r = R(id);
    if (r.replies.load() != 1 || !r.label_ok ||
        (r.status != StatusCode::kOk &&
         r.status != StatusCode::kResourceExhausted &&
         r.status != StatusCode::kDeadlineExceeded)) {
      ++failed_ops;
    }
  }
  for (const auto& e : errors_) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"workload\": \"" + p_.workload + "\"";
  json += ", \"seed\": " + std::to_string(p_.seed);
  json += std::string(", \"correct\": ") + (errors_.empty() ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(sent_ + kSetupReps);
  json += ", \"failed\": " + std::to_string(failed_ops);
  json += ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    json += (i ? ", \"" : "\"") + errors_[i] + "\"";
  }
  json += "], \"fingerprint\": {\"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"simd\": \"" + smol::SimdLevelName(smol::ActiveSimdLevel()) +
          "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
          "\", \"compiler\": \"" PERFBENCH_COMPILER "\"}";
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const MetricValue& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Benchmark::Run() {
  BuildCorpus();
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(MeasureSetupOnce());

  device_ = std::make_shared<TimedDevice>(
      std::make_shared<smol::SimAccelerator>(smol::SimAccelerator::Options{}),
      &tracing_, origin_);
  server_ = std::make_unique<smol::Server>(MakeOptions(), MakeSpec(),
                                           MakeDecode(), device_);
  RunPhases();
  server_->Shutdown();
  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\n",
               p_.workload.c_str(), static_cast<unsigned long long>(p_.seed),
               p_.seconds, p_.trace ? 1 : 0);
  if (!CheckDrift()) return 3;
  CheckCorrectness();
  CheckParity();
  EndToEndMetrics(std::move(setups));
  if (p_.trace) PerLayerMetrics();
  PrintResult();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Benchmark bench(perfbench::ParseArgs(argc, argv));
  return bench.Run();
}
