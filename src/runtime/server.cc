#include "src/runtime/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/util/cpu_features.h"
#include "src/util/logging.h"
#include "src/util/tensor_cache.h"

namespace smol {

namespace {

std::chrono::steady_clock::duration MicrosToDuration(double micros) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::micro>(std::max(micros, 0.0)));
}

/// Raises \p target to at least \p value (relaxed max-CAS).
template <typename T>
void StoreMax(std::atomic<T>& target, T value) {
  T observed = target.load(std::memory_order_relaxed);
  while (value > observed &&
         !target.compare_exchange_weak(observed, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* DispatchPolicyName(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin:
      return "round-robin";
    case DispatchPolicy::kLeastLoaded:
      return "least-loaded";
    case DispatchPolicy::kCapacityWeighted:
      return "capacity-weighted";
  }
  return "?";
}

Server::Server(ServerOptions options, PipelineSpec pipeline_spec,
               DecodeFn decode, std::shared_ptr<Device> accel)
    : Server(options, pipeline_spec, AdaptDecodeFn(std::move(decode)),
             std::move(accel)) {}

Server::Server(ServerOptions options, PipelineSpec pipeline_spec,
               DecodeIntoFn decode, std::shared_ptr<Device> accel)
    : Server(options, pipeline_spec,
             CompilePipelinePlan(pipeline_spec,
                                 options.pipeline.enable_dag_opt),
             std::move(decode), std::move(accel)) {}

Server::Server(ServerOptions options, PipelineSpec pipeline_spec,
               PreprocPlan plan, DecodeIntoFn decode,
               std::shared_ptr<Device> accel)
    : options_(std::move(options)),
      pipeline_spec_(pipeline_spec),
      plan_(std::move(plan)),
      decode_(std::move(decode)),
      admission_(static_cast<size_t>(
          std::max(options_.admission_capacity, 1))),
      start_time_(std::chrono::steady_clock::now()) {
  PipelineOptions& pipe = options_.pipeline;
  if (options_.cache.enable_tensor_cache) {
    TensorCache::Options tco;
    tco.capacity_bytes = options_.cache.tensor_cache_bytes;
    tco.shards = options_.cache.tensor_cache_shards;
    cache_ = std::make_unique<TensorCache>(tco);
  }
  if (pipe.num_producers <= 0) {
    // §8.1: vCPUs are hyperthreads; size the decode+preproc worker pool by
    // their effective parallelism, not their nominal count.
    const int vcpus = static_cast<int>(std::thread::hardware_concurrency());
    pipe.num_producers = std::max(
        1, static_cast<int>(std::ceil(EffectiveCores(std::max(vcpus, 1)))));
  }
  if (!pipe.enable_threading) pipe.num_producers = 1;
  if (pipe.num_consumers <= 0) pipe.num_consumers = 1;
  if (options_.max_batch <= 0) options_.max_batch = 1;

  // The plan ladder. Rung 0 is always the constructor plan (so the
  // precompiled-plan flavour is honored); deeper rungs come from the
  // adaptive scales. Invalid ladder configurations fall back to static
  // serving rather than failing construction.
  PlanRung base;
  base.name = "rung0 x1.00 d1";
  base.spec = pipeline_spec_;
  base.plan = plan_;
  base.fingerprint = TensorCache::HashCombine(
      PipelinePlanFingerprint(plan_, pipeline_spec_), 1);
  ladder_.push_back(std::move(base));
  if (options_.adaptive.ladder_scales.size() > 1) {
    auto built = BuildPlanLadder(pipeline_spec_,
                                 options_.adaptive.ladder_scales,
                                 pipe.enable_dag_opt);
    if (built.ok()) {
      auto& rungs = built.value();
      for (size_t i = 1; i < rungs.size(); ++i) {
        ladder_.push_back(std::move(rungs[i]));
      }
    } else {
      SMOL_LOG(kWarn) << "adaptive ladder rejected ("
                      << built.status().ToString()
                      << "); serving the static plan";
    }
  }
  for (auto& cc : class_counters_) {
    cc.served_by_rung.reserve(ladder_.size());
    for (size_t r = 0; r < ladder_.size(); ++r) {
      cc.served_by_rung.push_back(
          std::make_unique<std::atomic<uint64_t>>(0));
    }
  }

  // The fleet: options.devices, or the single constructor device (M=1).
  std::vector<std::shared_ptr<Device>> devices = std::move(options_.devices);
  if (devices.empty() && accel != nullptr) devices.push_back(std::move(accel));
  if (devices.empty()) {
    SMOL_LOG(kWarn) << "server constructed with no devices; "
                       "adding a default SimAccelerator";
    devices.push_back(std::make_shared<SimAccelerator>(
        SimAccelerator::Options{}));
  }

  const int shard_queue_capacity =
      std::max(options_.shard_queue_capacity > 0 ? options_.shard_queue_capacity
                                                 : pipe.queue_capacity,
               1);
  BufferPool::Options pool_options;
  pool_options.enable_reuse = pipe.enable_memory_reuse;
  pool_options.pin_buffers = pipe.enable_pinned;
  shards_.reserve(devices.size());
  for (size_t i = 0; i < devices.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<int>(i);
    shard->device = devices[i];
    shard->capacity_ims = std::max(devices[i]->capacity_ims(), 1.0);
    shard->pool = std::make_unique<BufferPool>(pool_options);
    shard->queue = std::make_unique<MpmcQueue<Staged>>(
        static_cast<size_t>(shard_queue_capacity));
    shards_.push_back(std::move(shard));
  }

  SMOL_LOG(kInfo) << "server simd dispatch: "
                  << SimdLevelName(ActiveSimdLevel()) << " (detected "
                  << SimdLevelName(DetectedSimdLevel()) << "); " << "fleet of "
                  << shards_.size() << " device(s), "
                  << DispatchPolicyName(options_.dispatch) << " dispatch, "
                  << ladder_.size() << " plan rung(s)";

  if (pipe.num_producers > 1) {
    crew_ = std::make_unique<BandCrew>(
        [this] { admission_.Wake(); },
        [this] { return admission_.size() > 0; });
  }
  workers_.reserve(static_cast<size_t>(pipe.num_producers));
  for (int i = 0; i < pipe.num_producers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  for (auto& shard : shards_) {
    shard->batchers.reserve(static_cast<size_t>(pipe.num_consumers));
    for (int i = 0; i < pipe.num_consumers; ++i) {
      shard->batchers.emplace_back(
          [this, s = shard.get()] { BatcherLoop(*s); });
    }
  }
  if (ladder_.size() > 1) {
    controller_ = std::make_unique<PlanController>(
        options_.adaptive.controller, static_cast<int>(ladder_.size()));
    controller_thread_ = std::thread([this] { ControllerLoop(); });
  }
}

Server::~Server() { Shutdown(); }

void Server::Complete(RequestContext& ctx, InferenceReply reply) {
  if (ctx.has_promise) {
    ctx.promise.set_value(reply);
    ctx.has_promise = false;
  }
  if (ctx.callback) {
    ctx.callback(reply);
    ctx.callback = nullptr;
  }
}

std::future<InferenceReply> Server::Submit(InferenceRequest request) {
  RequestContext ctx;
  ctx.has_promise = true;
  std::future<InferenceReply> future = ctx.promise.get_future();
  SubmitInternal(std::move(request), std::move(ctx));
  return future;
}

void Server::Submit(InferenceRequest request, Callback callback) {
  RequestContext ctx;
  ctx.callback = std::move(callback);
  SubmitInternal(std::move(request), std::move(ctx));
}

void Server::SubmitInternal(InferenceRequest inference_request,
                            RequestContext ctx) {
  ctx.submit_time = std::chrono::steady_clock::now();
  const TimePoint submit_time = ctx.submit_time;
  const int klass = static_cast<int>(inference_request.klass);
  Request request;
  request.request = std::move(inference_request);
  request.ctx = std::move(ctx);
  // The Reclaim flavours leave `request` (and its promise) intact when the
  // push is rejected, so the reply below still reaches the caller.
  const bool accepted = options_.overload == OverloadPolicy::kShed
                            ? admission_.TryPushReclaim(request)
                            : admission_.PushReclaim(request);
  if (accepted) {
    // Release pairs with the acquire loads in stats(): a submission is
    // counted before its request can complete. Global before per-class, so
    // a snapshot's global counter covers its class split.
    submitted_.fetch_add(1, std::memory_order_release);
    class_counters_[klass].submitted.fetch_add(1, std::memory_order_release);
    int64_t unset = -1;
    first_submit_ns_.compare_exchange_strong(
        unset,
        std::chrono::duration_cast<std::chrono::nanoseconds>(submit_time -
                                                             start_time_)
            .count(),
        std::memory_order_relaxed);
    return;
  }
  InferenceReply reply;
  reply.klass = request.request.klass;
  if (admission_.closed()) {
    reply.status = Status::Cancelled("server is shut down");
  } else {
    shed_.fetch_add(1, std::memory_order_release);
    class_counters_[klass].shed.fetch_add(1, std::memory_order_release);
    reply.status =
        Status::ResourceExhausted("admission queue full: request shed");
  }
  reply.label = request.request.label;
  Complete(request.ctx, reply);
}

Server::Shard& Server::PickShard() {
  const size_t count = shards_.size();
  if (count == 1) return *shards_[0];
  const uint64_t cursor = rr_cursor_.fetch_add(1, std::memory_order_relaxed);
  if (options_.dispatch == DispatchPolicy::kRoundRobin) {
    return *shards_[cursor % count];
  }
  // Least-loaded flavours: scan from a rotating offset (so ties — an idle
  // fleet — degrade to round-robin instead of piling onto shard 0) and keep
  // the strictly best score.
  const bool weighted = options_.dispatch == DispatchPolicy::kCapacityWeighted;
  Shard* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < count; ++i) {
    Shard& shard = *shards_[(cursor + i) % count];
    const double outstanding = static_cast<double>(
        shard.outstanding_bytes.load(std::memory_order_relaxed));
    // Capacity weighting scores estimated drain time, so a V100 with a deep
    // queue can still beat an idle K80 on arrival rate — but an idle fast
    // device always wins outright.
    const double score = weighted ? outstanding / shard.capacity_ims
                                  : outstanding;
    if (score < best_score) {
      best_score = score;
      best = &shard;
    }
  }
  return *best;
}

void Server::WorkerLoop() {
  // Per-thread scratch: the decode image and preproc intermediates keep
  // their allocations across every item this worker processes.
  PipelineScratch scratch;
  // Idle in the admission wait, this producer helps its peers' row bands;
  // busy, it may split its own request across them.
  BandCrew::Scope band_scope(crew_.get());
  while (auto request = PopOrHelp(admission_, crew_.get())) {
    const InferenceRequest& req = request->request;
    const int klass = static_cast<int>(req.klass);
    // A request whose deadline already passed while queued completes
    // immediately instead of occupying decode + device time.
    if (req.deadline.has_value() &&
        std::chrono::steady_clock::now() > *req.deadline) {
      failed_.fetch_add(1, std::memory_order_release);
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      class_counters_[klass].failed.fetch_add(1, std::memory_order_release);
      InferenceReply reply;
      reply.status = Status::DeadlineExceeded("deadline expired in queue");
      reply.label = req.label;
      reply.klass = req.klass;
      Complete(request->ctx, reply);
      continue;
    }
    // Adaptive serving: resolve the class's active rung once per request.
    // ROI requests pin to rung 0 — the codec cannot combine ROI decode with
    // multi-resolution decode, and partial decode is already cheap.
    const int rung = (controller_ != nullptr && req.roi.empty())
                         ? controller_->RungFor(req.klass)
                         : 0;
    const PlanRung& active = ladder_[static_cast<size_t>(rung)];
    WorkItem item;
    item.bytes = req.bytes;
    item.label = req.label;
    item.roi = req.roi;
    item.decode_scale_denom = active.decode_scale_denom;
    // The dispatch policy runs at stage time: the sample is preprocessed
    // directly into the chosen shard's private staging pool, so the bytes
    // never migrate between device arenas.
    Shard& shard = PickShard();
    Staged staged;
    staged.ctx = std::move(request->ctx);
    staged.klass = req.klass;
    staged.rung = rung;
    const uint64_t jobs_before = BandCrew::JobsPostedByThisThread();
    auto sample =
        DecodeAndStage(item, decode_, active.plan, active.spec, *shard.pool,
                       counters_, scratch, cache_.get(), active.fingerprint);
    if (BandCrew::JobsPostedByThisThread() != jobs_before) {
      split_requests_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!sample.ok()) {
      failed_.fetch_add(1, std::memory_order_release);
      class_counters_[klass].failed.fetch_add(1, std::memory_order_release);
      InferenceReply reply;
      reply.status = sample.status();
      reply.label = req.label;
      reply.klass = req.klass;
      Complete(staged.ctx, reply);
      continue;
    }
    staged.sample = std::move(sample).MoveValue();
    const uint64_t staged_bytes = staged.sample.buffer->data.size();
    shard.outstanding_bytes.fetch_add(staged_bytes,
                                      std::memory_order_relaxed);
    // Bounded per-shard queue: workers block here when this shard's batcher
    // falls behind, which in turn fills admission and pushes back on
    // Submit().
    if (!shard.queue->Push(std::move(staged))) {
      shard.outstanding_bytes.fetch_sub(staged_bytes,
                                        std::memory_order_relaxed);
      break;  // queue closed
    }
    StoreMax(shard.depth_hwm,
             static_cast<uint64_t>(shard.queue->size()));
  }
}

void Server::BatcherLoop(Shard& shard) {
  std::vector<Staged> batch;
  batch.reserve(static_cast<size_t>(options_.max_batch));
  for (;;) {
    auto first = shard.queue->Pop();
    if (!first) break;  // closed and drained
    batch.push_back(std::move(*first));
    // Work-conserving: take the backlog already staged, never wait for more.
    // Samples queue up while this shard's batches occupy the device, so
    // batches fill under load and an idle device serves a lone request now.
    while (static_cast<int>(batch.size()) < options_.max_batch) {
      auto next = shard.queue->TryPop();
      if (!next) break;
      batch.push_back(std::move(*next));
    }
    FlushBatch(shard, batch);
  }
}

void Server::FlushBatch(Shard& shard, std::vector<Staged>& batch) {
  if (batch.empty()) return;
  // Capture per-request metadata before the samples are moved into the
  // submission: the seed read staged.sample.label *after* the move below,
  // echoing 0 (moved-from) labels back to callers.
  struct Meta {
    int label;
    bool cache_hit;
  };
  std::vector<Meta> meta;
  meta.reserve(batch.size());
  std::vector<StagedSample> samples;
  samples.reserve(batch.size());
  uint64_t batch_bytes = 0;
  for (auto& staged : batch) {
    meta.push_back({staged.sample.label, staged.sample.cache_hit});
    batch_bytes += staged.sample.buffer->data.size();
    samples.push_back(std::move(staged.sample));
  }
  const int batch_size = SubmitStagedBatch(samples, *shard.device);
  // The batch is through the device: it no longer counts as shard load.
  shard.outstanding_bytes.fetch_sub(batch_bytes, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  shard.batches.fetch_add(1, std::memory_order_relaxed);
  const TimePoint now = std::chrono::steady_clock::now();
  StoreMax(last_completion_ns_,
           std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                start_time_)
               .count());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto& staged = batch[i];
    ClassCounters& cc = class_counters_[static_cast<int>(staged.klass)];
    InferenceReply reply;
    reply.status = Status::OK();
    reply.label = meta[i].label;
    reply.cache_hit = meta[i].cache_hit;
    reply.batch_size = batch_size;
    reply.shard = shard.index;
    reply.klass = staged.klass;
    reply.plan_rung = staged.rung;
    reply.degraded = staged.rung > 0;
    reply.latency_us =
        std::chrono::duration<double, std::micro>(now - staged.ctx.submit_time)
            .count();
    shard.latency.Record(reply.latency_us);
    completion_latency_.Record(reply.latency_us);
    // Global then per-shard / per-class, all release: stats() reads the
    // split counters first, so within a snapshot completed >= sum(shard
    // served) and completed >= sum(class completed).
    completed_.fetch_add(1, std::memory_order_release);
    shard.served.fetch_add(1, std::memory_order_release);
    cc.completed.fetch_add(1, std::memory_order_release);
    cc.served_by_rung[static_cast<size_t>(staged.rung)]->fetch_add(
        1, std::memory_order_relaxed);
    if (staged.rung > 0) cc.degraded.fetch_add(1, std::memory_order_relaxed);
    Complete(staged.ctx, reply);
  }
  batch.clear();
}

void Server::ControllerLoop() {
  // The controller samples at a fixed cadence: admission depth and shed
  // delta say how much pressure the front door is under; the LatencyWindow
  // says what completions experienced over the elapsed interval (the
  // cumulative histogram would stop reacting minutes into a run).
  LatencyWindow window(completion_latency_);
  uint64_t last_shed = 0;
  const auto interval =
      MicrosToDuration(options_.adaptive.controller.sample_interval_us);
  std::unique_lock<std::mutex> lock(controller_mutex_);
  while (!controller_stop_) {
    controller_cv_.wait_for(lock, interval);
    if (controller_stop_) break;
    lock.unlock();
    LoadSignals signals;
    signals.queue_depth = static_cast<int>(admission_.size());
    signals.queue_capacity = std::max(options_.admission_capacity, 1);
    const uint64_t shed_now = shed_.load(std::memory_order_relaxed);
    signals.shed_delta = shed_now - last_shed;
    last_shed = shed_now;
    signals.window = window.Advance();
    controller_->Observe(signals);
    lock.lock();
  }
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (stopped_) return;
  stopped_ = true;
  if (controller_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> controller_lock(controller_mutex_);
      controller_stop_ = true;
    }
    controller_cv_.notify_all();
    controller_thread_.join();
  }
  admission_.Close();
  for (auto& t : workers_) t.join();
  for (auto& shard : shards_) shard->queue->Close();
  for (auto& shard : shards_) {
    for (auto& t : shard->batchers) t.join();
    shard->device->Drain();
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  // Read order is the coherence guarantee (see ServerStats): shard and class
  // counters, then global completion counters, then admission counters. Each
  // increment on the write side is a release; these acquires ensure a
  // request counted at one stage is also counted at every earlier stage of
  // the snapshot.
  s.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats ss;
    ss.shard = shard->index;
    ss.device = shard->device->name();
    ss.capacity_ims = shard->capacity_ims;
    ss.served = shard->served.load(std::memory_order_acquire);
    ss.batches = shard->batches.load(std::memory_order_relaxed);
    ss.mean_batch = ss.batches > 0 ? static_cast<double>(ss.served) /
                                         static_cast<double>(ss.batches)
                                   : 0.0;
    ss.queue_depth_hwm = shard->depth_hwm.load(std::memory_order_relaxed);
    ss.outstanding_bytes =
        shard->outstanding_bytes.load(std::memory_order_relaxed);
    ss.latency = shard->latency.TakeSnapshot();
    ss.device_stats = shard->device->stats();
    ss.buffer_stats = shard->pool->stats();
    s.shards.push_back(std::move(ss));
  }
  s.classes.reserve(kNumRequestClasses);
  for (int c = 0; c < kNumRequestClasses; ++c) {
    const ClassCounters& cc = class_counters_[c];
    ClassStats cs;
    cs.klass = static_cast<RequestClass>(c);
    cs.served_by_rung.reserve(cc.served_by_rung.size());
    for (const auto& rung_count : cc.served_by_rung) {
      cs.served_by_rung.push_back(
          rung_count->load(std::memory_order_relaxed));
    }
    cs.degraded = cc.degraded.load(std::memory_order_relaxed);
    cs.completed = cc.completed.load(std::memory_order_acquire);
    cs.failed = cc.failed.load(std::memory_order_acquire);
    cs.shed = cc.shed.load(std::memory_order_acquire);
    cs.submitted = cc.submitted.load(std::memory_order_acquire);
    s.classes.push_back(std::move(cs));
  }
  s.completed = completed_.load(std::memory_order_acquire);
  s.failed = failed_.load(std::memory_order_acquire);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_acquire);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_acquire);
  s.mean_batch = s.batches > 0 ? static_cast<double>(s.completed) /
                                     static_cast<double>(s.batches)
                               : 0.0;
  s.num_rungs = static_cast<int>(ladder_.size());
  s.active_rung.reserve(kNumRequestClasses);
  for (int c = 0; c < kNumRequestClasses; ++c) {
    s.active_rung.push_back(ActiveRung(static_cast<RequestClass>(c)));
  }
  s.plan_switches = controller_ != nullptr ? controller_->switches() : 0;
  s.split_requests = split_requests_.load(std::memory_order_relaxed);
  if (crew_ != nullptr) s.helper_bands = crew_->stats().helper_bands;
  s.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_time_)
                       .count();
  // Throughput over the active window (first submit -> last completion), so
  // idle time before a burst does not dilute the number. wall_seconds keeps
  // the since-construction view.
  const int64_t first_ns = first_submit_ns_.load(std::memory_order_relaxed);
  const int64_t last_ns = last_completion_ns_.load(std::memory_order_relaxed);
  if (first_ns >= 0 && last_ns > first_ns) {
    s.active_seconds = static_cast<double>(last_ns - first_ns) * 1e-9;
  }
  s.throughput_ims =
      s.active_seconds > 0
          ? static_cast<double>(s.completed) / s.active_seconds
          : 0.0;
  s.decode_seconds =
      static_cast<double>(counters_.decode_us.load(std::memory_order_relaxed)) *
      1e-6;
  s.preprocess_seconds =
      static_cast<double>(
          counters_.preproc_us.load(std::memory_order_relaxed)) *
      1e-6;
  // Roll the per-shard views up into the fleet-wide ones: histograms merge
  // bucket-wise, pool and device counters sum (max_batch takes the max).
  LatencyHistogram merged;
  for (const auto& shard : shards_) merged.Merge(shard->latency);
  s.latency = merged.TakeSnapshot();
  for (const ShardStats& ss : s.shards) {
    s.buffer_stats.allocations += ss.buffer_stats.allocations;
    s.buffer_stats.reuses += ss.buffer_stats.reuses;
    s.buffer_stats.returns += ss.buffer_stats.returns;
    s.buffer_stats.trims += ss.buffer_stats.trims;
    s.buffer_stats.bytes_allocated += ss.buffer_stats.bytes_allocated;
    s.buffer_stats.bytes_pooled += ss.buffer_stats.bytes_pooled;
    s.accel_stats.batches += ss.device_stats.batches;
    s.accel_stats.images += ss.device_stats.images;
    s.accel_stats.max_batch =
        std::max(s.accel_stats.max_batch, ss.device_stats.max_batch);
    s.accel_stats.bytes += ss.device_stats.bytes;
    s.accel_stats.chunks += ss.device_stats.chunks;
    s.accel_stats.compute_seconds += ss.device_stats.compute_seconds;
    s.accel_stats.transfer_seconds += ss.device_stats.transfer_seconds;
  }
  if (cache_ != nullptr) s.tensor_cache = cache_->stats();
  return s;
}

}  // namespace smol
