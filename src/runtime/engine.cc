#include "src/runtime/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>
#include <utility>

#include "src/hw/fleet.h"
#include "src/runtime/server.h"
#include "src/util/stopwatch.h"

namespace smol {

Engine::Engine(EngineOptions options, PipelineSpec pipeline_spec,
               DecodeFn decode, std::shared_ptr<SimAccelerator> accel)
    : Engine(options, pipeline_spec, AdaptDecodeFn(std::move(decode)),
             std::move(accel)) {}

Engine::Engine(EngineOptions options, PipelineSpec pipeline_spec,
               DecodeIntoFn decode, std::shared_ptr<SimAccelerator> accel)
    : options_(options),
      pipeline_spec_(pipeline_spec),
      decode_(std::move(decode)),
      accel_(std::move(accel)) {
  if (options_.num_producers <= 0) {
    // §8.1: vCPUs are hyperthreads — size the worker pool by their effective
    // parallelism (matches the Server's own default).
    const int vcpus = static_cast<int>(std::thread::hardware_concurrency());
    options_.num_producers = std::max(
        1, static_cast<int>(std::ceil(EffectiveCores(std::max(vcpus, 1)))));
  }
  if (!options_.enable_threading) options_.num_producers = 1;
  if (options_.num_consumers <= 0) options_.num_consumers = 1;
  if (options_.num_devices < 1) options_.num_devices = 1;

  plan_ = CompilePipelinePlan(pipeline_spec_, options_.enable_dag_opt);
}

Result<EngineStats> Engine::Run(const std::vector<WorkItem>& items) {
  if (accel_ == nullptr) return Status::InvalidArgument("null accelerator");
  if (items.empty()) return Status::InvalidArgument("no work items");

  Stopwatch wall;

  // One-shot run = a Server fed the whole work list, then drained.
  ServerOptions server_options;
  // The flat EngineOptions aggregates the composable pieces, so each one
  // slices off by assignment.
  server_options.pipeline = options_;
  server_options.cache = options_;
  server_options.max_batch = options_.batch_size;
  server_options.admission_capacity = options_.queue_capacity;
  server_options.overload = OverloadPolicy::kBlock;
  // Device-count axis: replicate the accelerator's options into a
  // homogeneous fleet of num_devices shards (the constructor accelerator
  // serves alone when num_devices <= 1).
  if (options_.num_devices > 1) {
    server_options.devices =
        MakeHomogeneousFleet(options_.num_devices, accel_->options());
  }
  Server server(server_options, pipeline_spec_, plan_, decode_, accel_);

  // Submission stops at the first failure (like the pre-Server producer
  // loop): in-flight requests drain, the rest of the work list never enters
  // the pipeline. Callbacks fire on worker threads, but Shutdown() below
  // joins them before these locals go out of scope.
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mutex;
  for (const WorkItem& item : items) {
    if (failed.load()) break;
    server.Submit(InferenceRequest::FromWorkItem(item),
                  [&](const InferenceReply& reply) {
                    if (!reply.ok()) {
                      std::lock_guard<std::mutex> lock(error_mutex);
                      if (first_error.ok()) first_error = reply.status;
                      failed.store(true);
                    }
                  });
  }
  server.Shutdown();  // drains every accepted request
  if (failed.load()) return first_error;

  const ServerStats server_stats = server.stats();
  EngineStats stats;
  stats.images = server_stats.completed;
  stats.wall_seconds = wall.ElapsedSeconds();
  stats.throughput_ims =
      stats.wall_seconds > 0
          ? static_cast<double>(stats.images) / stats.wall_seconds
          : 0.0;
  stats.decode_seconds = server_stats.decode_seconds;
  stats.preprocess_seconds = server_stats.preprocess_seconds;
  stats.buffer_stats = server_stats.buffer_stats;
  stats.accel_stats = server_stats.accel_stats;
  stats.tensor_cache = server_stats.tensor_cache;
  return stats;
}

}  // namespace smol
