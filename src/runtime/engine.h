// The Smol execution engine (§6.1, Appendix A) — batch flavour.
//
// Producers decode + preprocess images on a thread pool; consumers batch the
// preprocessed buffers, stage them into (simulated-)pinned memory, and submit
// to the accelerator. Producers and consumers communicate through a bounded
// MPMC queue. Every optimization the paper lesions in Figures 7/8 is an
// independent toggle:
//   threading    — producer count = vCPUs vs. a single producer
//   memory reuse — buffer pool recycling vs. fresh allocation per image
//   pinned       — staging buffers registered as pinned vs. pageable
//   DAG          — optimized preprocessing plan vs. the naive §2 ordering
//
// Engine::Run is a thin wrapper over the streaming Server
// (runtime/server.h): it submits the whole work list, drains it, and folds
// the serving statistics into the familiar EngineStats. Use the Server
// directly for live traffic (per-request futures, dynamic batching,
// backpressure); use the Engine for one-shot throughput runs.
#ifndef SMOL_RUNTIME_ENGINE_H_
#define SMOL_RUNTIME_ENGINE_H_

#include <memory>
#include <vector>

#include "src/hw/sim_accelerator.h"
#include "src/preproc/graph.h"
#include "src/runtime/pipeline.h"
#include "src/util/buffer_pool.h"
#include "src/util/result.h"

namespace smol {

/// \brief Preprocessing-pipeline shape: the Fig. 7/8 toggles + the
/// producer/queue/batch sizing knobs.
struct PipelineOptions {
  bool enable_threading = true;  ///< multi-producer preprocessing
  bool enable_memory_reuse = true;  ///< buffer-pool recycling
  bool enable_pinned = true;        ///< pinned staging buffers
  bool enable_dag_opt = true;       ///< optimized preprocessing DAG

  int num_producers = 0;  ///< 0 = EffectiveCores(hw concurrency) (§8.1)
  int num_consumers = 2;  ///< batches in flight per device
  int queue_capacity = 64;  ///< bounded staging-queue depth
  int batch_size = 16;      ///< device batch size
};

/// \brief Content-addressed tensor-cache configuration
/// (util/tensor_cache.h): repeated content skips decode + preprocessing and
/// stages the cached bytes with no copy. Off by default — it only pays for
/// workloads with repeated content, and it trades memory for compute.
struct CacheOptions {
  bool enable_tensor_cache = false;         ///< master switch
  size_t tensor_cache_bytes = 64ull << 20;  ///< cache byte budget
  int tensor_cache_shards = 8;              ///< cache concurrency sharding
};

/// \brief Fleet shape served by the engine/server.
struct FleetOptions {
  /// Device-count axis: > 1 replicates the constructor accelerator's options
  /// into a homogeneous fleet of this many devices, served as one shard
  /// each (runtime/server.h). 1 = the classic single-device pipeline.
  int num_devices = 1;
};

/// \brief Flat engine configuration.
///
/// \deprecated Transitional alias for the PR-8 options split: aggregates
/// PipelineOptions + CacheOptions + FleetOptions so pre-split code using the
/// flat field set (`opts.batch_size`, `opts.enable_tensor_cache`, ...)
/// compiles unchanged, and each piece can be sliced off by assignment
/// (`server_options.pipeline = engine_options;`). New code should hold the
/// composable structs directly — ServerOptions (runtime/server.h) already
/// embeds them.
struct EngineOptions : PipelineOptions, CacheOptions, FleetOptions {};

/// \brief End-to-end run statistics.
struct EngineStats {
  uint64_t images = 0;              ///< items completed
  double wall_seconds = 0.0;        ///< submit of first .. drain of last
  double throughput_ims = 0.0;      ///< images / wall_seconds
  double decode_seconds = 0.0;      ///< summed across producers
  double preprocess_seconds = 0.0;  ///< summed across producers
  BufferPoolStats buffer_stats;     ///< summed across shard pools
  DeviceStats accel_stats;          ///< summed across devices
  TensorCacheStats tensor_cache;    ///< zeros unless enable_tensor_cache
};

/// \brief The pipelined inference engine.
///
/// The decode step is pluggable so the engine serves images (SJPG/SPNG) and
/// video frames alike; the preprocessing plan comes from the DAG optimizer.
class Engine {
 public:
  /// \p decode maps an item to pixels; \p accel models the DNN device.
  Engine(EngineOptions options, PipelineSpec pipeline_spec, DecodeFn decode,
         std::shared_ptr<SimAccelerator> accel);

  /// Allocation-free decode flavour: \p decode emits into a per-producer
  /// scratch image reused across items (e.g. wraps SjpgDecodeInto).
  Engine(EngineOptions options, PipelineSpec pipeline_spec,
         DecodeIntoFn decode, std::shared_ptr<SimAccelerator> accel);

  /// Runs the full pipeline over \p items and reports statistics. On the
  /// first per-item failure, submission stops, in-flight work drains, and
  /// that error is returned.
  Result<EngineStats> Run(const std::vector<WorkItem>& items);

  /// The preprocessing plan the engine compiled (after DAG optimization or
  /// the reference ordering when the DAG toggle is off).
  const PreprocPlan& plan() const { return plan_; }

  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
  PipelineSpec pipeline_spec_;
  PreprocPlan plan_;
  DecodeIntoFn decode_;
  std::shared_ptr<SimAccelerator> accel_;
};

}  // namespace smol

#endif  // SMOL_RUNTIME_ENGINE_H_
