#include "src/hw/sim_accelerator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace smol {

SimAccelerator::SimAccelerator(Options options) : options_(std::move(options)) {
  if (options_.dnn_throughput_ims <= 0.0) options_.dnn_throughput_ims = 1.0;
  if (options_.time_scale <= 0.0) options_.time_scale = 1.0;
  if (options_.name.empty()) options_.name = GpuModelName(options_.gpu);
}

void SimAccelerator::ExecuteBatch(int batch_size, size_t input_bytes,
                                  bool pinned, int chunks) {
  if (batch_size <= 0) return;
  if (chunks < 1) chunks = 1;
  const double transfer_s =
      options_.transfer.GatherMicros(input_bytes, chunks, pinned) * 1e-6;
  double compute_s =
      static_cast<double>(batch_size) / options_.dnn_throughput_ims;
  if (options_.gpu_preproc_throughput_ims > 0.0) {
    compute_s += static_cast<double>(batch_size) /
                 options_.gpu_preproc_throughput_ims;
  }
  const auto real = [&](double modeled_seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(modeled_seconds * options_.time_scale));
  };

  Clock::time_point done;
  {
    std::lock_guard<std::mutex> lock(timeline_mutex_);
    const Clock::time_point now = Clock::now();
    if (options_.num_streams >= 2) {
      // Copy/compute overlap: the transfer needs only the DMA engine, so it
      // can run under another batch's compute.
      const Clock::time_point dma_end =
          std::max(now, dma_free_) + real(transfer_s);
      dma_free_ = dma_end;
      done = std::max(dma_end, compute_free_) + real(compute_s);
    } else {
      // Single stream: the device serializes transfer then compute.
      done = std::max(now, compute_free_) + real(transfer_s) +
             real(compute_s);
    }
    compute_free_ = done;
    ++in_flight_;
  }
  std::this_thread::sleep_until(done);

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.batches++;
    stats_.images += static_cast<uint64_t>(batch_size);
    stats_.max_batch =
        std::max(stats_.max_batch, static_cast<uint64_t>(batch_size));
    stats_.bytes += static_cast<uint64_t>(input_bytes);
    stats_.chunks += static_cast<uint64_t>(chunks);
    stats_.compute_seconds += compute_s;
    stats_.transfer_seconds += transfer_s;
  }
  {
    std::lock_guard<std::mutex> lock(timeline_mutex_);
    if (--in_flight_ == 0) drained_.notify_all();
  }
}

void SimAccelerator::Drain() {
  // Submissions that start after Drain returns are the caller's problem, as
  // with cudaDeviceSync.
  std::unique_lock<std::mutex> lock(timeline_mutex_);
  drained_.wait(lock, [&] { return in_flight_ == 0; });
}

double SimAccelerator::capacity_ims() const {
  double per_image_s = 1.0 / options_.dnn_throughput_ims;
  if (options_.gpu_preproc_throughput_ims > 0.0) {
    per_image_s += 1.0 / options_.gpu_preproc_throughput_ims;
  }
  return 1.0 / per_image_s;
}

SimAccelerator::Stats SimAccelerator::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace smol
