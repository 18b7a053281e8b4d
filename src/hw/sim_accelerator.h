// Simulated DNN accelerator.
//
// The runtime engine's consumers submit batches here; the simulator enforces
// calibrated service times (compute from the throughput model, transfers from
// the transfer model) by sleeping, so pipelining CPU preprocessing against
// the "device" is a real wall-clock phenomenon measurable by benches — while
// the host CPUs stay free for preprocessing, exactly like a real accelerator.
//
// Concurrency model: one compute engine (batches serialize on it) plus a DMA
// engine. With >= 2 streams, transfer for batch i+1 overlaps compute for
// batch i (copy/compute overlap); with 1 stream they serialize.
//
// Timing: each submission books its transfer and compute on a device
// timeline (DMA end = max(now, DMA free) + transfer; done = max(DMA end,
// compute free) + compute) and sleeps until its absolute completion time.
// A batch therefore never finishes sooner than its modelled cost, and a
// late wake-up delays only the caller that overslept: the next booked batch
// still starts at the modelled end of the previous one, so timer slack does
// not accumulate across back-to-back batches.
#ifndef SMOL_HW_SIM_ACCELERATOR_H_
#define SMOL_HW_SIM_ACCELERATOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/hw/device.h"
#include "src/hw/transfer.h"
#include "src/util/status.h"

namespace smol {

/// \brief Wall-clock simulator of one inference accelerator.
class SimAccelerator : public Device {
 public:
  struct Options {
    GpuModel gpu = GpuModel::kT4;
    /// Modelled DNN throughput for the deployed model, images/second.
    double dnn_throughput_ims = 4513.0;
    /// Extra accelerator-side preprocessing throughput (0 = none placed).
    /// When > 0, each image also costs 1/this seconds of device time.
    double gpu_preproc_throughput_ims = 0.0;
    int num_streams = 4;
    TransferModel transfer;
    /// Scales all modelled durations (1.0 = real time). Benches may shrink
    /// durations to run faster; ratios between stages are preserved.
    double time_scale = 1.0;
    /// Display name for fleet stats; empty = the GPU model's name.
    std::string name;
  };

  explicit SimAccelerator(Options options);

  /// Executes one batch: charges transfer (overlappable) + compute time.
  /// Blocks the calling thread for the modelled duration. \p chunks is the
  /// scatter-gather descriptor count of the submission (1 = contiguous;
  /// the zero-copy runtime submits one chunk per pooled sample buffer).
  void ExecuteBatch(int batch_size, size_t input_bytes, bool pinned,
                    int chunks = 1) override;

  /// Waits until every ExecuteBatch in flight has returned.
  void Drain() override;

  /// Cumulative counters (the fleet-generic DeviceStats).
  using Stats = DeviceStats;
  Stats stats() const override;

  /// Modelled images/second at steady state: the DNN rate, in series with
  /// the device-side preprocessing rate when any is placed there.
  double capacity_ims() const override;

  const std::string& name() const override { return options_.name; }

  const Options& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  Options options_;
  std::mutex timeline_mutex_;  // guards the timeline and in_flight_
  std::condition_variable drained_;
  Clock::time_point dma_free_{};      // when the DMA engine frees up
  Clock::time_point compute_free_{};  // when the compute engine frees up
  int in_flight_ = 0;
  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace smol

#endif  // SMOL_HW_SIM_ACCELERATOR_H_
