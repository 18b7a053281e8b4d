// Serving demo: the streaming Server in five minutes.
//
// 1. Stand up a Server over the SJPG decode + DAG-optimized preprocessing
//    pipeline with dynamic batching.
// 2. Submit a burst of requests and read per-request replies (future
//    flavour): latency and the batch each request was coalesced into.
// 3. Trickle requests through the callback flavour.
// 4. Overload a tiny shed-policy server and watch backpressure reject
//    instead of queueing without bound.
// 5. Serve a heterogeneous K80+T4+V100 fleet behind one front end with
//    capacity-weighted dispatch, and read the per-shard split.
// 6. Turn on load-adaptive plan selection: a ladder of cheaper preprocessing
//    plans, a controller that degrades latency-SLO traffic under a burst and
//    recovers afterwards, and replies that report the rung that served them.
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/examples/example_serving_demo
#include <atomic>
#include <cstdio>
#include <future>
#include <vector>

#include "src/codec/sjpg.h"
#include "src/data/synth_image.h"
#include "src/hw/fleet.h"
#include "src/runtime/server.h"
#include "src/util/macros.h"

using namespace smol;

namespace {

Result<Image> DecodeSjpg(const WorkItem& item) {
  SjpgDecodeOptions opts;
  opts.roi = item.roi;
  // The adaptive ladder's multi-resolution decode lever; the codec rejects
  // combining it with an ROI, so it only applies to full-frame requests.
  if (item.roi.empty()) opts.scale_denom = item.decode_scale_denom;
  return SjpgDecode(*item.bytes, opts);
}

void PrintStats(const char* title, const ServerStats& s) {
  std::printf("%s\n", title);
  std::printf("  submitted %llu  completed %llu  shed %llu  failed %llu\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.shed),
              static_cast<unsigned long long>(s.failed));
  std::printf("  batches %llu (mean size %.1f, largest %llu)\n",
              static_cast<unsigned long long>(s.batches), s.mean_batch,
              static_cast<unsigned long long>(s.accel_stats.max_batch));
  std::printf("  latency p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  "
              "p99.9 %.2f ms\n",
              s.latency.p50_us / 1000.0, s.latency.p90_us / 1000.0,
              s.latency.p99_us / 1000.0, s.latency.p999_us / 1000.0);
  std::printf("  throughput %.0f im/s over %.2f s\n\n", s.throughput_ims,
              s.wall_seconds);
}

}  // namespace

int main() {
  // --- 0. A small encoded workload. ----------------------------------------
  SynthImageOptions gen_opts;
  gen_opts.width = 128;
  gen_opts.height = 128;
  gen_opts.num_classes = 4;
  SynthImageGenerator generator(gen_opts);
  std::vector<std::vector<uint8_t>> encoded;
  for (int i = 0; i < 96; ++i) {
    auto bytes = SjpgEncode(generator.Generate(i % 4, i), {.quality = 85});
    SMOL_CHECK_OK(bytes.status());
    encoded.push_back(std::move(bytes).MoveValue());
  }
  PipelineSpec spec;
  spec.input_width = 128;
  spec.input_height = 128;
  spec.resize_short_side = 96;
  spec.crop_width = 80;
  spec.crop_height = 80;

  SimAccelerator::Options accel_opts;
  accel_opts.dnn_throughput_ims = 5000.0;

  // --- 1+2. Burst through the future flavour. ------------------------------
  {
    ServerOptions opts;
    opts.max_batch = 16;  // coalesce up to 16 already-staged requests
    Server server(opts, spec, DecodeSjpg,
                  std::make_shared<SimAccelerator>(accel_opts));
    std::printf("Plan: %s\n\n", server.plan().ToString().c_str());

    std::vector<std::future<InferenceReply>> replies;
    for (int i = 0; i < 64; ++i) {
      InferenceRequest request;
      request.bytes = &encoded[static_cast<size_t>(i)];
      request.label = i;
      replies.push_back(server.Submit(request));
    }
    for (size_t i = 0; i < replies.size(); ++i) {
      const InferenceReply r = replies[i].get();
      SMOL_CHECK_OK(r.status);
      if (i < 3) {
        std::printf("request %d: served in a batch of %d, latency %.2f ms\n",
                    r.label, r.batch_size, r.latency_us / 1000.0);
      }
    }
    server.Shutdown();
    PrintStats("Burst of 64 (dynamic batching):", server.stats());
  }

  // --- 3. Callback flavour. ------------------------------------------------
  {
    ServerOptions opts;
    opts.max_batch = 8;
    Server server(opts, spec, DecodeSjpg,
                  std::make_shared<SimAccelerator>(accel_opts));
    std::atomic<int> completions{0};
    for (int i = 0; i < 32; ++i) {
      InferenceRequest request;
      request.bytes = &encoded[static_cast<size_t>(i)];
      server.Submit(request,
                    [&completions](const InferenceReply&) { ++completions; });
    }
    server.Shutdown();
    std::printf("Callback flavour: %d/32 completions delivered\n\n",
                completions.load());
  }

  // --- 4. Overload with the shed policy. -----------------------------------
  {
    SimAccelerator::Options slow = accel_opts;
    slow.dnn_throughput_ims = 300.0;  // a much slower device...
    ServerOptions opts;
    opts.pipeline.queue_capacity = 4;
    opts.admission_capacity = 4;      // ...behind tiny bounded queues
    opts.max_batch = 4;
    opts.overload = OverloadPolicy::kShed;
    Server server(opts, spec, DecodeSjpg,
                  std::make_shared<SimAccelerator>(slow));
    std::vector<std::future<InferenceReply>> replies;
    for (int i = 0; i < 96; ++i) {
      InferenceRequest request;
      request.bytes = &encoded[static_cast<size_t>(i)];
      replies.push_back(server.Submit(request));
    }
    server.Shutdown();
    int served = 0, shed = 0;
    for (auto& reply : replies) {
      reply.get().ok() ? ++served : ++shed;
    }
    std::printf("Overloaded shed-policy server: %d served, %d shed "
                "(every request still got an answer)\n\n",
                served, shed);
    PrintStats("Overload run:", server.stats());
  }

  // --- 5. A heterogeneous fleet behind one front end. ----------------------
  //
  // One line builds a mixed K80+T4+V100 fleet from the Table 5 calibration;
  // capacity-weighted dispatch then splits traffic by estimated drain time,
  // so the V100 takes the bulk while the 45x-slower K80 still serves.
  // (time_scale slows the modeled devices into this host's range so the
  // dispatch decision — not the demo's single CPU — shapes the split.)
  {
    SimFleetOptions fleet_opts;
    fleet_opts.time_scale = 8.0;
    auto fleet = MakeSimFleet(
        {GpuModel::kK80, GpuModel::kT4, GpuModel::kV100}, fleet_opts);
    SMOL_CHECK_OK(fleet.status());
    ServerOptions opts;
    opts.max_batch = 16;
    opts.devices = std::move(fleet).MoveValue();
    opts.dispatch = DispatchPolicy::kCapacityWeighted;
    Server server(opts, spec, DecodeSjpg, nullptr);
    std::vector<std::future<InferenceReply>> replies;
    for (int i = 0; i < 96; ++i) {
      InferenceRequest request;
      request.bytes = &encoded[static_cast<size_t>(i)];
      replies.push_back(server.Submit(request));
    }
    for (auto& reply : replies) SMOL_CHECK_OK(reply.get().status);
    server.Shutdown();
    const ServerStats s = server.stats();
    std::printf("Mixed fleet (%s dispatch):\n",
                DispatchPolicyName(opts.dispatch));
    for (const ShardStats& shard : s.shards) {
      std::printf("  shard %d: %-7s cap %5.0f im/s -> served %llu "
                  "(%llu batches, p50 %.2f ms)\n",
                  shard.shard, shard.device.c_str(), shard.capacity_ims,
                  static_cast<unsigned long long>(shard.served),
                  static_cast<unsigned long long>(shard.batches),
                  shard.latency.p50_us / 1000.0);
    }
    PrintStats("\nMixed-fleet run:", s);
  }

  // --- 6. Load-adaptive plan selection. ------------------------------------
  //
  // Three ladder rungs (full fidelity, 0.75x, 0.55x geometry — the cheaper
  // rungs also decode at reduced resolution straight from the DCT domain).
  // A slow device plus a burst of latency-SLO traffic against a small
  // blocking admission queue keeps the fill at capacity for the whole run,
  // so the controller steps down the ladder while the burst is in flight
  // and the replies say which rung served them. Best-accuracy requests
  // would stay pinned to rung 0 throughout.
  {
    SimAccelerator::Options slow = accel_opts;
    slow.dnn_throughput_ims = 400.0;
    ServerOptions opts;
    opts.max_batch = 8;
    opts.admission_capacity = 16;
    opts.overload = OverloadPolicy::kBlock;
    opts.adaptive.ladder_scales = {1.0, 0.75, 0.55};
    opts.adaptive.controller.sample_interval_us = 2000.0;
    Server server(opts, spec, DecodeSjpg,
                  std::make_shared<SimAccelerator>(slow));

    std::printf("Plan ladder (%zu rungs):\n", server.ladder().size());
    for (const PlanRung& rung : server.ladder()) {
      std::printf("  %-12s scale %.2f  decode 1/%d  est. cost %.2fx\n",
                  rung.name.c_str(), rung.scale, rung.decode_scale_denom,
                  rung.relative_cost);
    }

    std::vector<std::future<InferenceReply>> replies;
    for (int i = 0; i < 192; ++i) {
      InferenceRequest request;
      request.bytes = &encoded[static_cast<size_t>(i) % encoded.size()];
      request.label = i;
      request.klass = RequestClass::kLatencySlo;
      replies.push_back(server.Submit(request));
    }
    server.Shutdown();

    std::vector<int> by_rung(server.ladder().size(), 0);
    int degraded = 0;
    for (auto& reply : replies) {
      const InferenceReply r = reply.get();
      if (!r.ok()) continue;
      ++by_rung[static_cast<size_t>(r.plan_rung)];
      if (r.degraded) ++degraded;
    }
    std::printf("\nBurst of 192 latency-SLO requests on a slow device:\n");
    for (size_t i = 0; i < by_rung.size(); ++i) {
      std::printf("  rung %zu served %d\n", i, by_rung[i]);
    }
    const ServerStats s = server.stats();
    std::printf("  %d degraded replies, %llu controller switches\n\n",
                degraded, static_cast<unsigned long long>(s.plan_switches));
  }
  return 0;
}
