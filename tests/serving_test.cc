// Tests for the streaming serving runtime (src/runtime/server.h) and the
// latency histogram behind ServerStats: dynamic-batch coalescing under
// bursty vs. trickling submission, backpressure/shed admission policies,
// clean shutdown with in-flight requests, and percentile correctness
// against a sorted reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/codec/sjpg.h"
#include "src/hw/fleet.h"
#include "src/preproc/graph.h"
#include "src/runtime/plan_controller.h"
#include "src/runtime/server.h"
#include "src/util/latency_histogram.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace smol {
namespace {

using smol::testing::MakeTestImage;

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 64; ++i) {
      const Image img = MakeTestImage(96, 96, 3, 700 + i);
      auto encoded = SjpgEncode(img, {.quality = 85});
      ASSERT_TRUE(encoded.ok());
      encoded_.push_back(std::move(encoded).MoveValue());
    }
    spec_.input_width = 96;
    spec_.input_height = 96;
    spec_.resize_short_side = 72;
    spec_.crop_width = 64;
    spec_.crop_height = 64;
  }

  InferenceRequest Item(
      int i, RequestClass klass = RequestClass::kBestAccuracy) const {
    InferenceRequest request;
    request.bytes = &encoded_[static_cast<size_t>(i) % encoded_.size()];
    request.label = i;
    request.klass = klass;
    return request;
  }

  /// The deprecated raw-WorkItem surface, kept for the shim tests.
  WorkItem LegacyItem(int i) const {
    WorkItem item;
    item.bytes = &encoded_[static_cast<size_t>(i) % encoded_.size()];
    item.label = i;
    return item;
  }

  static std::shared_ptr<SimAccelerator> MakeAccel(double throughput) {
    SimAccelerator::Options opts;
    opts.dnn_throughput_ims = throughput;
    return std::make_shared<SimAccelerator>(opts);
  }

  /// Forwards to a SimAccelerator and counts batches as they reach the
  /// device, so a test can act while a batch is still executing.
  class ObservedDevice : public Device {
   public:
    explicit ObservedDevice(std::shared_ptr<SimAccelerator> inner)
        : inner_(std::move(inner)) {}
    void ExecuteBatch(int batch_size, size_t input_bytes, bool pinned,
                      int chunks) override {
      started_.fetch_add(1, std::memory_order_release);
      inner_->ExecuteBatch(batch_size, input_bytes, pinned, chunks);
    }
    void Drain() override { inner_->Drain(); }
    DeviceStats stats() const override { return inner_->stats(); }
    double capacity_ims() const override { return inner_->capacity_ims(); }
    const std::string& name() const override { return inner_->name(); }
    int started() const { return started_.load(std::memory_order_acquire); }

   private:
    std::shared_ptr<SimAccelerator> inner_;
    std::atomic<int> started_{0};
  };

  static Result<Image> DecodeSjpg(const WorkItem& item) {
    SjpgDecodeOptions opts;
    opts.roi = item.roi;
    // The adaptive ladder's cheap-decode lever; the codec rejects combining
    // it with an ROI, so it only applies to full-frame requests.
    if (item.roi.empty()) opts.scale_denom = item.decode_scale_denom;
    return SjpgDecode(*item.bytes, opts);
  }

  std::vector<std::vector<uint8_t>> encoded_;
  PipelineSpec spec_;
};

TEST_F(ServingTest, SubmitCompletesWithLatencyAndEchoedLabel) {
  ServerOptions opts;
  opts.max_batch = 8;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 32; ++i) replies.push_back(server.Submit(Item(i)));
  for (int i = 0; i < 32; ++i) {
    const InferenceReply r = replies[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.label, i);
    EXPECT_GT(r.latency_us, 0.0);
    EXPECT_GE(r.batch_size, 1);
  }
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.completed, 32u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.latency.p50_us, 0.0);
  EXPECT_GT(stats.latency.p99_us, 0.0);
  EXPECT_GE(stats.latency.p99_us, stats.latency.p50_us);
  EXPECT_GT(stats.throughput_ims, 0.0);
}

// Bursty submission: everything is in flight at once, and the device is
// modelled far below any host's preprocessing rate (25 im/s, even under
// sanitizers on one core), so samples back up behind the busy device and
// each batcher coalesces that backlog.
TEST_F(ServingTest, BurstySubmissionCoalescesBatches) {
  ServerOptions opts;
  opts.max_batch = 8;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(25.0));
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 48; ++i) replies.push_back(server.Submit(Item(i)));
  for (auto& r : replies) ASSERT_TRUE(r.get().ok());
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 48u);
  // Coalescing must be visible end-to-end: strictly fewer accelerator
  // submissions than images, and at least one near-full batch.
  EXPECT_LT(stats.batches, 48u / 2);
  EXPECT_GE(stats.accel_stats.max_batch, 4u);
  EXPECT_GT(stats.mean_batch, 1.5);
}

// Trickling submission: each request completes before the next arrives, so
// there is never a backlog and every request must be served alone.
TEST_F(ServingTest, SlowSubmissionServesSingleSampleBatches) {
  ServerOptions opts;
  opts.max_batch = 8;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 8; ++i) {
    replies.push_back(server.Submit(Item(i)));
    // Wait the request out entirely: the next one can never share its batch.
    ASSERT_TRUE(replies.back().wait_for(std::chrono::seconds(30)) ==
                std::future_status::ready);
  }
  for (auto& r : replies) EXPECT_EQ(r.get().batch_size, 1);
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.batches, 8u);
  EXPECT_EQ(stats.accel_stats.max_batch, 1u);
}

// Work-conserving contract: an idle device takes a lone request at once,
// and requests that arrive while it is busy coalesce from the backlog. The
// device (2 im/s) holds the lone request for 500 ms, far longer than any
// host needs to stage the follow-ups behind it.
TEST_F(ServingTest, IdleDeviceServesLoneRequestBusyDeviceCoalesces) {
  constexpr int kFollowUps = 4;
  ServerOptions opts;
  opts.max_batch = 8;
  opts.pipeline.num_consumers = 2;
  auto device = std::make_shared<ObservedDevice>(MakeAccel(2.0));
  Server server(opts, spec_, DecodeSjpg, device);
  std::future<InferenceReply> lone = server.Submit(Item(0));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (device->started() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(device->started(), 1) << "the lone request never reached the "
                                     "idle device";
  std::vector<std::future<InferenceReply>> follow_ups;
  for (int i = 1; i <= kFollowUps; ++i) {
    follow_ups.push_back(server.Submit(Item(i)));
  }
  const InferenceReply first = lone.get();
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(first.batch_size, 1);
  for (auto& r : follow_ups) ASSERT_TRUE(r.get().ok());
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u + kFollowUps);
  // The follow-ups take at most one batch per batcher: the free batcher
  // submits what is staged when it wakes, and the busy one takes the rest
  // of the backlog once the lone request leaves the device.
  EXPECT_LE(stats.batches, 3u);
}

// Shed policy: with tiny queues and a slow accelerator, an open-loop burst
// must be partially rejected — and every rejection still completes its
// future with ResourceExhausted.
TEST_F(ServingTest, ShedPolicyRejectsOverload) {
  ServerOptions opts;
  opts.pipeline.num_producers = 2;  // keep in-flight capacity machine-independent
  opts.pipeline.queue_capacity = 2;
  opts.max_batch = 2;
  opts.admission_capacity = 2;
  opts.overload = OverloadPolicy::kShed;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(500.0));
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 64; ++i) replies.push_back(server.Submit(Item(i)));
  server.Shutdown();
  uint64_t ok = 0, shed = 0;
  for (auto& reply : replies) {
    const InferenceReply r = reply.get();  // every future must become ready
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.completed + stats.shed, 64u);
  EXPECT_EQ(stats.failed, 0u);
}

// Block policy: the same overload blocks the submitter instead, and every
// request is eventually served.
TEST_F(ServingTest, BlockPolicyCompletesEverything) {
  ServerOptions opts;
  opts.pipeline.queue_capacity = 2;
  opts.max_batch = 4;
  opts.admission_capacity = 2;
  opts.overload = OverloadPolicy::kBlock;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(5000.0));
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 32; ++i) replies.push_back(server.Submit(Item(i)));
  server.Shutdown();
  for (auto& r : replies) EXPECT_TRUE(r.get().ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 32u);
  EXPECT_EQ(stats.shed, 0u);
}

// Shutdown with requests still in flight: all accepted work drains first.
TEST_F(ServingTest, ShutdownDrainsInFlightRequests) {
  ServerOptions opts;
  opts.max_batch = 4;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(2000.0));
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 16; ++i) replies.push_back(server.Submit(Item(i)));
  server.Shutdown();
  for (auto& reply : replies) {
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(reply.get().ok());
  }
  EXPECT_EQ(server.stats().completed, 16u);
}

// Calm traffic: one request at a time leaves the other producers parked on
// the empty admission queue, so the working one splits its decode and
// preprocessing into row bands they can claim.
TEST_F(ServingTest, CalmSequentialTrafficSplitsAcrossIdleProducers) {
  ServerOptions opts;
  opts.pipeline.num_producers = 3;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  for (int i = 0; i < 24; ++i) {
    const InferenceReply r = server.Submit(Item(i)).get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.label, i);
  }
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 24u);
  EXPECT_GE(stats.split_requests, 1u);
  EXPECT_LE(stats.split_requests, stats.completed);
}

// One producer has no peer to help it: the server never splits.
TEST_F(ServingTest, SingleProducerNeverSplits) {
  ServerOptions opts;
  opts.pipeline.num_producers = 1;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(server.Submit(Item(i)).get().ok());
  }
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.split_requests, 0u);
  EXPECT_EQ(stats.helper_bands, 0u);
}

// Shutdown() in the middle of a calm, splitting stream still returns, and
// every request is answered exactly once: served, or cancelled after the
// shutdown closed admission.
TEST_F(ServingTest, ShutdownDuringCalmSplittingStreamReturns) {
  ServerOptions opts;
  opts.pipeline.num_producers = 3;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  std::vector<std::future<InferenceReply>> replies;
  std::atomic<bool> streaming{true};
  std::thread stream([&] {
    for (int i = 0; i < 400 && streaming; ++i) {
      replies.push_back(server.Submit(Item(i)));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  while (server.stats().split_requests == 0 &&
         server.stats().completed < 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Shutdown();
  streaming = false;
  stream.join();
  uint64_t served = 0;
  for (auto& reply : replies) {
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const InferenceReply r = reply.get();
    if (r.ok()) {
      ++served;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, served);
  EXPECT_EQ(stats.submitted, served);
}

TEST_F(ServingTest, SubmitAfterShutdownIsCancelled) {
  ServerOptions opts;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  server.Shutdown();
  const InferenceReply r = server.Submit(Item(0)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(server.stats().submitted, 0u);
}

TEST_F(ServingTest, CallbackFlavourFiresExactlyOncePerRequest) {
  ServerOptions opts;
  opts.max_batch = 4;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  std::atomic<int> fired{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < 24; ++i) {
    server.Submit(Item(i), [&](const InferenceReply& reply) {
      fired.fetch_add(1);
      if (reply.ok()) ok.fetch_add(1);
    });
  }
  server.Shutdown();  // all callbacks have fired once drained
  EXPECT_EQ(fired.load(), 24);
  EXPECT_EQ(ok.load(), 24);
}

TEST_F(ServingTest, DecodeErrorCompletesRequestWithFailure) {
  const std::vector<uint8_t> garbage = {1, 2, 3, 4};
  ServerOptions opts;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  WorkItem bad;
  bad.bytes = &garbage;
  auto bad_reply = server.Submit(bad);
  auto good_reply = server.Submit(Item(1));
  EXPECT_EQ(bad_reply.get().status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(good_reply.get().ok());  // other traffic is unaffected
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// --- Zero-copy staging + tensor cache ------------------------------------------------

// The accelerator must see exactly the logical tensor bytes: every staged
// sample is the plan's output (64x64x3 floats here), staged once, with one
// gather descriptor per sample — no padding, no duplicate staging copies.
TEST_F(ServingTest, StagedBytesMatchLogicalTensorBytes) {
  ServerOptions opts;
  opts.max_batch = 8;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  constexpr uint64_t kImages = 32;
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < static_cast<int>(kImages); ++i) {
    replies.push_back(server.Submit(Item(i)));
  }
  for (auto& r : replies) ASSERT_TRUE(r.get().ok());
  server.Shutdown();
  const ServerStats stats = server.stats();
  const uint64_t logical_bytes_per_image = 64ull * 64ull * 3ull * sizeof(float);
  EXPECT_EQ(stats.accel_stats.bytes, kImages * logical_bytes_per_image);
  EXPECT_EQ(stats.accel_stats.chunks, kImages);  // one descriptor per sample
  // With the cache off, no tensor-cache bookkeeping happens at all.
  EXPECT_EQ(stats.tensor_cache.hits, 0u);
  EXPECT_EQ(stats.tensor_cache.misses, 0u);
}

// Repeated content with the cache enabled: the second wave is served from the
// cache (reply.cache_hit), labels still echo per-request, and the decoder is
// never touched for a hit.
TEST_F(ServingTest, RepeatedContentHitsCacheAndSkipsDecode) {
  ServerOptions opts;
  opts.max_batch = 8;
  opts.cache.enable_tensor_cache = true;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  std::vector<std::future<InferenceReply>> first;
  for (int i = 0; i < 8; ++i) first.push_back(server.Submit(Item(i)));
  for (auto& r : first) {
    const InferenceReply reply = r.get();
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply.cache_hit);  // first sighting of each image
  }
  const double decode_seconds_after_misses = server.stats().decode_seconds;
  EXPECT_GT(decode_seconds_after_misses, 0.0);

  // Same encoded bytes, fresh labels: every request must hit.
  std::vector<std::future<InferenceReply>> second;
  for (int i = 0; i < 8; ++i) {
    InferenceRequest item = Item(i);
    item.label = 100 + i;
    second.push_back(server.Submit(item));
  }
  for (int i = 0; i < 8; ++i) {
    const InferenceReply reply = second[static_cast<size_t>(i)].get();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.label, 100 + i);  // label rides the request, not the cache
    EXPECT_TRUE(reply.cache_hit);
  }
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.tensor_cache.hits, 8u);
  EXPECT_EQ(stats.tensor_cache.misses, 8u);
  EXPECT_EQ(stats.tensor_cache.entries, 8u);
  // Cache hits bypass the decoder entirely: no decode time accrued in wave 2.
  EXPECT_DOUBLE_EQ(stats.decode_seconds, decode_seconds_after_misses);
  EXPECT_EQ(stats.completed, 16u);
}

// The cache is an optimization, not a semantic change: the same workload with
// the cache on and off yields the same replies (labels, success) and stages
// the same total bytes to the accelerator.
TEST_F(ServingTest, CacheOnAndOffProduceIdenticalResults) {
  constexpr int kRequests = 24;
  constexpr int kUniqueImages = 6;
  uint64_t staged_bytes[2] = {0, 0};
  std::vector<int> labels[2];
  for (int pass = 0; pass < 2; ++pass) {
    const bool cache_on = pass == 1;
    ServerOptions opts;
    opts.max_batch = 4;
    // Two producers: duplicates (6 requests apart) are never decoded
    // concurrently, so the hit count below is deterministic.
    opts.pipeline.num_producers = 2;
    opts.cache.enable_tensor_cache = cache_on;
    Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
    std::vector<std::future<InferenceReply>> replies;
    for (int i = 0; i < kRequests; ++i) {
      InferenceRequest item = Item(i % kUniqueImages);  // heavy content repetition
      item.label = i;
      replies.push_back(server.Submit(item));
    }
    for (auto& r : replies) {
      const InferenceReply reply = r.get();
      ASSERT_TRUE(reply.ok()) << reply.status.ToString();
      labels[pass].push_back(reply.label);
    }
    server.Shutdown();
    const ServerStats stats = server.stats();
    staged_bytes[pass] = stats.accel_stats.bytes;
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.failed, 0u);
    if (cache_on) {
      // A hit stages the identical shared tensor, so hits don't change the
      // bytes the accelerator consumes.
      EXPECT_EQ(stats.tensor_cache.hits + stats.tensor_cache.misses,
                static_cast<uint64_t>(kRequests));
      EXPECT_GT(stats.tensor_cache.hits, 0u);
    }
  }
  std::sort(labels[0].begin(), labels[0].end());
  std::sort(labels[1].begin(), labels[1].end());
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(staged_bytes[0], staged_bytes[1]);
}

// --- Multi-device sharding -----------------------------------------------------------

// Explicitly passing a one-device fleet is the documented degenerate case:
// it must behave exactly like the classic constructor-accelerator path.
TEST_F(ServingTest, SingleDeviceFleetIsDegenerateCase) {
  ServerOptions opts;
  opts.max_batch = 8;
  opts.pipeline.num_producers = 2;
  SimAccelerator::Options accel_opts;
  accel_opts.dnn_throughput_ims = 1e5;
  opts.devices = MakeHomogeneousFleet(1, accel_opts);
  Server server(opts, spec_, DecodeSjpg, nullptr);  // fleet supplies devices
  EXPECT_EQ(server.num_shards(), 1);
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 32; ++i) replies.push_back(server.Submit(Item(i)));
  for (auto& r : replies) {
    const InferenceReply reply = r.get();
    ASSERT_TRUE(reply.ok()) << reply.status.ToString();
    EXPECT_EQ(reply.shard, 0);
  }
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 32u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].served, 32u);
  EXPECT_EQ(stats.shards[0].outstanding_bytes, 0u);
}

// Round-robin over a homogeneous fleet is exact: the dispatch cursor is a
// single global atomic, so N requests over M shards land N/M on each.
TEST_F(ServingTest, RoundRobinDispatchBalancesExactly) {
  ServerOptions opts;
  opts.max_batch = 8;
  opts.pipeline.num_producers = 2;
  opts.dispatch = DispatchPolicy::kRoundRobin;
  SimAccelerator::Options accel_opts;
  accel_opts.dnn_throughput_ims = 1e5;
  opts.devices = MakeHomogeneousFleet(4, accel_opts);
  Server server(opts, spec_, DecodeSjpg, nullptr);
  EXPECT_EQ(server.num_shards(), 4);
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 64; ++i) replies.push_back(server.Submit(Item(i)));
  for (auto& r : replies) {
    const InferenceReply reply = r.get();
    ASSERT_TRUE(reply.ok());
    EXPECT_GE(reply.shard, 0);
    EXPECT_LT(reply.shard, 4);
  }
  server.Shutdown();
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t total = 0;
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.served, 16u) << "shard " << shard.shard;
    total += shard.served;
  }
  EXPECT_EQ(total, stats.completed);
}

// Scheduling property (uniform load): least-loaded over a homogeneous fleet
// must stay balanced — bounded max/min served ratio, no starved shard, and
// every per-shard queue depth within its configured bound. The global
// latency rollup must account for exactly the served requests. The devices
// (100 im/s) are far below the host's preprocessing rate, so the fleet is
// the bottleneck and the split follows device drain, not host scheduling.
TEST_F(ServingTest, LeastLoadedBalancesUniformLoad) {
  constexpr int kRequests = 256;
  ServerOptions opts;
  opts.max_batch = 8;
  opts.pipeline.num_producers = 2;
  opts.dispatch = DispatchPolicy::kLeastLoaded;
  opts.shard_queue_capacity = 16;
  SimAccelerator::Options accel_opts;
  accel_opts.dnn_throughput_ims = 100.0;
  opts.devices = MakeHomogeneousFleet(4, accel_opts);
  Server server(opts, spec_, DecodeSjpg, nullptr);
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < kRequests; ++i) replies.push_back(server.Submit(Item(i)));
  for (auto& r : replies) ASSERT_TRUE(r.get().ok());
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t min_served = kRequests, max_served = 0, sum_served = 0;
  uint64_t latency_count = 0;
  for (const ShardStats& shard : stats.shards) {
    EXPECT_GT(shard.served, 0u) << "starved shard " << shard.shard;
    EXPECT_LE(shard.queue_depth_hwm, 16u) << "shard " << shard.shard;
    EXPECT_EQ(shard.outstanding_bytes, 0u);  // fully drained
    min_served = std::min(min_served, shard.served);
    max_served = std::max(max_served, shard.served);
    sum_served += shard.served;
    latency_count += shard.latency.count;
  }
  EXPECT_EQ(sum_served, static_cast<uint64_t>(kRequests));
  ASSERT_GT(min_served, 0u);
  EXPECT_LE(static_cast<double>(max_served) / static_cast<double>(min_served),
            1.25);
  // The fleet-wide histogram is the bucket-wise merge of the shard ones.
  EXPECT_EQ(stats.latency.count, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(latency_count, static_cast<uint64_t>(kRequests));
}

// Scheduling property (skewed per-shard cost): a 10x-faster device drains
// its queue 10x quicker, so both load-aware policies must shift work toward
// it without ever starving the slow device. The devices are modeled far
// below any host's preprocessing rate (5 + 50 im/s) so the fleet — not the
// CPU — is the bottleneck even under sanitizer instrumentation; the dispatch
// decision is then the only thing that shapes the split.
TEST_F(ServingTest, LoadAwareDispatchAdaptsToSkewedDeviceCosts) {
  for (DispatchPolicy policy :
       {DispatchPolicy::kLeastLoaded, DispatchPolicy::kCapacityWeighted}) {
    SCOPED_TRACE(DispatchPolicyName(policy));
    constexpr int kRequests = 80;
    ServerOptions opts;
    opts.max_batch = 4;
    opts.pipeline.num_producers = 2;
    opts.dispatch = policy;
    opts.shard_queue_capacity = 4;
    SimAccelerator::Options slow;
    slow.dnn_throughput_ims = 5.0;
    slow.name = "slow";
    SimAccelerator::Options fast = slow;
    fast.dnn_throughput_ims = 50.0;
    fast.name = "fast";
    opts.devices = {std::make_shared<SimAccelerator>(slow),
                    std::make_shared<SimAccelerator>(fast)};
    Server server(opts, spec_, DecodeSjpg, nullptr);
    std::vector<std::future<InferenceReply>> replies;
    for (int i = 0; i < kRequests; ++i) {
      replies.push_back(server.Submit(Item(i)));
    }
    for (auto& r : replies) ASSERT_TRUE(r.get().ok());
    server.Shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
    ASSERT_EQ(stats.shards.size(), 2u);
    const ShardStats& slow_shard = stats.shards[0];
    const ShardStats& fast_shard = stats.shards[1];
    EXPECT_EQ(slow_shard.device, "slow");
    EXPECT_EQ(fast_shard.device, "fast");
    EXPECT_GT(slow_shard.served, 0u);  // no starvation
    // The fast device must take the clear majority (it has 10x capacity; we
    // only require 2x to keep the bound robust to scheduling noise).
    EXPECT_GE(fast_shard.served, 2 * slow_shard.served);
    EXPECT_EQ(slow_shard.served + fast_shard.served,
              static_cast<uint64_t>(kRequests));
  }
}

// Satellite: mid-run stats() snapshots never invert the pipeline's causal
// order — submitted >= completed + failed and completed >= sum(served) in
// every snapshot, even while a poller races the serving threads.
TEST_F(ServingTest, StatsSnapshotsAreCoherentMidRun) {
  ServerOptions opts;
  opts.max_batch = 4;
  opts.pipeline.num_producers = 2;
  SimAccelerator::Options accel_opts;
  accel_opts.dnn_throughput_ims = 5000.0;
  opts.devices = MakeHomogeneousFleet(2, accel_opts);
  Server server(opts, spec_, DecodeSjpg, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots{0};
  std::atomic<uint64_t> violations{0};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const ServerStats s = server.stats();
      snapshots.fetch_add(1, std::memory_order_relaxed);
      if (s.submitted < s.completed + s.failed) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      uint64_t served = 0;
      for (const ShardStats& shard : s.shards) served += shard.served;
      if (s.completed < served) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      // Per-class splits are written after the globals, so a snapshot's
      // global counters can trail in-flight work but never the class sums.
      uint64_t class_submitted = 0, class_completed = 0;
      for (const ClassStats& cs : s.classes) {
        class_submitted += cs.submitted;
        class_completed += cs.completed;
      }
      if (s.submitted < class_submitted || s.completed < class_completed) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 200; ++i) replies.push_back(server.Submit(Item(i)));
  for (auto& r : replies) ASSERT_TRUE(r.get().ok());
  server.Shutdown();
  stop.store(true, std::memory_order_release);
  poller.join();

  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(server.stats().completed, 200u);
}

// Satellite: throughput_ims is measured over the active serving window
// (first submit -> last completion), so an idle lead-in before the first
// request no longer dilutes it. wall_seconds still spans construction.
TEST_F(ServingTest, ThroughputMeasuresActiveWindowNotIdleLeadIn) {
  ServerOptions opts;
  opts.max_batch = 8;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // idle lead-in
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 32; ++i) replies.push_back(server.Submit(Item(i)));
  for (auto& r : replies) ASSERT_TRUE(r.get().ok());
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 32u);
  ASSERT_GT(stats.active_seconds, 0.0);
  ASSERT_GT(stats.wall_seconds, 0.0);
  EXPECT_LT(stats.active_seconds, stats.wall_seconds);
  const double diluted =
      static_cast<double>(stats.completed) / stats.wall_seconds;
  // The 300 ms idle lead-in dwarfs the actual serving window, so the
  // active-window rate must beat the diluted wall rate by a wide margin.
  EXPECT_GT(stats.throughput_ims, 1.5 * diluted);
  EXPECT_NEAR(stats.throughput_ims,
              static_cast<double>(stats.completed) / stats.active_seconds,
              1e-6);
}

// --- QoS request API -----------------------------------------------------------------

// The deprecated raw-WorkItem Submit overloads forward through
// InferenceRequest::FromWorkItem: legacy callers keep working, served as
// best-accuracy traffic at rung 0.
TEST_F(ServingTest, DeprecatedWorkItemSubmitStillServes) {
  ServerOptions opts;
  opts.max_batch = 4;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  auto future_reply = server.Submit(LegacyItem(3));
  std::atomic<int> fired{0};
  server.Submit(LegacyItem(4), [&](const InferenceReply& reply) {
    if (reply.ok()) fired.fetch_add(1);
  });
  const InferenceReply r = future_reply.get();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.label, 3);
  EXPECT_EQ(r.klass, RequestClass::kBestAccuracy);
  EXPECT_EQ(r.plan_rung, 0);
  EXPECT_FALSE(r.degraded);
  server.Shutdown();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(server.stats().completed, 2u);
}

// A request whose deadline already passed completes with DeadlineExceeded
// instead of occupying decode + device time; other traffic is unaffected.
TEST_F(ServingTest, ExpiredDeadlineCompletesWithDeadlineExceeded) {
  ServerOptions opts;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  InferenceRequest expired = Item(7);
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const InferenceReply r = server.Submit(expired).get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.label, 7);
  InferenceRequest live = Item(8);
  live.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_TRUE(server.Submit(live).get().ok());
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.failed, 1u);  // expiries count as failures...
  EXPECT_EQ(stats.completed, 1u);
  // ...attributed to the request's class.
  ASSERT_EQ(stats.classes.size(), static_cast<size_t>(kNumRequestClasses));
  EXPECT_EQ(stats.classes[0].failed, 1u);
}

// After a drained shutdown the per-class splits must reconcile exactly with
// the global counters, and each class's rung histogram with its completions.
TEST_F(ServingTest, PerClassStatsReconcileWithGlobalTotals) {
  ServerOptions opts;
  opts.max_batch = 4;
  opts.pipeline.num_producers = 2;
  opts.pipeline.queue_capacity = 2;
  opts.admission_capacity = 4;
  opts.overload = OverloadPolicy::kShed;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1500.0));
  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 96; ++i) {
    const RequestClass klass = i % 3 == 0 ? RequestClass::kBestAccuracy
                                          : RequestClass::kLatencySlo;
    replies.push_back(server.Submit(Item(i, klass)));
  }
  for (auto& r : replies) r.wait();
  server.Shutdown();
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.classes.size(), static_cast<size_t>(kNumRequestClasses));
  uint64_t submitted = 0, completed = 0, shed = 0, failed = 0;
  for (int c = 0; c < kNumRequestClasses; ++c) {
    const ClassStats& cs = stats.classes[static_cast<size_t>(c)];
    EXPECT_EQ(cs.klass, static_cast<RequestClass>(c));
    submitted += cs.submitted;
    completed += cs.completed;
    shed += cs.shed;
    failed += cs.failed;
    uint64_t by_rung = 0, degraded_rungs = 0;
    for (size_t rung = 0; rung < cs.served_by_rung.size(); ++rung) {
      by_rung += cs.served_by_rung[rung];
      if (rung > 0) degraded_rungs += cs.served_by_rung[rung];
    }
    EXPECT_EQ(by_rung, cs.completed) << RequestClassName(cs.klass);
    EXPECT_EQ(degraded_rungs, cs.degraded) << RequestClassName(cs.klass);
  }
  EXPECT_EQ(submitted, stats.submitted);
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(shed, stats.shed);
  EXPECT_EQ(failed, stats.failed);
  EXPECT_GT(stats.shed, 0u);  // the overload actually exercised shedding
  EXPECT_EQ(stats.submitted + stats.shed, 96u);
}

// --- Plan ladder ---------------------------------------------------------------------

TEST(PlanLadderTest, RungsScaleGeometryAndPickMultiResolutionDecode) {
  PipelineSpec base;
  base.input_width = 96;
  base.input_height = 96;
  base.resize_short_side = 72;
  base.crop_width = 64;
  base.crop_height = 64;
  ASSERT_OK_AND_ASSIGN(auto ladder, BuildPlanLadder(base, {1.0, 0.5}, true));
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].decode_scale_denom, 1);  // 96/2 = 48 < 72: full decode
  EXPECT_EQ(ladder[0].spec.input_width, 96);
  EXPECT_DOUBLE_EQ(ladder[0].relative_cost, 1.0);
  const PlanRung& cheap = ladder[1];
  EXPECT_EQ(cheap.spec.resize_short_side, 36);
  EXPECT_EQ(cheap.spec.crop_width, 32);
  EXPECT_EQ(cheap.spec.crop_height, 32);
  EXPECT_EQ(cheap.decode_scale_denom, 2);  // 96/2 = 48 still covers 36
  // The rung's spec describes what its decoder emits.
  EXPECT_EQ(cheap.spec.input_width, 48);
  EXPECT_EQ(cheap.spec.input_height, 48);
  EXPECT_LT(cheap.relative_cost, 1.0);
  EXPECT_NE(cheap.fingerprint, ladder[0].fingerprint);
  EXPECT_FALSE(cheap.name.empty());
}

TEST(PlanLadderTest, RejectsMalformedScales) {
  PipelineSpec base;
  base.input_width = 96;
  base.input_height = 96;
  base.resize_short_side = 72;
  base.crop_width = 64;
  base.crop_height = 64;
  EXPECT_FALSE(BuildPlanLadder(base, {}, true).ok());
  EXPECT_FALSE(BuildPlanLadder(base, {0.9, 0.5}, true).ok());  // must start at 1
  EXPECT_FALSE(BuildPlanLadder(base, {1.0, 0.8, 0.8}, true).ok());  // not strict
  EXPECT_FALSE(BuildPlanLadder(base, {1.0, -0.5}, true).ok());  // out of (0, 1]
  PipelineSpec no_dims = base;
  no_dims.input_width = 0;
  EXPECT_FALSE(BuildPlanLadder(no_dims, {1.0, 0.5}, true).ok());
}

// Clamping (resize floor 8 px) can collapse adjacent scales onto identical
// geometry; such rungs are dropped rather than duplicated.
TEST(PlanLadderTest, CollapsedRungsAreDropped) {
  PipelineSpec base;
  base.input_width = 96;
  base.input_height = 96;
  base.resize_short_side = 9;
  base.crop_width = 8;
  base.crop_height = 8;
  ASSERT_OK_AND_ASSIGN(auto ladder, BuildPlanLadder(base, {1.0, 0.95}, true));
  EXPECT_EQ(ladder.size(), 1u);
}

// Every rung's compiled plan must keep the zero-copy executor parity the
// serving path relies on: decode at the rung's multi-resolution denominator,
// then ExecutePlanInto writes bit-identical output to ExecutePlan.
TEST(PlanLadderTest, EveryRungExecuteIntoMatchesExecutePlanExactly) {
  PipelineSpec base;
  base.input_width = 96;
  base.input_height = 96;
  base.resize_short_side = 72;
  base.crop_width = 64;
  base.crop_height = 64;
  ASSERT_OK_AND_ASSIGN(auto ladder,
                       BuildPlanLadder(base, {1.0, 0.75, 0.5}, true));
  ASSERT_GE(ladder.size(), 3u);
  const Image img = MakeTestImage(96, 96, 3, 41);
  auto encoded = SjpgEncode(img, {.quality = 85});
  ASSERT_TRUE(encoded.ok());
  const std::vector<uint8_t> bytes = std::move(encoded).MoveValue();
  PreprocScratch scratch;
  for (const PlanRung& rung : ladder) {
    SCOPED_TRACE(rung.name);
    SjpgDecodeOptions dopts;
    dopts.scale_denom = rung.decode_scale_denom;
    ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes, dopts));
    ASSERT_EQ(decoded.width(), rung.spec.input_width);
    ASSERT_EQ(decoded.height(), rung.spec.input_height);
    ASSERT_OK_AND_ASSIGN(FloatImage ref,
                         ExecutePlan(rung.plan, rung.spec, decoded));
    std::vector<float> dst(ref.data.size(), -1.0f);
    ASSERT_OK_AND_ASSIGN(size_t written,
                         ExecutePlanInto(rung.plan, rung.spec, decoded,
                                         scratch, dst.data(), dst.size()));
    ASSERT_EQ(written, ref.data.size());
    EXPECT_EQ(0, std::memcmp(dst.data(), ref.data.data(),
                             written * sizeof(float)));
  }
}

TEST(PlanLadderTest, FrontierGainsMapToDecreasingScales) {
  std::vector<SmolOptimizer::FrontierRung> frontier(3);
  frontier[0].relative_throughput = 1.0;
  frontier[1].relative_throughput = 2.0;
  frontier[2].relative_throughput = 16.0;
  const auto scales = LadderScalesFromFrontier(frontier, 4);
  ASSERT_EQ(scales.size(), 3u);
  EXPECT_DOUBLE_EQ(scales[0], 1.0);
  // Pixel cost is quadratic in the linear dimension: gain g -> ~1/sqrt(g).
  EXPECT_NEAR(scales[1], 1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(scales[2], 0.35);  // clamped floor
  EXPECT_EQ(LadderScalesFromFrontier(frontier, 2).size(), 2u);  // capped
  // Sub-2% steps dedupe away instead of producing near-identical rungs.
  std::vector<SmolOptimizer::FrontierRung> flat(2);
  flat[0].relative_throughput = 1.0;
  flat[1].relative_throughput = 1.01;
  EXPECT_EQ(LadderScalesFromFrontier(flat, 4), std::vector<double>{1.0});
}

// --- PlanController hysteresis -------------------------------------------------------

TEST(PlanControllerTest, DegradesUnderPressureWithCooldownBetweenSteps) {
  PlanControllerOptions opts;
  opts.cooldown_intervals = 2;
  PlanController controller(opts, /*num_rungs=*/3);
  LoadSignals pressure;
  pressure.queue_depth = 80;
  pressure.queue_capacity = 100;  // fill 0.8 >= queue_high_fraction
  EXPECT_EQ(controller.Observe(pressure), 1);  // first tick steps down
  EXPECT_EQ(controller.Observe(pressure), 1);  // cooldown holds the rung
  EXPECT_EQ(controller.Observe(pressure), 2);  // cooldown expired: next step
  EXPECT_EQ(controller.Observe(pressure), 2);
  EXPECT_EQ(controller.Observe(pressure), 2);  // bottom of the ladder: pinned
  EXPECT_EQ(controller.level(), 2);
  EXPECT_EQ(controller.switches(), 2u);
}

TEST(PlanControllerTest, RecoversOnlyAfterConsecutiveCalmIntervals) {
  PlanControllerOptions opts;
  opts.cooldown_intervals = 0;
  opts.recover_intervals = 3;
  PlanController controller(opts, /*num_rungs=*/3);
  LoadSignals pressure;
  pressure.shed_delta = 4;  // any shedding is pressure
  controller.Observe(pressure);
  controller.Observe(pressure);
  ASSERT_EQ(controller.level(), 2);
  LoadSignals calm;
  calm.queue_capacity = 100;  // empty queue, no shedding
  EXPECT_EQ(controller.Observe(calm), 2);
  EXPECT_EQ(controller.Observe(calm), 2);
  EXPECT_EQ(controller.Observe(calm), 1);  // third calm tick steps up
  // Each recovery step restarts the streak: three more ticks per rung.
  EXPECT_EQ(controller.Observe(calm), 1);
  EXPECT_EQ(controller.Observe(calm), 1);
  EXPECT_EQ(controller.Observe(calm), 0);
  EXPECT_EQ(controller.Observe(calm), 0);  // top of the ladder: pinned
  EXPECT_EQ(controller.switches(), 4u);
}

// The zone between the low and high queue watermarks is ambiguous: the
// controller holds the rung AND restarts the calm streak, so load hovering
// around the threshold cannot make it flap.
TEST(PlanControllerTest, AmbiguousLoadHoldsRungAndRestartsCalmStreak) {
  PlanControllerOptions opts;
  opts.cooldown_intervals = 0;
  opts.recover_intervals = 2;
  PlanController controller(opts, /*num_rungs=*/2);
  LoadSignals pressure;
  pressure.queue_depth = 60;
  pressure.queue_capacity = 100;
  controller.Observe(pressure);
  ASSERT_EQ(controller.level(), 1);
  LoadSignals mid;
  mid.queue_depth = 30;  // between low (15) and high (50) watermarks
  mid.queue_capacity = 100;
  LoadSignals calm;
  calm.queue_capacity = 100;
  EXPECT_EQ(controller.Observe(calm), 1);  // calm streak: 1
  EXPECT_EQ(controller.Observe(mid), 1);   // ambiguous: hold + reset streak
  EXPECT_EQ(controller.Observe(calm), 1);  // streak restarts at 1
  EXPECT_EQ(controller.Observe(calm), 0);  // streak reaches 2: recover
  EXPECT_EQ(controller.switches(), 2u);
}

TEST(PlanControllerTest, WindowedTailLatencySignalRespectsMinimumCount) {
  PlanControllerOptions opts;
  opts.cooldown_intervals = 0;
  opts.recover_intervals = 1;
  opts.degrade_p99_us = 10000.0;
  opts.min_window_count = 8;
  PlanController controller(opts, /*num_rungs=*/2);
  LoadSignals slow;
  slow.queue_capacity = 100;  // empty queue: only the latency signal fires
  slow.window.count = 4;      // too few samples: p99 is noise, no degrade
  slow.window.p99_us = 50000.0;
  EXPECT_EQ(controller.Observe(slow), 0);
  slow.window.count = 64;  // now the window is trustworthy
  EXPECT_EQ(controller.Observe(slow), 1);
  // Between recover (7 ms = 0.7 * degrade) and degrade (10 ms): ambiguous.
  LoadSignals tepid = slow;
  tepid.window.p99_us = 8000.0;
  EXPECT_EQ(controller.Observe(tepid), 1);
  LoadSignals cool = slow;
  cool.window.p99_us = 5000.0;  // under the recover threshold
  EXPECT_EQ(controller.Observe(cool), 0);
}

TEST(PlanControllerTest, ClassFloorsClampTheSharedLevel) {
  PlanControllerOptions opts;
  opts.cooldown_intervals = 0;
  PlanController controller(opts, /*num_rungs=*/4);
  LoadSignals pressure;
  pressure.shed_delta = 1;
  for (int i = 0; i < 8; ++i) controller.Observe(pressure);
  EXPECT_EQ(controller.level(), 3);
  // Default floors: best-accuracy pinned to rung 0, SLO rides the ladder.
  EXPECT_EQ(controller.RungFor(RequestClass::kBestAccuracy), 0);
  EXPECT_EQ(controller.RungFor(RequestClass::kLatencySlo), 3);

  PlanControllerOptions partial = opts;
  partial.floor_rung = {1, 2};  // explicit per-class floors
  PlanController clamped(partial, /*num_rungs=*/4);
  for (int i = 0; i < 8; ++i) clamped.Observe(pressure);
  EXPECT_EQ(clamped.RungFor(RequestClass::kBestAccuracy), 1);
  EXPECT_EQ(clamped.RungFor(RequestClass::kLatencySlo), 2);
}

// --- Adaptive serving end-to-end -----------------------------------------------------

// A non-adaptive server is the degenerate one-rung ladder: no controller, no
// switches, every reply at rung 0.
TEST_F(ServingTest, StaticServerReportsSingleRungLadder) {
  ServerOptions opts;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(1e5));
  EXPECT_EQ(server.ladder().size(), 1u);
  EXPECT_EQ(server.ActiveRung(RequestClass::kLatencySlo), 0);
  const InferenceReply r =
      server.Submit(Item(0, RequestClass::kLatencySlo)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan_rung, 0);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.klass, RequestClass::kLatencySlo);
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.num_rungs, 1);
  EXPECT_EQ(stats.plan_switches, 0u);
  ASSERT_EQ(stats.active_rung.size(),
            static_cast<size_t>(kNumRequestClasses));
  EXPECT_EQ(stats.active_rung[0], 0);
  EXPECT_EQ(stats.active_rung[1], 0);
}

// The flagship scenario: a sustained burst against a slow device fills the
// (blocking) admission queue, the controller degrades SLO traffic down the
// ladder, and once the burst drains it recovers to full fidelity — verified
// by a post-burst probe served at rung 0.
TEST_F(ServingTest, AdaptiveServerDegradesUnderBurstAndRecovers) {
  ServerOptions opts;
  opts.max_batch = 4;
  opts.pipeline.num_producers = 2;
  opts.admission_capacity = 16;
  opts.overload = OverloadPolicy::kBlock;  // deterministic: nothing shed
  opts.adaptive.ladder_scales = {1.0, 0.7, 0.5};
  opts.adaptive.controller.sample_interval_us = 1000.0;
  opts.adaptive.controller.recover_intervals = 3;
  // The device drains ~800 im/s while Submit() offers as fast as it can, so
  // the admission queue stays pinned at capacity for the whole burst.
  Server server(opts, spec_, DecodeSjpg, MakeAccel(800.0));
  ASSERT_EQ(server.ladder().size(), 3u);

  std::vector<std::future<InferenceReply>> replies;
  for (int i = 0; i < 200; ++i) {
    replies.push_back(server.Submit(Item(i, RequestClass::kLatencySlo)));
  }
  uint64_t ok = 0, degraded = 0;
  for (auto& reply : replies) {
    const InferenceReply r = reply.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    ++ok;
    ASSERT_GE(r.plan_rung, 0);
    ASSERT_LT(r.plan_rung, 3);
    EXPECT_EQ(r.degraded, r.plan_rung > 0);
    if (r.degraded) ++degraded;
  }
  EXPECT_EQ(ok, 200u);
  EXPECT_GT(degraded, 0u);  // the burst pushed SLO traffic down the ladder

  // The burst is over; the controller must walk back to full fidelity.
  const auto recover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.ActiveRung(RequestClass::kLatencySlo) != 0 &&
         std::chrono::steady_clock::now() < recover_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.ActiveRung(RequestClass::kLatencySlo), 0);
  const InferenceReply probe =
      server.Submit(Item(0, RequestClass::kLatencySlo)).get();
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.plan_rung, 0);
  EXPECT_FALSE(probe.degraded);

  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.plan_switches, 2u);  // at least one down + one up step
  ASSERT_EQ(stats.classes.size(), static_cast<size_t>(kNumRequestClasses));
  const ClassStats& slo = stats.classes[1];
  EXPECT_EQ(slo.degraded, degraded);
  ASSERT_EQ(slo.served_by_rung.size(), 3u);
  EXPECT_EQ(slo.served_by_rung[1] + slo.served_by_rung[2], degraded);
}

// The SLO-tier floor: under the same sustained pressure, best-accuracy
// requests are always served at rung 0 while SLO traffic degrades.
TEST_F(ServingTest, BestAccuracyClassIsNeverDegraded) {
  ServerOptions opts;
  opts.max_batch = 4;
  opts.pipeline.num_producers = 2;
  opts.admission_capacity = 16;
  opts.overload = OverloadPolicy::kBlock;
  opts.adaptive.ladder_scales = {1.0, 0.6};
  opts.adaptive.controller.sample_interval_us = 1000.0;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(800.0));
  std::vector<std::future<InferenceReply>> replies;
  std::vector<RequestClass> classes;
  for (int i = 0; i < 160; ++i) {
    const RequestClass klass = i % 4 == 0 ? RequestClass::kBestAccuracy
                                          : RequestClass::kLatencySlo;
    classes.push_back(klass);
    replies.push_back(server.Submit(Item(i, klass)));
  }
  uint64_t slo_degraded = 0;
  for (size_t i = 0; i < replies.size(); ++i) {
    const InferenceReply r = replies[i].get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.klass, classes[i]);
    if (classes[i] == RequestClass::kBestAccuracy) {
      EXPECT_EQ(r.plan_rung, 0);  // the floor pins accuracy-critical traffic
      EXPECT_FALSE(r.degraded);
    } else if (r.degraded) {
      ++slo_degraded;
    }
  }
  EXPECT_GT(slo_degraded, 0u);  // pressure really degraded the SLO tier
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.classes[0].degraded, 0u);
  EXPECT_EQ(stats.classes[0].served_by_rung[0], stats.classes[0].completed);
  EXPECT_EQ(stats.classes[1].degraded, slo_degraded);
}

// ROI requests pin to rung 0 regardless of load: the codec cannot combine
// partial (ROI) decode with multi-resolution decode.
TEST_F(ServingTest, RoiRequestsPinToFullFidelityRung) {
  ServerOptions opts;
  opts.max_batch = 4;
  opts.pipeline.num_producers = 2;
  opts.admission_capacity = 16;
  opts.overload = OverloadPolicy::kBlock;
  opts.adaptive.ladder_scales = {1.0, 0.5};
  opts.adaptive.controller.sample_interval_us = 1000.0;
  Server server(opts, spec_, DecodeSjpg, MakeAccel(800.0));
  std::vector<std::future<InferenceReply>> replies;
  std::vector<bool> has_roi;
  for (int i = 0; i < 120; ++i) {
    InferenceRequest request = Item(i, RequestClass::kLatencySlo);
    if (i % 5 == 0) request.roi = Roi{8, 8, 80, 80};
    has_roi.push_back(!request.roi.empty());
    replies.push_back(server.Submit(std::move(request)));
  }
  uint64_t degraded = 0;
  for (size_t i = 0; i < replies.size(); ++i) {
    const InferenceReply r = replies[i].get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    if (has_roi[i]) {
      EXPECT_EQ(r.plan_rung, 0);
    } else if (r.degraded) {
      ++degraded;
    }
  }
  EXPECT_GT(degraded, 0u);  // full-frame SLO traffic did degrade around them
  server.Shutdown();
}

// --- LatencyHistogram ----------------------------------------------------------------

TEST(LatencyHistogramTest, EmptySnapshotIsAllZero) {
  LatencyHistogram hist;
  const auto snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.p50_us, 0.0);
  EXPECT_EQ(snap.p999_us, 0.0);
  EXPECT_EQ(hist.PercentileUs(0.5), 0.0);
}

// Percentiles must track an exact sorted-reference quantile to within the
// histogram's bucket resolution (<1% geometric spacing; 2.5% test budget).
TEST(LatencyHistogramTest, PercentilesMatchSortedReference) {
  LatencyHistogram hist;
  Rng rng(1234);
  std::vector<double> samples;
  const int kSamples = 200000;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    // Log-uniform over 2 µs .. 10 s: spans 6+ decades like real tail data.
    const double v = std::exp(rng.UniformDouble(std::log(2.0), std::log(1e7)));
    samples.push_back(v);
    hist.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(kSamples))) - 1;
    const double exact = samples[std::min(rank, samples.size() - 1)];
    const double approx = hist.PercentileUs(q);
    EXPECT_NEAR(approx / exact, 1.0, 0.025) << "q=" << q;
  }
  const auto snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kSamples));
  EXPECT_NEAR(snap.max_us, samples.back(), samples.back() * 0.01 + 1.0);
  EXPECT_NEAR(snap.min_us, samples.front(), 1.0);
  EXPECT_EQ(snap.p50_us, hist.PercentileUs(0.5));
  EXPECT_LE(snap.p50_us, snap.p90_us);
  EXPECT_LE(snap.p90_us, snap.p99_us);
  EXPECT_LE(snap.p99_us, snap.p999_us);
}

TEST(LatencyHistogramTest, ExtremesClampToOutermostBuckets) {
  LatencyHistogram hist;
  hist.Record(0.0);
  hist.Record(-5.0);   // clamped to zero
  hist.Record(1e12);   // clamped to the top bucket
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_LE(hist.PercentileUs(0.0), 1.0);
  EXPECT_GE(hist.PercentileUs(1.0), 9e7);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAreAllCounted) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      Rng rng(static_cast<uint64_t>(t) + 99);
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(rng.UniformDouble(1.0, 1e6));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram hist;
  hist.Record(100.0);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.TakeSnapshot().max_us, 0.0);
}

// Merge is the per-shard -> fleet rollup: recording a sample stream split
// across shard histograms and merging must be indistinguishable (same
// buckets, so exactly equal percentiles) from recording it into one.
TEST(LatencyHistogramTest, MergedShardsMatchDirectRecording) {
  constexpr int kShards = 4;
  constexpr int kSamples = 100000;
  LatencyHistogram shards[kShards];
  LatencyHistogram direct;
  Rng rng(4321);
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    const double v = std::exp(rng.UniformDouble(std::log(2.0), std::log(1e7)));
    samples.push_back(v);
    shards[i % kShards].Record(v);
    direct.Record(v);
  }
  LatencyHistogram merged;
  for (const LatencyHistogram& shard : shards) merged.Merge(shard);

  const auto merged_snap = merged.TakeSnapshot();
  const auto direct_snap = direct.TakeSnapshot();
  EXPECT_EQ(merged_snap.count, static_cast<uint64_t>(kSamples));
  EXPECT_EQ(merged_snap.count, direct_snap.count);
  EXPECT_DOUBLE_EQ(merged_snap.min_us, direct_snap.min_us);
  EXPECT_DOUBLE_EQ(merged_snap.max_us, direct_snap.max_us);
  EXPECT_DOUBLE_EQ(merged_snap.mean_us, direct_snap.mean_us);
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(merged.PercentileUs(q), direct.PercentileUs(q))
        << "q=" << q;
  }

  // And both must still track the exact sorted-reference quantiles.
  std::sort(samples.begin(), samples.end());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const auto rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(kSamples))) - 1;
    const double exact = samples[std::min(rank, samples.size() - 1)];
    EXPECT_NEAR(merged.PercentileUs(q) / exact, 1.0, 0.025) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeWithEmptyIsIdentity) {
  LatencyHistogram hist;
  hist.Record(50.0);
  hist.Record(5000.0);
  const auto before = hist.TakeSnapshot();

  LatencyHistogram empty;
  hist.Merge(empty);  // merging an empty histogram changes nothing
  const auto after = hist.TakeSnapshot();
  EXPECT_EQ(after.count, before.count);
  EXPECT_DOUBLE_EQ(after.min_us, before.min_us);
  EXPECT_DOUBLE_EQ(after.max_us, before.max_us);
  EXPECT_DOUBLE_EQ(after.p50_us, before.p50_us);

  LatencyHistogram fresh;
  fresh.Merge(hist);  // merging into an empty one copies everything
  const auto copied = fresh.TakeSnapshot();
  EXPECT_EQ(copied.count, before.count);
  EXPECT_DOUBLE_EQ(copied.min_us, before.min_us);
  EXPECT_DOUBLE_EQ(copied.max_us, before.max_us);
  EXPECT_DOUBLE_EQ(copied.p50_us, before.p50_us);
}

// --- LatencyWindow -------------------------------------------------------------------

// The controller's rolling view: each Advance() sees only the samples
// recorded since the previous one, never diluted by history — the cumulative
// histogram underneath is untouched.
TEST(LatencyWindowTest, AdvanceIsolatesEachInterval) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(1000.0);
  LatencyWindow window(hist);  // construction snapshots the current counts
  for (int i = 0; i < 64; ++i) hist.Record(10000.0);
  const auto first = window.Advance();
  EXPECT_EQ(first.count, 64u);
  // Undiluted by the 100 pre-construction 1 ms samples (bucket resolution
  // is <1%; 3% test budget).
  EXPECT_NEAR(first.p50_us / 10000.0, 1.0, 0.03);
  EXPECT_NEAR(first.p99_us / 10000.0, 1.0, 0.03);

  const auto idle = window.Advance();  // nothing recorded since
  EXPECT_EQ(idle.count, 0u);
  EXPECT_EQ(idle.p99_us, 0.0);

  for (int i = 0; i < 32; ++i) hist.Record(100.0);
  const auto second = window.Advance();
  EXPECT_EQ(second.count, 32u);
  EXPECT_NEAR(second.p50_us / 100.0, 1.0, 0.03);

  EXPECT_EQ(hist.count(), 196u);  // the source histogram keeps everything
}

// Concurrent recording may race an Advance(); the monotone per-bucket
// counters guarantee every sample lands in exactly one window.
TEST(LatencyWindowTest, ConcurrentRecordsLandInExactlyOneWindow) {
  LatencyHistogram hist;
  LatencyWindow window(hist);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  uint64_t windowed = 0;
  std::thread advancer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      windowed += window.Advance().count;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&hist, t] {
      Rng rng(static_cast<uint64_t>(t) + 7);
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(rng.UniformDouble(1.0, 1e6));
      }
    });
  }
  for (auto& t : recorders) t.join();
  stop.store(true, std::memory_order_release);
  advancer.join();
  windowed += window.Advance().count;  // the final partial window
  EXPECT_EQ(windowed, static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace smol
