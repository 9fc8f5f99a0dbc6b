// End-to-end tests for the online serving runtime: shard-count
// equivalence against the single-threaded engine, lifecycle idempotence,
// backpressure accounting, and metrics consistency.  tools/ci.sh runs
// this binary under TSan as well.
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "appproto/trace_headers.h"
#include "core/model_registry.h"
#include "core/trainer.h"
#include "net/flow.h"
#include "net/pcap.h"
#include "net/trace_gen.h"
#include "runtime/metrics.h"
#include "tests/alloc_hook.h"
#include "util/rt_guard.h"

namespace iustitia::runtime {
namespace {

// Sanitized builds (TSan especially) run ~20x slower per packet; the
// interleavings under test do not need trace volume to show up.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kEquivalencePackets = 20'000;
#else
constexpr std::size_t kEquivalencePackets = 100'000;
#endif

std::function<core::FlowNatureModel()> model_factory() {
  return [] {
    datagen::CorpusOptions corpus_options;
    corpus_options.files_per_class = 12;
    corpus_options.min_size = 2048;
    corpus_options.max_size = 4096;
    corpus_options.seed = 170;
    const auto corpus = datagen::build_corpus(corpus_options);
    core::TrainerOptions options;
    options.backend = core::Backend::kCart;
    options.widths = entropy::cart_preferred_widths();
    options.method = core::TrainingMethod::kFirstBytes;
    options.buffer_size = 32;
    return core::train_model(corpus, options);
  };
}

net::TraceOptions trace_options(std::size_t packets, std::uint64_t seed) {
  net::TraceOptions options;
  options.header_source = appproto::standard_header_source();
  options.target_packets = packets;
  options.seed = seed;
  return options;
}

using LabelMap =
    std::unordered_map<net::FlowKey, datagen::FileClass, net::FlowKeyHash>;

// Flow -> final label across all shards (last record wins, matching the
// single-threaded engine where a re-classified flow overwrites too).
LabelMap labels_of(const core::ShardedIustitia& engine) {
  LabelMap labels;
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    for (const core::FlowDelayRecord& record : engine.shard(s).delays()) {
      labels[record.key] = record.label;
    }
  }
  return labels;
}

// The headline property of flow sharding: because every packet of a flow
// lands on the same shard in arrival order, the classification of every
// flow is identical whatever the shard count — the runtime is a pure
// scale-out of the single-threaded engine.
TEST(Runtime, ShardCountDoesNotChangeAnyClassification) {
  const auto factory = model_factory();
  core::EngineOptions engine_options;
  engine_options.buffer_size = 32;

  // Single-threaded reference: one engine, packets in trace order.
  net::Trace reference_trace =
      net::generate_trace(trace_options(kEquivalencePackets, 900));
  const std::size_t total_packets = reference_trace.packets.size();
  core::Iustitia reference(factory(), engine_options);
  for (const net::Packet& packet : reference_trace.packets) {
    reference.on_packet(packet);
  }
  reference.flush_all();
  LabelMap expected;
  for (const core::FlowDelayRecord& record : reference.delays()) {
    expected[record.key] = record.label;
  }
  ASSERT_FALSE(expected.empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    RuntimeOptions options;
    options.shards = shards;
    options.backpressure = BackpressurePolicy::kBlock;  // lossless
    options.engine = engine_options;
    Runtime rt(factory, options);

    TraceSource source(trace_options(kEquivalencePackets, 900));
    rt.start(source);
    rt.wait();

    const MetricsSnapshot snap = rt.snapshot();
    EXPECT_EQ(snap.packets_in, total_packets) << shards << " shards";
    EXPECT_EQ(snap.total_pushed(), total_packets) << shards << " shards";
    EXPECT_EQ(snap.total_popped(), total_packets) << shards << " shards";
    EXPECT_EQ(snap.total_dropped(), 0u)
        << "blocking backpressure must be lossless";
    EXPECT_EQ(rt.engine().total_stats().packets, total_packets);

    const LabelMap actual = labels_of(rt.engine());
    ASSERT_EQ(actual.size(), expected.size()) << shards << " shards";
    for (const auto& [key, label] : expected) {
      const auto it = actual.find(key);
      ASSERT_NE(it, actual.end()) << shards << " shards";
      EXPECT_EQ(it->second, label) << shards << " shards";
    }

    // Per-nature metric counts must agree with the engine's own records.
    std::uint64_t classified = 0;
    for (const std::uint64_t n : snap.flows_by_nature) classified += n;
    std::uint64_t delay_records = 0;
    for (std::size_t s = 0; s < rt.engine().shard_count(); ++s) {
      delay_records += rt.engine().shard(s).delays().size();
    }
    EXPECT_EQ(classified, delay_records);
  }
}

// Burst flavor of the headline property: the burst size (staged
// dispatch, ring bursts, batched output crossing) must not change any
// classification or lose any packet; burst = 1 is the same transport
// with one-packet bursts.
TEST(Runtime, BurstSizeDoesNotChangeClassificationsOrLosePackets) {
  const auto factory = model_factory();
  core::EngineOptions engine_options;
  engine_options.buffer_size = 32;

  LabelMap expected;
  for (const std::size_t burst :
       {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    RuntimeOptions options;
    options.shards = 2;
    options.burst = burst;
    options.backpressure = BackpressurePolicy::kBlock;  // lossless
    options.engine = engine_options;
    Runtime rt(factory, options);

    TraceSource source(trace_options(kEquivalencePackets / 2, 910));
    rt.start(source);
    rt.wait();

    const MetricsSnapshot snap = rt.snapshot();
    const std::uint64_t total = snap.packets_in;
    ASSERT_GT(total, 0u);
    EXPECT_EQ(snap.total_pushed(), total) << "burst " << burst;
    EXPECT_EQ(snap.total_popped(), total) << "burst " << burst;
    EXPECT_EQ(snap.total_dropped(), 0u) << "burst " << burst;
    EXPECT_EQ(rt.engine().total_stats().packets, total);

    if (burst == 1) {
      expected = labels_of(rt.engine());
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(snap.total_flushes(), total)
          << "burst 1 must flush once per packet";
      continue;
    }
    EXPECT_GT(snap.total_flushes(), 0u) << "burst " << burst;
    const LabelMap actual = labels_of(rt.engine());
    ASSERT_EQ(actual.size(), expected.size()) << "burst " << burst;
    for (const auto& [key, label] : expected) {
      const auto it = actual.find(key);
      ASSERT_NE(it, actual.end()) << "burst " << burst;
      EXPECT_EQ(it->second, label) << "burst " << burst;
    }
  }
}

// Hands the dispatcher one packet, then holds the stream open until the
// runtime reports that packet popped by its worker (or a deadline
// passes), and only then ends.  A transport that parks the packet in a
// staging buffer until end of stream never lets it through in time.
class OnePacketThenWaitSource final : public PacketSource {
 public:
  OnePacketThenWaitSource(net::Packet packet, const Runtime& rt)
      : packet_(std::move(packet)), rt_(rt) {}

  std::optional<net::Packet> next() override {
    net::Packet packet;
    if (next_burst(std::span<net::Packet>(&packet, 1)) == 0) {
      return std::nullopt;
    }
    return packet;
  }

  std::size_t next_burst(std::span<net::Packet> out) override {
    if (!sent_) {
      sent_ = true;
      out[0] = std::move(packet_);
      return 1;
    }
    if (!waited_) {
      waited_ = true;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (rt_.snapshot().total_popped() < 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      popped_before_end_ = rt_.snapshot().total_popped() >= 1;
    }
    return 0;
  }

  bool popped_before_end() const noexcept { return popped_before_end_; }

 private:
  net::Packet packet_;
  const Runtime& rt_;
  bool sent_ = false;
  bool waited_ = false;
  bool popped_before_end_ = false;
};

// Work-conserving staging: a short source read means nothing more is
// ready, so a partial burst goes to its worker at once instead of
// waiting for 31 more packets of its shard (or the end of the stream).
TEST(Runtime, PartialBurstFlushesWhenTheSourceRunsDry) {
  RuntimeOptions options;
  options.shards = 2;
  options.burst = 32;
  options.backpressure = BackpressurePolicy::kBlock;
  Runtime rt(model_factory(), options);
  net::Trace trace = net::generate_trace(trace_options(100, 912));
  ASSERT_FALSE(trace.packets.empty());
  OnePacketThenWaitSource source(std::move(trace.packets.front()), rt);
  rt.start(source);
  rt.wait();
  EXPECT_TRUE(source.popped_before_end())
      << "the lone packet stayed staged until the stream ended";
  const MetricsSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.packets_in, 1u);
  EXPECT_EQ(snap.total_popped(), 1u);
  EXPECT_EQ(snap.total_flushes(), 1u);
}

// A paced source returns the packets that are due, not a full span: at
// 200 pps a 32-packet read would otherwise hold its first packet for the
// ~160 ms the other 31 take to fall due.  Unpaced sources still fill it.
TEST(PacketSource, PacedSourcesReturnOnlyDuePackets) {
  constexpr std::size_t kSpan = 32;
  std::vector<net::Packet> window(kSpan);
  const std::span<net::Packet> out(window.data(), kSpan);

  TraceSource paced_trace(trace_options(1000, 913), 200.0);
  EXPECT_LT(paced_trace.next_burst(out), kSpan);

  const net::Trace trace = net::generate_trace(trace_options(1000, 913));
  ASSERT_GT(trace.packets.size(), kSpan);
  std::stringstream capture;
  {
    net::PcapWriter writer(capture);
    for (const net::Packet& packet : trace.packets) writer.write(packet);
  }
  PcapReplaySource paced_pcap(capture, 200.0);
  const std::size_t pcap_read = paced_pcap.next_burst(out);
  EXPECT_GE(pcap_read, 1u);
  EXPECT_LT(pcap_read, kSpan);

  TraceSource unpaced(trace_options(1000, 913));
  EXPECT_EQ(unpaced.next_burst(out), kSpan);
}

// The per-shard burst-size histogram must account for every pushed
// packet: sum(bucket midpoint counts) can't be checked exactly (buckets
// are power-of-two ranges), but the histogram total must equal the
// number of successful burst pushes and the mean must sit in [1, burst].
TEST(Runtime, BurstHistogramAccountsForEveryPush) {
  RuntimeOptions options;
  options.shards = 2;
  options.burst = 16;
  options.backpressure = BackpressurePolicy::kBlock;
  Runtime rt(model_factory(), options);

  TraceSource source(trace_options(20'000, 911));
  rt.start(source);
  rt.wait();

  const MetricsSnapshot snap = rt.snapshot();
  static_assert(kBurstBucketCount > 0);
  for (const MetricsSnapshot::Ring& ring : snap.rings) {
    ASSERT_EQ(ring.burst_counts.size(), kBurstBucketCount);
    EXPECT_EQ(ring.pushed, ring.popped);
    if (ring.pushed == 0) continue;
    std::uint64_t burst_pushes = 0;
    for (const std::uint64_t n : ring.burst_counts) burst_pushes += n;
    EXPECT_GT(burst_pushes, 0u);
    EXPECT_GT(ring.flushes, 0u);
    // A flush may split into several pushes against a nearly-full ring,
    // so pushes >= flushes; the mean burst is within [1, burst].
    EXPECT_GE(burst_pushes, ring.flushes);
    EXPECT_GE(ring.mean_burst(), 1.0);
    EXPECT_LE(ring.mean_burst(), 16.0);
  }

  // The burst telemetry surfaces in both rendered forms.
  EXPECT_NE(snap.text_report().find("mean burst"), std::string::npos);
  EXPECT_NE(snap.json().find("\"flushes\""), std::string::npos);
  EXPECT_NE(snap.json().find("\"mean_burst\""), std::string::npos);
}

// What a live egress consumer saw while the runtime ran.
struct EgressRun {
  std::uint64_t dequeued = 0;
  bool in_flow_order = true;   // timestamps non-decreasing per FlowKey
  std::size_t deepest = 0;     // largest class depth it observed
};

constexpr std::size_t kLiveEgressPackets = kEquivalencePackets / 2;

// Packets a runtime with `options` forwards on the seeded trace.  A
// sharded engine driven from one thread gives each shard its packets in
// trace order, as the runtime's workers see them, so it takes the same
// actions.  (EngineStats::queue_packets is no substitute: it also counts
// flows that flush_idle and flush_all classify, which forward nothing.)
std::uint64_t forwarded_by_direct_drive(const RuntimeOptions& options,
                                        std::uint64_t seed) {
  core::ShardedIustitia engine(model_factory(), options.engine,
                               options.shards);
  const net::Trace trace =
      net::generate_trace(trace_options(kLiveEgressPackets, seed));
  std::uint64_t forwarded = 0;
  for (const net::Packet& packet : trace.packets) {
    const core::PacketAction action =
        engine.shard(engine.shard_of(packet.key)).on_packet(packet);
    forwarded += action == core::PacketAction::kForwarded ||
                 action == core::PacketAction::kClassifiedNow;
  }
  return forwarded;
}

// Replays a trace through `rt` while a consumer thread round-robins
// OutputQueues::dequeue over the three classes, the way the benchmark's
// consumer does, and checks per-flow order as packets leave.  With
// `yield_between_pops` the consumer gives its core away after every pop,
// so the workers outrun it and bounded queues fill.
EgressRun replay_with_live_consumer(Runtime& rt, std::uint64_t seed,
                                    bool yield_between_pops) {
  TraceSource source(trace_options(kLiveEgressPackets, seed));
  std::atomic<bool> producers_done{false};
  EgressRun run;
  std::thread consumer([&] {
    std::unordered_map<net::FlowKey, double, net::FlowKeyHash> last_stamp;
    core::OutputQueues& queues = rt.output_queues();
    for (bool final_pass = false;;) {
      bool any = false;
      for (const datagen::FileClass c :
           {datagen::FileClass::kText, datagen::FileClass::kBinary,
            datagen::FileClass::kEncrypted}) {
        run.deepest = std::max(run.deepest, queues.depth(c));
        const std::optional<core::QueuedPacket> item = queues.dequeue(c);
        if (!item.has_value()) continue;
        any = true;
        ++run.dequeued;
        const auto [it, first] = last_stamp.try_emplace(
            item->packet.key, item->packet.timestamp);
        if (!first) {
          run.in_flow_order =
              run.in_flow_order && item->packet.timestamp >= it->second;
          it->second = item->packet.timestamp;
        }
        if (yield_between_pops) std::this_thread::yield();
      }
      if (any) continue;
      // Once the runtime has joined nothing more is enqueued: one more
      // empty sweep after seeing that proves the queues are drained.
      if (final_pass) break;
      final_pass = producers_done.load(std::memory_order_acquire);
      std::this_thread::yield();
    }
  });
  rt.start(source);
  rt.wait();
  producers_done.store(true, std::memory_order_release);
  consumer.join();
  return run;
}

// Egress drained while the workers run: every forwarded packet reaches
// the consumer exactly once, none is refused by an unbounded queue, and
// each flow's packets leave in the order the source produced them (a flow
// is steered to one shard, and a shard's lane is FIFO).
TEST(Runtime, LiveEgressConsumerGetsEveryForwardedPacketInFlowOrder) {
  RuntimeOptions options;
  options.shards = 2;
  options.burst = 32;
  options.backpressure = BackpressurePolicy::kBlock;
  options.output_queue_capacity = 0;
  options.engine.buffer_size = 32;
  Runtime rt(model_factory(), options);
  const EgressRun run = replay_with_live_consumer(rt, 913, false);

  const MetricsSnapshot snap = rt.snapshot();
  const core::EngineStats engine = rt.engine().total_stats();
  std::uint64_t enqueued = 0;
  std::uint64_t refused = 0;
  std::uint64_t classified_into_queues = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    enqueued += snap.queue_stats.enqueued[c];
    refused += snap.queue_stats.dropped[c];
    classified_into_queues += engine.queue_packets[c];
    EXPECT_EQ(snap.queue_stats.depth[c], 0u);
  }
  const std::uint64_t forwarded = forwarded_by_direct_drive(options, 913);
  EXPECT_GT(run.dequeued, 0u);
  EXPECT_EQ(run.dequeued, enqueued);
  EXPECT_EQ(enqueued, forwarded);
  EXPECT_LE(forwarded, classified_into_queues);
  EXPECT_EQ(refused, 0u);
  EXPECT_TRUE(run.in_flow_order) << "a flow's packets left out of order";
}

// The same live drain against bounded queues and a slow consumer: every
// forwarded packet is accepted or counted as refused, the consumer gets
// exactly the accepted ones, and no class ever reports more than its
// bound (split across the two shards' lanes).
TEST(Runtime, LiveEgressConsumerKeepsBoundedQueuesWithinCapacity) {
  constexpr std::size_t kCapacity = 64;
  RuntimeOptions options;
  options.shards = 2;
  options.burst = 32;
  options.backpressure = BackpressurePolicy::kBlock;
  options.output_queue_capacity = kCapacity;
  options.engine.buffer_size = 32;
  Runtime rt(model_factory(), options);
  const EgressRun run = replay_with_live_consumer(rt, 914, true);

  const MetricsSnapshot snap = rt.snapshot();
  std::uint64_t enqueued = 0;
  std::uint64_t refused = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    enqueued += snap.queue_stats.enqueued[c];
    refused += snap.queue_stats.dropped[c];
    EXPECT_LE(snap.queue_stats.high_water[c], kCapacity);
  }
  const std::uint64_t forwarded = forwarded_by_direct_drive(options, 914);
  EXPECT_GT(forwarded, 0u);
  EXPECT_EQ(enqueued + refused, forwarded);
  EXPECT_EQ(run.dequeued, enqueued);
  EXPECT_LE(run.deepest, kCapacity);
  EXPECT_TRUE(run.in_flow_order) << "a flow's packets left out of order";
}

// After close(), a worker's final drain runs burst pops until a zero
// return: a ring loaded to capacity before the workers get scheduled
// must still drain completely, with every packet accounted for.
TEST(Runtime, FullRingsDrainCompletelyAfterCloseUnderBurst) {
  RuntimeOptions options;
  options.shards = 1;
  options.ring_capacity = 64;  // small: the dispatcher fills it to the brim
  options.burst = 16;
  options.backpressure = BackpressurePolicy::kBlock;
  Runtime rt(model_factory(), options);

  TraceSource source(trace_options(30'000, 912));
  rt.start(source);
  rt.wait();

  const MetricsSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.total_pushed(), snap.packets_in);
  EXPECT_EQ(snap.total_popped(), snap.packets_in)
      << "packets still in a ring after shutdown: the post-close burst "
         "drain lost them";
  EXPECT_EQ(snap.total_dropped(), 0u);
  EXPECT_EQ(rt.engine().total_stats().packets, snap.packets_in);
}

// Drop-policy conservation under burst: every source packet is pushed or
// dropped, everything pushed is popped, accounted burst-at-a-time.
TEST(Runtime, DropPolicyCountsEveryLostPacketUnderBurst) {
  RuntimeOptions options;
  options.shards = 1;
  options.ring_capacity = 8;
  options.burst = 8;
  options.backpressure = BackpressurePolicy::kDrop;
  Runtime rt(model_factory(), options);

  TraceSource source(trace_options(20'000, 913));
  rt.start(source);
  rt.wait();

  const MetricsSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.packets_in, snap.total_pushed() + snap.total_dropped());
  EXPECT_EQ(snap.total_popped(), snap.total_pushed());
  EXPECT_GT(snap.total_dropped(), 0u)
      << "an 8-slot ring against per-packet engine work must drop";
  EXPECT_EQ(rt.engine().total_stats().packets, snap.total_popped());
}

TEST(Runtime, WaitAndStopAreIdempotentInAnyOrder) {
  RuntimeOptions options;
  options.shards = 2;
  Runtime rt(model_factory(), options);
  EXPECT_FALSE(rt.running());
  rt.wait();  // before start: a no-op

  TraceSource source(trace_options(2000, 901));
  rt.start(source);
  rt.wait();
  EXPECT_FALSE(rt.running());
  rt.wait();  // idempotent
  rt.stop();  // after wait: no-op
  rt.stop();

  const MetricsSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.packets_in, snap.total_popped() + snap.total_dropped());
  EXPECT_GT(rt.engine().total_flows_classified(), 0u);
}

TEST(Runtime, StopBeforeStartShutsTheRunDownImmediately) {
  RuntimeOptions options;
  options.shards = 2;
  Runtime rt(model_factory(), options);
  rt.stop();

  TraceSource source(trace_options(50'000, 902));
  rt.start(source);
  rt.wait();
  // The dispatcher observed the stop request on its first iteration, so
  // (almost) nothing was read; what was read is fully accounted for.
  const MetricsSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.packets_in, snap.total_popped() + snap.total_dropped());
  EXPECT_LT(snap.packets_in, std::uint64_t{50'000});
}

TEST(Runtime, DropPolicyCountsEveryLostPacket) {
  RuntimeOptions options;
  options.shards = 1;
  options.ring_capacity = 2;  // tiny: the dispatcher laps the worker
  options.backpressure = BackpressurePolicy::kDrop;
  Runtime rt(model_factory(), options);

  TraceSource source(trace_options(20'000, 903));
  rt.start(source);
  rt.wait();

  const MetricsSnapshot snap = rt.snapshot();
  // Conservation: every source packet was either pushed or dropped, and
  // everything pushed was popped by the worker before shutdown.
  EXPECT_EQ(snap.packets_in, snap.total_pushed() + snap.total_dropped());
  EXPECT_EQ(snap.total_popped(), snap.total_pushed());
  EXPECT_GT(snap.total_dropped(), 0u)
      << "a 2-slot ring against per-packet engine work must drop";
  EXPECT_EQ(rt.engine().total_stats().packets, snap.total_popped());
}

TEST(Runtime, SnapshotReportsAndSerializes) {
  RuntimeOptions options;
  options.shards = 2;
  options.latency_sample_every = 4;
  Runtime rt(model_factory(), options);

  TraceSource source(trace_options(5000, 904));
  rt.start(source);
  rt.wait();

  const MetricsSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.shards, 2u);
  EXPECT_EQ(snap.rings.size(), 2u);
  EXPECT_TRUE(snap.has_queue_stats);
  EXPECT_GT(snap.engine_latency.total, 0u);
  // Sampled 1-in-4: strictly fewer samples than packets processed.
  EXPECT_LT(snap.engine_latency.total, snap.total_popped());
  EXPECT_GE(snap.engine_latency.quantile_upper_micros(0.99),
            snap.engine_latency.quantile_upper_micros(0.50));

  // Forwarded packets land in the per-nature queues; depths and counters
  // come back through the snapshot.
  std::uint64_t enqueued = 0;
  for (const std::uint64_t n : snap.queue_stats.enqueued) enqueued += n;
  EXPECT_GT(enqueued, 0u);

  const std::string text = snap.text_report();
  EXPECT_NE(text.find("runtime metrics"), std::string::npos);
  EXPECT_NE(text.find("encrypted"), std::string::npos);
  const std::string json = snap.json();
  EXPECT_NE(json.find("\"flows_by_nature\""), std::string::npos);
  EXPECT_NE(json.find("\"engine_latency\""), std::string::npos);

  // Control-plane fields ride along in both renderings.  A factory-built
  // runtime has no registry: version stays at the bare-model default.
  EXPECT_GT(snap.uptime_seconds, 0.0);
  EXPECT_EQ(snap.model_version, "unversioned");
  EXPECT_EQ(snap.model_swaps, 0u);
  EXPECT_NE(text.find("model: unversioned"), std::string::npos);
  EXPECT_NE(text.find("swaps: 0"), std::string::npos);
  EXPECT_NE(json.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"model_version\": \"unversioned\""),
            std::string::npos);
  EXPECT_NE(json.find("\"model_swaps\": 0"), std::string::npos);

  EXPECT_GT(rt.output_queues().drain_all(), 0u);
}

TEST(Runtime, HighWaterMarksAreWithinRingCapacity) {
  RuntimeOptions options;
  options.shards = 2;
  options.ring_capacity = 64;
  Runtime rt(model_factory(), options);

  TraceSource source(trace_options(10'000, 905));
  rt.start(source);
  rt.wait();

  const MetricsSnapshot snap = rt.snapshot();
  for (const MetricsSnapshot::Ring& ring : snap.rings) {
    EXPECT_LE(ring.high_water, 64u);
    EXPECT_EQ(ring.pushed, ring.popped);
  }
}

// The ISSUE acceptance scenario, in-process: publish a retrained model
// through the registry while a paced multi-shard replay is live.  With
// blocking backpressure the swap must lose nothing, every shard must
// cross to the new epoch (workers re-read at burst boundaries), the
// retired model must be reclaimed exactly once the grace period closes,
// and the swap must surface through the runtime snapshot.
// Delegates to a TraceSource but stops delivering after `gate_after`
// packets until `gate` opens (blocking inside next(), like pacing does).
// This pins "the publish lands mid-replay" as a structural fact instead
// of a pacing-derived probability: whatever the scheduler does, the
// packets after the gate are only delivered once the swap has been
// published, so every shard still has work left on the new epoch.
class GatedTraceSource final : public PacketSource {
 public:
  GatedTraceSource(const net::TraceOptions& options, std::size_t gate_after,
                   const std::atomic<bool>* gate)
      : inner_(options), gate_after_(gate_after), gate_(gate) {}

  std::optional<net::Packet> next() override {
    wait_at_gate();
    std::optional<net::Packet> packet = inner_.next();
    if (packet.has_value()) ++delivered_;
    return packet;
  }

  std::size_t next_burst(std::span<net::Packet> out) override {
    wait_at_gate();
    const std::size_t n = inner_.next_burst(out);
    delivered_ += n;
    return n;
  }

 private:
  void wait_at_gate() {
    while (delivered_ >= gate_after_ &&
           !gate_->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  TraceSource inner_;
  const std::size_t gate_after_;
  const std::atomic<bool>* gate_;
  std::size_t delivered_ = 0;
};

TEST(Runtime, ModelHotSwapUnderLiveReplayLosesNothing) {
  const auto factory = model_factory();
  RuntimeOptions options;
  options.shards = 2;
  options.burst = 8;
  options.backpressure = BackpressurePolicy::kBlock;  // lossless
  options.engine.buffer_size = 32;

  auto registry = std::make_shared<core::ModelRegistry>(
      options.shards,
      std::make_shared<const core::FlowNatureModel>(factory()), "v1");
  Runtime rt(registry, options);
  ASSERT_EQ(rt.model_registry(), registry.get());

  // Gate the source after 10% so the publish provably lands mid-replay.
  constexpr std::size_t kPackets = 20'000;
  std::atomic<bool> gate{false};
  GatedTraceSource source(trace_options(kPackets, 908), kPackets / 10,
                          &gate);
  rt.start(source);

  // Wait until the replay is demonstrably in flight, then swap; only
  // after the publish returns may the remaining 90% flow.
  for (int spin = 0; rt.snapshot().packets_in < kPackets / 20; ++spin) {
    ASSERT_LT(spin, 20000) << "replay never got off the ground";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::weak_ptr<const core::FlowNatureModel> old_model =
      registry->current().model;
  registry->publish(
      std::make_shared<const core::FlowNatureModel>(factory()), "v2");
  gate.store(true, std::memory_order_release);
  rt.wait();

  const MetricsSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.packets_in, kPackets);
  EXPECT_EQ(snap.total_popped(), kPackets);
  EXPECT_EQ(snap.total_dropped(), 0u) << "hot swap must not drop packets";
  EXPECT_EQ(snap.model_swaps, 1u);
  EXPECT_EQ(snap.model_version, "v2");

  // Every shard crossed to the published epoch before draining out...
  EXPECT_EQ(registry->epoch_hint(), 2u);
  EXPECT_EQ(registry->min_crossed(), 2u);
  // ...so the old model was reclaimed: the registry dropped its retired
  // reference and both shard engines installed the replacement.
  EXPECT_EQ(registry->retired_count(), 0u);
  EXPECT_TRUE(old_model.expired())
      << "retired model still referenced after every shard crossed";
  for (std::size_t s = 0; s < rt.engine().shard_count(); ++s) {
    EXPECT_EQ(&rt.engine().shard(s).model(), registry->current().model.get());
  }
}

// Dynamic twin of the tools/analyze hotpath pass: with this TU's counting
// operator new reporting into util::rt, a full replay under the live
// GuardRegions must see zero violations — every allocation and block the
// hot loops reach is covered by a declared AllowScope.  (Under
// IUSTITIA_RT_DEBUG the same violations would abort instead of counting.)
TEST(Runtime, ReplayRunsWithoutRtGuardViolations) {
  util::rt::reset_violation_count();
  for (const BackpressurePolicy policy :
       {BackpressurePolicy::kBlock, BackpressurePolicy::kDrop}) {
    RuntimeOptions options;
    options.shards = 2;
    options.backpressure = policy;
    if (policy == BackpressurePolicy::kDrop) {
      options.ring_capacity = 8;  // force the refused-push retirement path
    }
    Runtime rt(model_factory(), options);
    TraceSource source(trace_options(20'000, 906));
    rt.start(source);
    rt.wait();
    EXPECT_GT(rt.snapshot().packets_in, 0u);
  }
  EXPECT_EQ(util::rt::violation_count(), 0u)
      << "hot loops allocated or blocked outside a declared AllowScope";
}

// The engine's steady state — data packet of an already-classified flow,
// CDB hit, forward — must not touch the heap at all.  Warm an engine until
// the CDB is populated, then replay only guaranteed-hit packets and demand
// a zero delta on the process-wide operator-new counter.
TEST(Runtime, SteadyStateFastPathIsAllocationFree) {
  const auto factory = model_factory();
  core::EngineOptions engine_options;
  engine_options.buffer_size = 32;
  core::Iustitia engine(factory(), engine_options);

  net::Trace trace = net::generate_trace(trace_options(20'000, 907));
  for (const net::Packet& packet : trace.packets) {
    engine.on_packet(packet);
  }
  engine.flush_all();  // classifies stragglers straight into the CDB

  // Hits only: flows still resident in the CDB, no FIN/RST (close would
  // take the removal branch and make the flow unknown again mid-replay).
  std::vector<const net::Packet*> hits;
  for (const net::Packet& packet : trace.packets) {
    if (packet.flags.fin || packet.flags.rst) continue;
    if (engine.label_of(packet.key).has_value()) hits.push_back(&packet);
  }
  ASSERT_GT(hits.size(), 100u) << "warmup left the CDB nearly empty";

  const std::size_t before = testhooks::alloc_calls();
  std::size_t not_forwarded = 0;
  for (const net::Packet* packet : hits) {
    if (engine.on_packet(*packet) != core::PacketAction::kForwarded) {
      ++not_forwarded;
    }
  }
  const std::size_t after = testhooks::alloc_calls();
  EXPECT_EQ(not_forwarded, 0u) << "a CDB hit left the fast path";
  EXPECT_EQ(after - before, 0u)
      << "the CDB-hit fast path performed a heap allocation";

  // FIN/RST removal rides the same lane: one FIN per resident flow erases
  // its record in place (a backward shift, nothing freed or allocated).
  std::vector<net::Packet> fins;
  for (const net::Packet* packet : hits) {
    if (!engine.label_of(packet->key).has_value()) continue;
    bool seen = false;
    for (const net::Packet& fin : fins) seen = seen || fin.key == packet->key;
    if (seen || fins.size() == 64) continue;
    net::Packet fin;
    fin.key = packet->key;
    fin.timestamp = trace.packets.back().timestamp;
    fin.flags.fin = true;
    fins.push_back(fin);
  }
  ASSERT_FALSE(fins.empty());
  const std::size_t records = engine.cdb().size();
  const std::size_t fin_before = testhooks::alloc_calls();
  for (const net::Packet& fin : fins) {
    EXPECT_EQ(engine.on_packet(fin), core::PacketAction::kForwarded);
  }
  EXPECT_EQ(testhooks::alloc_calls() - fin_before, 0u)
      << "FIN/RST removal on the CDB-hit lane performed a heap allocation";
  EXPECT_EQ(engine.cdb().size(), records - fins.size());
}

// Runtime::snapshot() reads every shard's flow-table counters while the
// owning workers write them: single-writer relaxed atomics, no lock.
// Under TSan this is the race check for that protocol.
TEST(Runtime, SnapshotScrapesFlowTableCountersDuringLiveReplay) {
  RuntimeOptions options;
  options.shards = 2;
  options.backpressure = BackpressurePolicy::kBlock;
  options.engine.buffer_size = 32;
  Runtime rt(model_factory(), options);
  TraceSource source(trace_options(20'000, 910));
  std::atomic<bool> done{false};
  std::uint64_t scrapes = 0;
  std::uint64_t last_packets = 0;
  bool monotone = true;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = rt.snapshot();
      monotone = monotone && snap.packets_in >= last_packets;
      last_packets = snap.packets_in;
      ++scrapes;
    }
  });
  rt.start(source);
  rt.wait();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(scrapes, 0u);
  EXPECT_TRUE(monotone);
  const MetricsSnapshot snap = rt.snapshot();
  std::uint64_t records = 0;
  std::uint64_t inserts = 0;
  for (std::size_t s = 0; s < rt.engine().shard_count(); ++s) {
    records += rt.engine().shard(s).cdb().size();
    inserts += rt.engine().shard(s).cdb().stats().inserts;
  }
  EXPECT_EQ(snap.cdb_records, records);
  EXPECT_GT(inserts, 0u);
  EXPECT_EQ(inserts, rt.engine().total_flows_classified());
}

// In default builds a violation is counted, never fatal: the replacement
// operator new above reports into util::rt, so an unallowed allocation
// inside a GuardRegion bumps the counter (once for new, once for delete)
// while an AllowScope'd one stays silent.  The fatal flavor of the same
// seeded violation is tests/test_rt_debug.cc's death test.
TEST(RtGuard, CountsUnallowedAllocationsWithoutAborting) {
  util::rt::reset_violation_count();
  bool guarded_inside = false;
  {
    util::rt::GuardRegion guard;
    guarded_inside = util::rt::in_guard();
    {
      util::rt::AllowScope allow(util::rt::kAlloc);
      int* allowed = new int(7);  // NOLINT(no-owning-new) drives the hook
      delete allowed;
    }
#if !defined(IUSTITIA_RT_DEBUG)
    int* unallowed = new int(9);  // NOLINT(no-owning-new) drives the hook
    delete unallowed;
#endif
  }
  EXPECT_TRUE(guarded_inside);
  EXPECT_FALSE(util::rt::in_guard());
#if defined(IUSTITIA_RT_DEBUG)
  EXPECT_EQ(util::rt::violation_count(), 0u);
#else
  EXPECT_EQ(util::rt::violation_count(), 2u);
#endif
  util::rt::reset_violation_count();
}

// snapshot() runs concurrently with every writer.  The relaxed-counter
// protocol allows momentary inconsistency ACROSS counters, but each
// counter must be a real value (never torn) and every total must be
// monotone from one snapshot to the next; once the writers are joined the
// totals are exact.  TSan (ci.sh runs this binary under it) checks the
// data-race half of that claim.
TEST(Metrics, SnapshotIsCoherentUnderConcurrentWriters) {
  constexpr std::size_t kShards = 4;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr std::uint64_t kPerWriter = 10'000;
#else
  constexpr std::uint64_t kPerWriter = 50'000;
#endif
  MetricsRegistry metrics(kShards);

  std::atomic<bool> start{false};
  std::vector<std::thread> writers;
  for (std::size_t s = 0; s < kShards; ++s) {
    // Thread s owns shard s, preserving the registry's single-writer
    // contract for high_water and the per-shard worker counters while
    // exercising every mutator.
    writers.emplace_back([&metrics, &start, s] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        metrics.on_source_packets(1);
        metrics.on_push_burst(s, 1, static_cast<std::size_t>(i % 7));
        metrics.on_pop_burst(s, 1);
        metrics.on_classified(s, static_cast<datagen::FileClass>(i % 3));
        metrics.record_engine_latency(s, 1.5);
      }
    });
  }
  start.store(true, std::memory_order_release);

  std::uint64_t last_packets = 0;
  std::uint64_t last_pushed = 0;
  std::uint64_t last_latency = 0;
  constexpr std::uint64_t kTotal = kShards * kPerWriter;
  for (int round = 0; round < 100; ++round) {
    const MetricsSnapshot snap = metrics.snapshot();
    ASSERT_EQ(snap.rings.size(), kShards);
    EXPECT_GE(snap.packets_in, last_packets);
    EXPECT_GE(snap.total_pushed(), last_pushed);
    EXPECT_GE(snap.engine_latency.total, last_latency);
    EXPECT_LE(snap.packets_in, kTotal);
    EXPECT_LE(snap.total_pushed(), kTotal);
    EXPECT_LE(snap.total_popped(), kTotal);
    EXPECT_LE(snap.engine_latency.total, kTotal);
    std::uint64_t flows = 0;
    for (const std::uint64_t n : snap.flows_by_nature) flows += n;
    EXPECT_LE(flows, kTotal);
    last_packets = snap.packets_in;
    last_pushed = snap.total_pushed();
    last_latency = snap.engine_latency.total;
  }
  for (std::thread& writer : writers) writer.join();

  const MetricsSnapshot final_snap = metrics.snapshot();
  EXPECT_EQ(final_snap.packets_in, kTotal);
  EXPECT_EQ(final_snap.total_pushed(), kTotal);
  EXPECT_EQ(final_snap.total_popped(), kTotal);
  EXPECT_EQ(final_snap.total_dropped(), 0u);
  EXPECT_EQ(final_snap.engine_latency.total, kTotal);
  std::uint64_t flows = 0;
  for (const std::uint64_t n : final_snap.flows_by_nature) flows += n;
  EXPECT_EQ(flows, kTotal);
  for (const MetricsSnapshot::Ring& ring : final_snap.rings) {
    EXPECT_EQ(ring.pushed, kPerWriter);
    EXPECT_EQ(ring.popped, kPerWriter);
    EXPECT_LE(ring.high_water, 6u);
  }
}

}  // namespace
}  // namespace iustitia::runtime
