// Golden event-stream oracle for the online engine.
//
// Seeded gateway-shaped and churn-shaped traces are driven through one
// engine and through a 2-shard ShardedIustitia (each packet to its
// owning shard via shard()) under a sweep of configurations.  Two
// digests per run are compared against values recorded from the engine
// that kept its pending flows in a hash map and its CDB in a hash map
// plus an LRU list:
//   - the full sorted stream of classification events (key, label,
//     classified_at, tau_b, packets_to_fill, buffered_bytes), so a flow
//     classified at another time, on other bytes, or one time more or
//     less moves the digest, not just a changed last label;
//   - the engine and CDB counters, taken before flush_all: a purge can
//     fire inside flush_all at each flow's own timestamp, so the CDB's
//     end state depends on flush order, which is not part of the
//     contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "appproto/trace_headers.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "core/trainer.h"
#include "net/trace_gen.h"

namespace iustitia::core {
namespace {

constexpr std::size_t kTracePackets = 20000;

std::shared_ptr<const FlowNatureModel> shared_model() {
  static const std::shared_ptr<const FlowNatureModel> model = [] {
    datagen::CorpusOptions corpus_options;
    corpus_options.files_per_class = 12;
    corpus_options.min_size = 2048;
    corpus_options.max_size = 4096;
    corpus_options.seed = 0x601D;
    TrainerOptions options;
    options.backend = Backend::kCart;
    options.widths = entropy::cart_preferred_widths();
    options.method = TrainingMethod::kFirstBytes;
    options.buffer_size = 32;
    return std::make_shared<const FlowNatureModel>(
        train_model(datagen::build_corpus(corpus_options), options));
  }();
  return model;
}

net::Trace make_trace(const std::string& shape) {
  net::TraceOptions options;
  options.header_source = appproto::standard_header_source();
  options.target_packets = kTracePackets;
  options.seed = 0x601D;
  if (shape == "churn") {
    options.flows_per_packet = 0.3;
    options.fin_close_fraction = 0.0;
    options.rst_close_fraction = 0.0;
    options.duration_seconds = 2.0;
    options.content_limit = 512;
  }
  return net::generate_trace(options);
}

const net::Trace& trace_for(const std::string& shape) {
  static const net::Trace gateway = make_trace("gateway");
  static const net::Trace churn = make_trace("churn");
  return shape == "churn" ? churn : gateway;
}

EngineOptions config_options(const std::string& config) {
  EngineOptions options;
  // The paper's 5000-flow purge trigger, scaled to these short traces so
  // the inactivity purge runs many times in every configuration.
  options.cdb.purge_trigger_flows = 200;
  if (config == "purge_off") options.cdb.inactivity_purge_enabled = false;
  if (config == "fin_rst_off") options.cdb.fin_rst_removal_enabled = false;
  if (config == "reclassify_1s") options.cdb.reclassify_after_seconds = 1.0;
  if (config == "threshold_128") {
    options.header_threshold = 128;
    options.strip_known_headers = false;
  }
  if (config == "random_skip_128") options.random_skip_max = 128;
  if (config == "b1024") options.buffer_size = 1024;
  return options;
}

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

using Event = std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                         std::uint16_t, int, int, double, double,
                         std::uint64_t, std::uint64_t>;

struct RunDigests {
  std::uint64_t events = 0;
  std::uint64_t event_digest = 0;
  std::uint64_t stats_digest = 0;
  std::uint64_t flows_released = 0;
};

class Run {
 public:
  void add_counters(const Iustitia& engine) {
    const EngineStats& s = engine.stats();
    const CdbStats c = engine.cdb().stats();
    const Counters words = {
        s.packets,        s.data_packets,     s.flows_classified,
        s.flows_timed_out, s.packets_shed,    s.queue_packets[0],
        s.queue_packets[1], s.queue_packets[2], c.lookups,
        c.hits,           c.inserts,          c.fin_rst_removals,
        c.inactivity_removals, c.reclassification_removals, c.purge_runs,
        c.forced_evictions, c.insert_failures, engine.cdb().size(),
        engine.pending_flows()};
    for (std::size_t i = 0; i < words.size(); ++i) counters_[i] += words[i];
    released_ += s.flows_released;
  }

  void add_events(const Iustitia& engine) {
    for (const FlowDelayRecord& e : engine.delays()) {
      events_.emplace_back(e.key.src_ip, e.key.dst_ip, e.key.src_port,
                           e.key.dst_port, static_cast<int>(e.key.protocol),
                           static_cast<int>(e.label), e.classified_at,
                           e.tau_b, e.packets_to_fill, e.buffered_bytes);
    }
  }

  RunDigests digests() {
    RunDigests d;
    std::sort(events_.begin(), events_.end());
    Digest events;
    for (const Event& e : events_) {
      events.add(std::uint64_t{std::get<0>(e)});
      events.add(std::uint64_t{std::get<1>(e)});
      events.add(std::uint64_t{std::get<2>(e)});
      events.add(std::uint64_t{std::get<3>(e)});
      events.add(static_cast<std::uint64_t>(std::get<4>(e)));
      events.add(static_cast<std::uint64_t>(std::get<5>(e)));
      events.add(std::get<6>(e));
      events.add(std::get<7>(e));
      events.add(std::get<8>(e));
      events.add(std::get<9>(e));
    }
    Digest stats;
    for (const std::uint64_t word : counters_) stats.add(word);
    d.events = events_.size();
    d.event_digest = events.value();
    d.stats_digest = stats.value();
    d.flows_released = released_;
    return d;
  }

 private:
  using Counters = std::array<std::uint64_t, 19>;
  std::vector<Event> events_;
  Counters counters_{};
  std::uint64_t released_ = 0;
};

RunDigests drive_single(const net::Trace& trace, const EngineOptions& options) {
  Iustitia engine(shared_model(), options);
  for (const net::Packet& p : trace.packets) engine.on_packet(p);
  Run run;
  run.add_counters(engine);
  engine.flush_all();
  run.add_events(engine);
  return run.digests();
}

RunDigests drive_sharded(const net::Trace& trace,
                         const EngineOptions& options) {
  ShardedIustitia sharded(shared_model(), options, 2);
  for (const net::Packet& p : trace.packets) {
    sharded.shard(sharded.shard_of(p.key)).on_packet(p);
  }
  Run run;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    run.add_counters(sharded.shard(s));
  }
  sharded.flush_all();
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    run.add_events(sharded.shard(s));
  }
  return run.digests();
}

struct Golden {
  const char* trace;
  const char* config;
  std::size_t shards;
  std::uint64_t events;
  std::uint64_t event_digest;
  std::uint64_t stats_digest;
};

// Recorded from the map-based engine; see the file comment.
constexpr Golden kGolden[] = {
    {"gateway", "default", 1, 561, 0x49585aea51e1e885ull, 0xc63db0d5fbdfcf41ull},
    {"gateway", "default", 2, 554, 0x5ef549192b2cb5b7ull, 0x4a73ae1ba0689907ull},
    {"gateway", "purge_off", 1, 548, 0xd7708093040da921ull, 0xf3ce96722f57b158ull},
    {"gateway", "purge_off", 2, 548, 0xd7708093040da921ull, 0xf3ce96722f57b158ull},
    {"gateway", "fin_rst_off", 1, 561, 0x49585aea51e1e885ull, 0x992c862197d16e1aull},
    {"gateway", "fin_rst_off", 2, 554, 0x5ef549192b2cb5b7ull, 0x58ba4d349d14475cull},
    {"gateway", "reclassify_1s", 1, 593, 0xdd5bd62a98e98ef0ull, 0x9cbf744568aeae50ull},
    {"gateway", "reclassify_1s", 2, 564, 0x5ff3b5b917e66b72ull, 0x6858e63c4d092586ull},
    {"gateway", "threshold_128", 1, 563, 0x3f69c50300e17b1ull, 0xe9c5882204d127ffull},
    {"gateway", "threshold_128", 2, 557, 0xbf42d1962fc690b6ull, 0x8369c4809b56e006ull},
    {"gateway", "random_skip_128", 1, 562, 0x33ec637bec735efull, 0xb72fa32467d27f50ull},
    {"gateway", "random_skip_128", 2, 554, 0x4583b02e48c49387ull, 0xb8ed4e1792c28e02ull},
    {"gateway", "b1024", 1, 560, 0x680174aacfc82742ull, 0x872f816b90de36e9ull},
    {"gateway", "b1024", 2, 554, 0xa3ec8aee53488a80ull, 0x866a265949b5a85full},
    {"churn", "default", 1, 2906, 0x6444abd1d7ed0371ull, 0x674c7f04755c1edaull},
    {"churn", "default", 2, 2702, 0x4ceb5e69195f8bcull, 0xe490fb6b70fc5f4dull},
    {"churn", "purge_off", 1, 2362, 0xcfc4c5dab9553aabull, 0x71314b28efd37766ull},
    {"churn", "purge_off", 2, 2362, 0xcfc4c5dab9553aabull, 0x71314b28efd37766ull},
    {"churn", "fin_rst_off", 1, 2906, 0x6444abd1d7ed0371ull, 0x674c7f04755c1edaull},
    {"churn", "fin_rst_off", 2, 2702, 0x4ceb5e69195f8bcull, 0xe490fb6b70fc5f4dull},
    {"churn", "reclassify_1s", 1, 3032, 0x556123988d189785ull, 0xe4c05939fbe514c6ull},
    {"churn", "reclassify_1s", 2, 2787, 0xfd6d7eff0bb5fc0dull, 0x8d0214b4df45b91eull},
    {"churn", "threshold_128", 1, 2746, 0x859b7a8fc619e223ull, 0x77338853792e89c4ull},
    {"churn", "threshold_128", 2, 2576, 0x7e0c1ec54740ff86ull, 0x89958bdb94ff4a0dull},
    {"churn", "random_skip_128", 1, 2781, 0x1901beff1c20ad32ull, 0x90b6d5f644e9679bull},
    {"churn", "random_skip_128", 2, 2596, 0xb8b3de1bfb98e2e8ull, 0x9510b2831b3de4f4ull},
    {"churn", "b1024", 1, 2556, 0xbe75b25f30ee33daull, 0xbe026108ec379afull},
    {"churn", "b1024", 2, 2465, 0xe9139df0197a3f23ull, 0xc24726eb15f8964bull},
};

class GoldenEvents : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenEvents, MatchRecordedStream) {
  const Golden& golden = GetParam();
  const net::Trace& trace = trace_for(golden.trace);
  const EngineOptions options = config_options(golden.config);
  const RunDigests got = golden.shards == 1 ? drive_single(trace, options)
                                            : drive_sharded(trace, options);
  EXPECT_EQ(got.events, golden.events);
  EXPECT_EQ(got.event_digest, golden.event_digest);
  EXPECT_EQ(got.stats_digest, golden.stats_digest);
  // Neither trace has flows that idle out without classifiable bytes.
  EXPECT_EQ(got.flows_released, 0u);
  if (!HasFailure()) return;
  // A deliberate change to the stream re-records the row printed here.
  std::printf("    {\"%s\", \"%s\", %zu, %llu, 0x%llxull, 0x%llxull},\n",
              golden.trace, golden.config, golden.shards,
              static_cast<unsigned long long>(got.events),
              static_cast<unsigned long long>(got.event_digest),
              static_cast<unsigned long long>(got.stats_digest));
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  return std::string(info.param.trace) + "_" + info.param.config + "_" +
         std::to_string(info.param.shards) + "shard";
}

INSTANTIATE_TEST_SUITE_P(Sweep, GoldenEvents, ::testing::ValuesIn(kGolden),
                         golden_name);

}  // namespace
}  // namespace iustitia::core
