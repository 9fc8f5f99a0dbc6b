#include "layers.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "appproto/header_stripper.h"
#include "core/cdb.h"
#include "core/sharded_engine.h"
#include "net/flow.h"
#include "replay.h"
#include "util/random.h"

namespace flowbench {
namespace {

constexpr std::size_t kPasses = 5;
// Inputs per layer loop: enough to leave the caches, few enough to keep
// the traced run short.
constexpr std::size_t kMaxFlowInputs = 20000;
constexpr std::size_t kWindowBytes = 32;  // b, as the engines are built

SpanName on_packet_span(core::PacketAction action) {
  switch (action) {
    case core::PacketAction::kForwarded:
      return SpanName::kOnPacketHit;
    case core::PacketAction::kClassifiedNow:
      return SpanName::kOnPacketClassify;
    default:
      return SpanName::kOnPacketMiss;
  }
}

// Runs `pass` (which returns the calls it made) kPasses times and returns
// the median nanoseconds per call.
template <typename Pass>
double median_ns_per_call(Pass&& pass) {
  std::vector<double> per_call;
  for (std::size_t i = 0; i < kPasses; ++i) {
    const std::int64_t start = now_ns();
    const std::size_t calls = pass();
    const std::int64_t elapsed = now_ns() - start;
    per_call.push_back(calls == 0 ? 0.0
                                  : static_cast<double>(elapsed) /
                                        static_cast<double>(calls));
  }
  return median(per_call);
}

// Keeps a computed value alive without letting the loop be folded away.
volatile std::uint64_t g_sink = 0;

}  // namespace

DriveResult direct_drive(const net::Trace& trace,
                         const core::FlowNatureModel& model,
                         std::size_t shards, SpanBuffer* spans) {
  core::ShardedIustitia engine([&model] { return model; },
                               serving_options().engine, shards);
  DriveResult result;
  std::vector<std::uint64_t> engine_cdb_peak(shards, 0);
  const auto sample_peaks = [&] {
    std::uint64_t pending = 0;
    std::uint64_t records = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint64_t size = engine.shard(s).cdb().size();
      pending += engine.shard(s).pending_flows();
      records += size;
      engine_cdb_peak[s] = std::max(engine_cdb_peak[s], size);
    }
    result.pending_peak = std::max(result.pending_peak, pending);
    result.cdb_peak = std::max(result.cdb_peak, records);
  };

  datagen::FileClass label = datagen::FileClass::kText;
  result.forwarded.resize(trace.packets.size());
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    const net::Packet& packet = trace.packets[i];
    core::PacketAction action = core::PacketAction::kIgnored;
    if (spans == nullptr) {
      action =
          engine.shard(engine.shard_of(packet.key)).on_packet(packet, &label);
    } else {
      const std::int64_t t0 = now_ns();
      const std::size_t s = engine.shard_of(packet.key);
      const std::int64_t t1 = now_ns();
      action = engine.shard(s).on_packet(packet, &label);
      const std::int64_t t2 = now_ns();
      const auto id = static_cast<std::uint32_t>(i);
      const std::int32_t root = spans->add(SpanName::kDrivePacket, t0, t2, id);
      spans->add(SpanName::kSteer, t0, t1, id, root);
      spans->add(on_packet_span(action), t1, t2, id, root);
    }
    const bool forwarded = action == core::PacketAction::kForwarded ||
                           action == core::PacketAction::kClassifiedNow;
    result.forwarded[i] = forwarded ? 1 : 0;
    result.forwarded_count += forwarded ? 1 : 0;
    if (i % 64 == 0) sample_peaks();
  }
  sample_peaks();

  for (std::size_t s = 0; s < shards; ++s) {
    core::Iustitia& shard = engine.shard(s);
    shard.flush_all();
    result.cdb_purge_runs += shard.cdb().stats().purge_runs;
    result.cdb_engine_peak =
        std::max(result.cdb_engine_peak, engine_cdb_peak[s]);
    for (const core::FlowDelayRecord& e : shard.delays()) {
      result.events.emplace_back(e.key.src_ip, e.key.dst_ip, e.key.src_port,
                                 e.key.dst_port,
                                 static_cast<int>(e.key.protocol),
                                 static_cast<int>(e.label), e.classified_at,
                                 e.buffered_bytes);
    }
  }
  std::sort(result.events.begin(), result.events.end());
  return result;
}

std::uint64_t event_delta(const std::vector<Event>& a,
                          const std::vector<Event>& b) {
  std::uint64_t delta = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++delta;
      ++i;
    } else if (b[j] < a[i]) {
      ++delta;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return delta + (a.size() - i) + (b.size() - j);
}

double useful_classify_ratio(const std::vector<Event>& events) {
  if (events.empty()) return 0.0;
  // Events are sorted, so each flow's events are adjacent.
  std::size_t flows = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto key = [&events](std::size_t k) {
      return std::tie(std::get<0>(events[k]), std::get<1>(events[k]),
                      std::get<2>(events[k]), std::get<3>(events[k]),
                      std::get<4>(events[k]));
    };
    if (i == 0 || key(i) != key(i - 1)) ++flows;
  }
  return static_cast<double>(flows) / static_cast<double>(events.size());
}

LayerCosts time_layers(const net::Trace& trace,
                       const core::FlowNatureModel& model,
                       std::size_t cdb_records) {
  LayerCosts costs;

  costs.flow_id_ns = median_ns_per_call([&trace] {
    std::uint64_t sink = 0;
    for (const net::Packet& p : trace.packets) {
      sink += net::flow_id(p.key).bytes[0];
    }
    g_sink = sink;
    return trace.packets.size();
  });

  // First data payload of each flow, in trace order.
  std::vector<std::span<const std::uint8_t>> first_payloads;
  {
    std::unordered_set<net::FlowKey, net::FlowKeyHash> seen;
    for (const net::Packet& p : trace.packets) {
      if (first_payloads.size() == kMaxFlowInputs) break;
      if (!p.is_data() || !seen.insert(p.key).second) continue;
      first_payloads.emplace_back(p.payload);
    }
  }

  costs.detect_ns = median_ns_per_call([&first_payloads] {
    std::uint64_t sink = 0;
    for (const auto payload : first_payloads) {
      sink += appproto::detect_header(payload).header_length;
    }
    g_sink = sink;
    return first_payloads.size();
  });

  std::vector<std::span<const std::uint8_t>> windows;
  for (const auto payload : first_payloads) {
    if (payload.size() >= kWindowBytes) {
      windows.push_back(payload.first(kWindowBytes));
    }
  }
  core::FeatureExtractor extractor = model.extractor();
  std::vector<std::vector<double>> features(windows.size());
  costs.extract_ns = median_ns_per_call([&] {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      features[i] = extractor.extract(windows[i]).features;
    }
    return windows.size();
  });
  costs.infer_ns = median_ns_per_call([&] {
    std::uint64_t sink = 0;
    for (const std::vector<double>& f : features) {
      sink += static_cast<std::uint64_t>(model.classify_features(f));
    }
    g_sink = sink;
    return features.size();
  });

  // A CDB holding as many records as the largest engine's peak (flows in
  // order of first appearance), probed for every record in a shuffled
  // order.
  std::vector<net::FlowId> ids;
  {
    std::unordered_set<net::FlowKey, net::FlowKeyHash> seen;
    for (const net::Packet& p : trace.packets) {
      if (ids.size() == cdb_records) break;
      if (seen.insert(p.key).second) ids.push_back(net::flow_id(p.key));
    }
  }
  core::ClassificationDatabase cdb;
  for (const net::FlowId& id : ids) cdb.insert(id, datagen::FileClass::kText, 0.0);
  util::Rng rng(0xF10B);
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.next_below(i)]);
  }
  costs.cdb_probe_ns = median_ns_per_call([&] {
    std::uint64_t sink = 0;
    for (const net::FlowId& id : ids) sink += cdb.peek(id).has_value();
    g_sink = sink;
    return ids.size();
  });
  return costs;
}

}  // namespace flowbench
