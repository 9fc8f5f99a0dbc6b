// Per-layer measurements made from outside the program, around its public
// calls, on one thread:
//
//  - direct_drive: each packet of the trace through
//    ShardedIustitia::shard_of and shard(i).on_packet, with the engines
//    built exactly like the serving runtime's;
//  - time_layers: tight loops over the single layers the engine is made
//    of (flow id, CDB probe, entropy extraction, inference, header
//    detection) on inputs taken from the same trace.
#ifndef FLOWBENCH_LAYERS_H_
#define FLOWBENCH_LAYERS_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/flow_model.h"
#include "net/trace_gen.h"
#include "spans.h"

namespace flowbench {

// The identity of one classification event: flow key, label, trace time
// and bytes classified on (everything but the measured timings).
using Event = std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                         std::uint16_t, int, int, double, std::size_t>;

struct DriveResult {
  std::vector<Event> events;  // sorted
  // Per packet, 1 when on_packet sent it to an output queue (kForwarded
  // or kClassifiedNow): what the runtime's egress must see.
  std::vector<std::uint8_t> forwarded;
  std::uint64_t forwarded_count = 0;
  // Peaks sampled every 64 packets while driving.
  std::uint64_t pending_peak = 0;     // pending flows, all engines
  std::uint64_t cdb_peak = 0;         // CDB records, all engines
  std::uint64_t cdb_engine_peak = 0;  // CDB records, largest engine
  std::uint64_t cdb_purge_runs = 0;
};

// Drives `trace` through `shards` engines on this thread and flushes them
// at the end, as Runtime::wait() does.  With `spans`, records one
// drive.packet span per packet with its steer and on_packet children.
DriveResult direct_drive(const net::Trace& trace,
                         const core::FlowNatureModel& model,
                         std::size_t shards, SpanBuffer* spans);

// Events present in one sorted multiset and not the other.
std::uint64_t event_delta(const std::vector<Event>& a,
                          const std::vector<Event>& b);

// Distinct flows among the events / events.
double useful_classify_ratio(const std::vector<Event>& events);

// Median-of-passes cost per call of each single layer.
struct LayerCosts {
  double flow_id_ns = 0.0;    // net::flow_id over every packet's key
  double cdb_probe_ns = 0.0;  // ClassificationDatabase::peek, cdb_records held
  double extract_ns = 0.0;    // FeatureExtractor::extract on b-byte windows
  double infer_ns = 0.0;      // FlowNatureModel::classify_features
  double detect_ns = 0.0;     // appproto::detect_header on first payloads
};

LayerCosts time_layers(const net::Trace& trace,
                       const core::FlowNatureModel& model,
                       std::size_t cdb_records);

}  // namespace flowbench

#endif  // FLOWBENCH_LAYERS_H_
