// The benchmark's workloads and their seeded, cached traces.
//
// A workload is a trace shape plus how it is offered: closed loop (the
// source hands packets over as fast as the dispatcher pulls them) or open
// loop (each packet is released when it falls due on the trace's own,
// time-compressed clock).  Traces are generated from the seed with
// net::generate_trace and cached on disk, so a seed is generated once and
// every later run with that seed only reads the file.
#ifndef FLOWBENCH_WORKLOAD_H_
#define FLOWBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/trace_gen.h"
#include "spans.h"

namespace flowbench {

struct Workload {
  std::string name;
  // Cache key of the trace shape: workloads that replay the same trace
  // (gateway and paced_gateway) share one cached file per seed.
  std::string trace_kind;
  net::TraceOptions trace;
  // 0 = closed loop; otherwise the open-loop mean offered rate in packets
  // per wall second.  An open loop replays only the flow-arrival window
  // [0, trace.duration_seconds] of its trace, with the trace clock
  // compressed to reach this rate.
  double paced_pps = 0.0;
  // Output check: label_accuracy below this fails the run.
  double min_label_accuracy = 0.0;
};

// The named workload with its trace seeded by `seed`, or nullopt for an
// unknown name.
std::optional<Workload> find_workload(std::string_view name,
                                      std::uint64_t seed);

struct LoadedTrace {
  net::Trace trace;
  bool from_cache = false;
  double seconds = 0.0;  // generation or cache-read time
};

// Reads the workload's trace from `cache_dir`, or generates it and stores
// it there (keeping only the few most recent traces).  An unreadable or
// mismatched cache file is regenerated, never trusted.
LoadedTrace load_trace(const Workload& workload, const std::string& cache_dir);

}  // namespace flowbench

#endif  // FLOWBENCH_WORKLOAD_H_
