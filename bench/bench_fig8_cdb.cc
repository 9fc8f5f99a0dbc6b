// Reproduces Figure 8: CDB size over time with and without purging,
// against the cumulative number of flows and packets.
//
// Paper shape: without purging the CDB tracks the (ever-growing) total
// flow count; with FIN/RST removal and the n*lambda inactivity purge the
// CDB size flattens out near the number of concurrent flows (the paper
// reports a steady ~29,713 records on its trace; up to 46% of flows are
// removed by FIN/RST alone).
#include "appproto/trace_headers.h"
#include "bench/bench_common.h"
#include "core/engine.h"
#include "net/trace_gen.h"

#include <iostream>
#include <string>
#include <unordered_map>

#include "core/trainer.h"
#include "entropy/entropy_vector.h"

namespace iustitia::bench {
namespace {

core::FlowNatureModel quick_model() {
  const auto corpus = standard_corpus(40);
  core::TrainerOptions options;
  options.backend = core::Backend::kCart;
  options.widths = entropy::cart_preferred_widths();
  options.method = core::TrainingMethod::kFirstBytes;
  options.buffer_size = 32;
  return core::train_model(corpus, options);
}

int run() {
  banner("Fig. 8: CDB size vs total flows/packets, with and w/o purging",
         "purged CDB flat near concurrent-flow count; unpurged tracks "
         "total flows");

  const std::size_t packets = env_size("IUSTITIA_TRACE_PACKETS", 120000);
  net::TraceOptions trace_options;
  trace_options.header_source = appproto::standard_header_source();
  trace_options.target_packets = packets;
  trace_options.duration_seconds = 20.0;
  trace_options.seed = 0xF18;
  const net::Trace trace = net::generate_trace(trace_options);
  std::cout << "trace: " << trace.packets.size() << " packets, "
            << trace.truth.size() << " flows over "
            << util::fmt(trace.duration_seconds, 1)
            << "s (override with IUSTITIA_TRACE_PACKETS)\n\n";

  core::EngineOptions purged;
  purged.buffer_size = 32;
  purged.cdb.purge_trigger_flows = 500;  // scaled from the paper's 5000
  core::EngineOptions unpurged = purged;
  unpurged.cdb.inactivity_purge_enabled = false;
  unpurged.cdb.fin_rst_removal_enabled = false;

  core::Iustitia engine_purged(quick_model(), purged);
  core::Iustitia engine_unpurged(quick_model(), unpurged);

  const int sample_points = 20;
  const double step = trace.duration_seconds / sample_points;
  double next_sample = step;
  std::size_t total_packets = 0;
  std::unordered_map<net::FlowKey, bool, net::FlowKeyHash> seen;

  util::Table table({"time (s)", "total packets", "total flows",
                     "CDB w/o purging", "CDB with purging"});
  std::size_t final_purged = 0, final_unpurged = 0;
  for (const net::Packet& packet : trace.packets) {
    engine_purged.on_packet(packet);
    engine_unpurged.on_packet(packet);
    ++total_packets;
    seen.emplace(packet.key, true);
    if (packet.timestamp >= next_sample) {
      table.add_row({util::fmt(packet.timestamp, 1),
                     std::to_string(total_packets),
                     std::to_string(seen.size()),
                     std::to_string(engine_unpurged.cdb().size()),
                     std::to_string(engine_purged.cdb().size())});
      next_sample += step;
      final_purged = engine_purged.cdb().size();
      final_unpurged = engine_unpurged.cdb().size();
    }
  }
  table.render(std::cout);

  const auto& stats = engine_purged.cdb().stats();
  const double fin_rst_fraction =
      stats.inserts == 0
          ? 0.0
          : static_cast<double>(stats.fin_rst_removals) /
                static_cast<double>(stats.inserts);
  std::cout << "\npurged-engine CDB stats: inserts=" << stats.inserts
            << " fin_rst_removals=" << stats.fin_rst_removals << " ("
            << util::fmt_percent(fin_rst_fraction)
            << " of flows; paper: up to 46%)"
            << " inactivity_removals=" << stats.inactivity_removals
            << " purge_runs=" << stats.purge_runs << '\n';
  std::cout << "record size: 194 bits/flow -> purged CDB memory "
            << util::fmt_bytes(
                   static_cast<double>(engine_purged.cdb().memory_bits()) / 8)
            << '\n';
  const core::ClassificationDatabase& unpurged_cdb = engine_unpurged.cdb();
  if (unpurged_cdb.size() > 0) {
    std::cout << "resident: " << unpurged_cdb.table_bytes() << " B of flow "
              << "table for " << unpurged_cdb.size()
              << " unpurged records = "
              << util::fmt(static_cast<double>(unpurged_cdb.table_bytes()) /
                               static_cast<double>(unpurged_cdb.size()),
                           1)
              << " B/record (48 B slots at load <= 3/4; paper: 194 bits "
                 "= 24.25 B)\n";
  }
  std::cout << "shape check: purged CDB << unpurged CDB at end: "
            << (final_purged * 2 < final_unpurged ? "YES" : "NO") << " ("
            << final_purged << " vs " << final_unpurged << ")\n";
  return 0;
}

}  // namespace
}  // namespace iustitia::bench

int main() { return iustitia::bench::run(); }
