// End-to-end throughput bench for the batched hot path: corpus -> model
// -> synthetic replay through the full online runtime (dispatcher ->
// SPSC rings -> shard workers -> output queues), swept across shard
// counts x burst sizes.
//
// burst = 1 moves one-packet bursts through the same transport (one
// ring head/tail round-trip, one metrics update and one egress crossing
// per packet), so each shard count's speedup_vs_single column is the
// measured win of batching over one-packet bursts on this machine, end
// to end rather than in a ring microbench.  Results go to
// stdout and machine-readable JSON (argv[1], default
// BENCH_e2e_throughput.json); tools/ci.sh runs a reduced form and gates
// speedup_vs_single against bench/baselines/e2e_throughput.json via
// tools/perf_check.py.
//
// Knobs: IUSTITIA_TRACE_PACKETS  synthetic trace packet budget
//                                (default 200000; CI smoke uses 25000).
//        IUSTITIA_E2E_REPS       repetitions per configuration; the
//                                best rep is reported (default 3).
//                                Best-of-N is the right estimator on a
//                                shared host: slowdowns are scheduler
//                                noise, the max approaches the
//                                machine's actual capability.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "appproto/trace_headers.h"
#include "bench/bench_common.h"
#include "core/trainer.h"
#include "entropy/entropy_vector.h"
#include "net/trace_gen.h"
#include "runtime/runtime.h"
#include "util/timer.h"

namespace iustitia::bench {
namespace {

struct E2eRow {
  std::size_t shards = 0;
  std::size_t burst = 0;
  double seconds = 0.0;
  double pkts_per_sec = 0.0;
  // Versus the burst = 1 row of the SAME shard count.
  double speedup_vs_single = 0.0;
  double mean_burst = 0.0;  // packets per successful ring burst push
  std::uint64_t flushes = 0;
  std::uint64_t flows_classified = 0;
  std::uint64_t dropped = 0;
};

// One training pass for the whole sweep: every run (and every shard)
// classifies with a copy of the same model, so rows differ only in the
// transport configuration under test.
std::function<core::FlowNatureModel()> model_factory() {
  const auto corpus = standard_corpus(40);
  core::TrainerOptions options;
  options.backend = core::Backend::kCart;
  options.widths = entropy::cart_preferred_widths();
  options.method = core::TrainingMethod::kFirstBytes;
  options.buffer_size = 32;
  core::FlowNatureModel model = core::train_model(corpus, options);
  return [model] { return model; };
}

void write_json(const std::string& path, const std::vector<E2eRow>& rows,
                std::size_t packets) {
  std::ofstream out(path);
  out << std::setprecision(12);
  out << "{\n  \"bench\": \"e2e_throughput\",\n  \"trace_packets\": "
      << packets << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const E2eRow& r = rows[i];
    out << "    {\"shards\": " << r.shards << ", \"burst\": " << r.burst
        << ", \"pkts_per_sec\": " << r.pkts_per_sec
        << ", \"speedup_vs_single\": " << r.speedup_vs_single
        << ", \"mean_burst\": " << r.mean_burst
        << ", \"flushes\": " << r.flushes
        << ", \"flows_classified\": " << r.flows_classified
        << ", \"dropped\": " << r.dropped << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run(int argc, char** argv) {
  banner("End-to-end batched-hot-path throughput: shards x burst sweep",
         "context: burst=1 is one-packet bursts on the same path, so "
         "speedup_vs_single is batching's end-to-end win");

  const std::size_t packets = env_size("IUSTITIA_TRACE_PACKETS", 200000);
  const std::size_t reps = std::max<std::size_t>(
      1, env_size("IUSTITIA_E2E_REPS", 3));
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_e2e_throughput.json";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  net::TraceOptions trace_options;
  trace_options.header_source = appproto::standard_header_source();
  trace_options.target_packets = packets;
  trace_options.seed = 0x78A;
  const std::size_t trace_size =
      net::generate_trace(trace_options).packets.size();
  std::cout << "trace: " << trace_size << " packets; hardware threads: "
            << hw << "\n\n";

  const auto factory = model_factory();
  std::vector<E2eRow> rows;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t burst :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}}) {
      E2eRow row;
      row.shards = shards;
      row.burst = burst;
      rows.push_back(row);
    }
  }

  // Repetitions are interleaved round-robin across configurations (rep
  // 0 of every row, then rep 1 of every row, ...) rather than run
  // back-to-back per row: shared-host noise arrives in waves lasting
  // whole seconds, so consecutive reps of one row are correlated — a
  // wave parked on one configuration would poison even its best-of-N
  // while leaving neighbours untouched.  Spreading the reps makes every
  // row sample every noise regime, which is what makes the RATIO
  // between rows trustworthy.
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (E2eRow& row : rows) {
      runtime::RuntimeOptions options;
      options.shards = row.shards;
      options.burst = row.burst;
      options.backpressure =
          runtime::BackpressurePolicy::kBlock;  // lossless
      options.latency_sample_every = 16;
      options.engine.buffer_size = 32;
      runtime::Runtime rt(factory, options);

      // Fresh trace per rep: a TraceSource is single-shot (packets are
      // moved out).  Same seed, so every configuration replays
      // identical input; generation is outside the timed window.
      runtime::TraceSource source(net::generate_trace(trace_options));

      const util::Stopwatch timer;
      rt.start(source);
      rt.wait();
      const double seconds = timer.elapsed_seconds();

      const runtime::MetricsSnapshot snap = rt.snapshot();
      const double pps = static_cast<double>(snap.packets_in) / seconds;
      rt.output_queues().drain_all();
      if (pps <= row.pkts_per_sec) continue;  // keep the best rep
      row.seconds = seconds;
      row.pkts_per_sec = pps;
      double mean_sum = 0.0;
      std::uint64_t mean_rings = 0;
      for (const auto& ring : snap.rings) {
        if (ring.flushes == 0) continue;
        mean_sum += ring.mean_burst();
        ++mean_rings;
      }
      row.mean_burst = mean_rings != 0 ? mean_sum / mean_rings : 1.0;
      row.flushes = snap.total_flushes();
      row.flows_classified = snap.flows_by_nature[0] +
                             snap.flows_by_nature[1] +
                             snap.flows_by_nature[2];
      row.dropped = snap.total_dropped();
    }
  }

  // speedup_vs_single: each row against the burst = 1 row of the SAME
  // shard count.
  for (E2eRow& row : rows) {
    for (const E2eRow& base : rows) {
      if (base.shards == row.shards && base.burst == 1) {
        row.speedup_vs_single = base.pkts_per_sec > 0.0
                                    ? row.pkts_per_sec / base.pkts_per_sec
                                    : 1.0;
        break;
      }
    }
  }

  util::Table table({"shards", "burst", "replay time", "packets/sec",
                     "vs single", "mean burst", "flows", "dropped"});
  for (const E2eRow& r : rows) {
    table.add_row({std::to_string(r.shards), std::to_string(r.burst),
                   util::fmt_seconds(r.seconds),
                   util::fmt(r.pkts_per_sec / 1e6, 2) + " M",
                   util::fmt(r.speedup_vs_single, 2) + "x",
                   util::fmt(r.mean_burst, 1),
                   std::to_string(r.flows_classified),
                   std::to_string(r.dropped)});
  }
  table.render(std::cout);
  std::cout << "\ncontext: blocking backpressure is lossless, so every "
               "configuration does identical classification work; the "
               "vs-single column isolates what batching the ring ops, "
               "guard scopes, and metrics buys over the per-packet "
               "path.\n";

  write_json(json_path, rows, trace_size);
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace iustitia::bench

int main(int argc, char** argv) { return iustitia::bench::run(argc, argv); }
