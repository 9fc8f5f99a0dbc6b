// Throughput scaling bench: packets/second of the online engine, single
// shard vs flow-sharded across threads, on two trace shapes.
//
// The paper's headline is per-flow delay (10% of packet inter-arrival
// time); a deployment also needs aggregate throughput headroom.  This
// bench measures the replay rate of the full pipeline (hash + flow table +
// buffering + entropy + CART) and how it scales when flows are sharded
// across cores — the standard RSS deployment pattern.  Two traces:
//   gateway  the paper-calibrated mix, where most packets hit the CDB;
//   churn    0.3 new flows per packet, no FIN/RST, a 2 s flow-arrival
//            window and 512 content bytes per flow (the shape of the
//            repo benchmark's flow_churn workload), where the miss lane
//            — new-flow setup and classification — dominates.
// Each row keeps the best of five replays: one replay lasts a fraction
// of a second, and a shared host swings ~15% from run to run.  Results
// go to stdout and to JSON (argv[1], default BENCH_throughput.json);
// tools/ci.sh gates the churn row against bench/baselines/throughput.json.
//
// Knob: IUSTITIA_TRACE_PACKETS  packets per trace (default 200000)
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
#include "core/sharded_engine.h"
#include "core/trainer.h"
#include "entropy/entropy_vector.h"
#include "net/trace_gen.h"
#include "util/timer.h"

namespace iustitia::bench {
namespace {

struct Row {
  std::string trace;
  std::size_t shards = 0;
  double seconds = 0.0;
  double pkts_per_sec = 0.0;
  std::uint64_t flows_classified = 0;
};

core::FlowNatureModel train() {
  const auto corpus = standard_corpus(40);
  core::TrainerOptions options;
  options.backend = core::Backend::kCart;
  options.widths = entropy::cart_preferred_widths();
  options.method = core::TrainingMethod::kFirstBytes;
  options.buffer_size = 32;
  return core::train_model(corpus, options);
}

net::Trace make_trace(const std::string& shape, std::size_t packets) {
  net::TraceOptions options;
  options.header_source = appproto::standard_header_source();
  options.target_packets = packets;
  options.seed = 0x789;
  if (shape == "churn") {
    options.flows_per_packet = 0.3;
    options.fin_close_fraction = 0.0;
    options.rst_close_fraction = 0.0;
    options.duration_seconds = 2.0;
    options.content_limit = 512;
  }
  return net::generate_trace(options);
}

// One replay: packets pre-partitioned by shard (NIC steering is not what
// we are measuring), one thread per shard, pending flows flushed.
void replay(const net::Trace& trace, const core::FlowNatureModel& model,
            Row& row) {
  core::EngineOptions options;
  options.buffer_size = 32;
  core::ShardedIustitia sharded([&model] { return model; }, options,
                                row.shards);
  std::vector<std::vector<const net::Packet*>> partitions(row.shards);
  for (const net::Packet& p : trace.packets) {
    partitions[sharded.shard_of(p.key)].push_back(&p);
  }

  const util::Stopwatch timer;
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < row.shards; ++s) {
    threads.emplace_back([&sharded, &partitions, s] {
      for (const net::Packet* p : partitions[s]) {
        sharded.shard(s).on_packet(*p);
      }
      sharded.shard(s).flush_all();
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = timer.elapsed_seconds();

  const double rate = static_cast<double>(trace.packets.size()) / seconds;
  if (rate <= row.pkts_per_sec) return;  // keep the best rep
  row.seconds = seconds;
  row.pkts_per_sec = rate;
  row.flows_classified = sharded.total_flows_classified();
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                std::size_t packets) {
  std::ofstream out(path);
  out << std::setprecision(12);
  out << "{\n  \"bench\": \"throughput\",\n  \"trace_packets\": " << packets
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"trace\": \"" << r.trace << "\", \"shards\": " << r.shards
        << ", \"pkts_per_sec\": " << r.pkts_per_sec
        << ", \"flows_classified\": " << r.flows_classified << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run(int argc, char** argv) {
  banner("Throughput scaling: flow-sharded engine across threads",
         "context: the paper targets per-flow delay; this measures the "
         "pipeline's aggregate packet rate headroom");

  const std::size_t packets = env_size("IUSTITIA_TRACE_PACKETS", 200000);
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_throughput.json";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const core::FlowNatureModel model = train();

  std::vector<Row> rows;
  for (const std::string shape : {"gateway", "churn"}) {
    const net::Trace trace = make_trace(shape, packets);
    std::cout << shape << " trace: " << trace.packets.size() << " packets, "
              << trace.truth.size() << " flows\n";
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{8}}) {
      if (shards > hw * 2) break;
      Row row;
      row.trace = shape;
      row.shards = shards;
      for (int rep = 0; rep < 5; ++rep) replay(trace, model, row);
      rows.push_back(row);
    }
  }
  std::cout << "\n";

  util::Table table({"trace", "shards", "replay time", "packets/sec",
                     "flows classified", "speedup"});
  for (const Row& r : rows) {
    double single = r.pkts_per_sec;
    for (const Row& base : rows) {
      if (base.trace == r.trace && base.shards == 1) single = base.pkts_per_sec;
    }
    table.add_row({r.trace, std::to_string(r.shards),
                   util::fmt_seconds(r.seconds),
                   util::fmt(r.pkts_per_sec / 1e6, 2) + " M",
                   std::to_string(r.flows_classified),
                   util::fmt(r.pkts_per_sec / single, 2) + "x"});
  }
  table.render(std::cout);
  std::cout << "\ncontext: the paper's trace runs at 0.147 M packets/sec; "
               "the single-shard engine already exceeds that, and sharding "
               "scales it with cores (hardware threads here: " << hw
            << ").\n";

  write_json(json_path, rows, packets);
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace iustitia::bench

int main(int argc, char** argv) { return iustitia::bench::run(argc, argv); }
