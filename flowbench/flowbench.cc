// The repo benchmark's driver: one workload, one seed, one process.
//
//   flowbench --workload <gateway|flow_churn|paced_gateway> --seed <n>
//             --seconds <s> --trace <0|1> [--cache-dir d] [--out-dir d]
//
// --trace 0 replays the trace through the serving runtime until --seconds
// have passed and reports the end-to-end metrics (medians over replays).
// --trace 1 makes the per-layer run: a traced direct drive, single-layer
// loops, and alternating untraced/traced replays; it reports the per-layer
// metrics and writes every span to <out-dir>/<workload>.spans.
//
// A human report goes to stdout; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Any failed output check
// makes "correct" false and the exit code 1.  See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_bundle.h"
#include "core/trainer.h"
#include "datagen/corpus.h"
#include "entropy/entropy_vector.h"
#include "layers.h"
#include "replay.h"
#include "spans.h"
#include "workload.h"

namespace flowbench {
namespace {

constexpr std::size_t kMinReplays = 3;
// Set-ups timed at process start, before the trace exists, so every run
// times them in the same process state; setup_s is their median.
constexpr std::size_t kSetupReps = 25;
constexpr std::size_t kMinTracedPairs = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir = ".bench_cache";
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cache-dir") {
      args.cache_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

// The one model every workload classifies with: CART over the preferred
// widths, trained on the first b = 32 bytes of the standard corpus, and
// shipped as a saved bundle (what `serve` loads).
std::string train_bundle() {
  datagen::CorpusOptions corpus;
  corpus.files_per_class = 40;
  corpus.min_size = 2048;
  corpus.max_size = 16384;
  corpus.seed = 0x1CED;
  core::TrainerOptions options;
  options.backend = core::Backend::kCart;
  options.widths = entropy::cart_preferred_widths();
  options.method = core::TrainingMethod::kFirstBytes;
  options.buffer_size = 32;
  const core::FlowNatureModel model =
      core::train_model(datagen::build_corpus(corpus), options);
  std::ostringstream out;
  core::save_model_bundle(model, "flowbench cart-b32 standard_corpus(40)",
                          out);
  return out.str();
}

// Collects failed output checks; any failure fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    std::cerr << "flowbench: CHECK FAILED: " << what << "\n";
  }
  bool ok() const noexcept { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

// Packet conservation, zero loss and the event count, for one replay.
void check_replay(const ReplayResult& r, const DriveResult& reference,
                  double min_accuracy, std::size_t replay, Checks& checks) {
  const std::string at = " (replay " + std::to_string(replay) + ")";
  checks.expect(r.source_delivered == r.offered &&
                    r.packets_in == r.offered && r.pushed == r.offered &&
                    r.popped == r.offered,
                "conservation: source " + std::to_string(r.source_delivered) +
                    " = packets_in " + std::to_string(r.packets_in) +
                    " = pushed " + std::to_string(r.pushed) + " = popped " +
                    std::to_string(r.popped) + " = offered " +
                    std::to_string(r.offered) + at);
  checks.expect(r.egress_enqueued == r.dequeued &&
                    r.egress_enqueued == reference.forwarded_count,
                "conservation: egress enqueued " +
                    std::to_string(r.egress_enqueued) + " = dequeued " +
                    std::to_string(r.dequeued) + " = forwarded in the direct "
                    "drive " + std::to_string(reference.forwarded_count) + at);
  checks.expect(r.ring_drops == 0, "ring drops under kBlock: " +
                                       std::to_string(r.ring_drops) + at);
  checks.expect(r.egress_refused == 0 && r.shed == 0,
                "egress refusals " + std::to_string(r.egress_refused) +
                    ", shed " + std::to_string(r.shed) + at);
  checks.expect(r.events == reference.events.size(),
                "classification events " + std::to_string(r.events) +
                    " != direct drive " +
                    std::to_string(reference.events.size()) + at);
  checks.expect(r.label_accuracy >= min_accuracy,
                "label_accuracy " + std::to_string(r.label_accuracy) +
                    " below floor " + std::to_string(min_accuracy) + at);
  checks.expect(r.dequeued > 0 && r.latency_samples > 0,
                "nothing was delivered" + at);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

// The human report, then the one JSON result line (always last).
void print_result(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << number(std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
         << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

// Adds the packets offered and lost (ring drops, egress refusals, shed)
// over `runs`.
void tally(const std::vector<ReplayResult>& runs, std::uint64_t& attempted,
           std::uint64_t& failed) {
  for (const ReplayResult& r : runs) {
    attempted += r.offered;
    failed += r.ring_drops + r.egress_refused + r.shed;
  }
}

template <typename Field>
double median_of(const std::vector<ReplayResult>& runs, Field field) {
  std::vector<double> values;
  for (const ReplayResult& r : runs) values.push_back(field(r));
  return median(values);
}

std::string percentile_label(double percentile) {
  char text[32];
  std::snprintf(text, sizeof(text), "p%.10g", percentile);
  return text;
}

int run_end_to_end(const Args& args, const Workload& workload,
                   const net::Trace& trace, const std::string& bundle,
                   const core::FlowNatureModel& model,
                   std::vector<double> setup_s) {
  Checks checks;
  const DriveResult reference = direct_drive(trace, model, 2, nullptr);

  Replayer replayer(workload, trace, bundle, reference.forwarded);
  std::vector<ReplayResult> runs;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (runs.size() < kMinReplays || now_ns() < deadline) {
    runs.push_back(replayer.run());
    const ReplayResult& r = runs.back();
    std::fprintf(stderr,
                 "flowbench: replay %zu: %.0f pkts/s, latency p50 %.1f us "
                 "%s %.3f ms, retained %.0f B\n",
                 runs.size(), r.delivered_pps, r.fwd_p50_us,
                 percentile_label(r.tail_percentile).c_str(), r.fwd_tail_ms,
                 r.retained_bytes);
    check_replay(runs.back(), reference,
                 workload.min_label_accuracy, runs.size(), checks);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  tally(runs, attempted, failed);
  const double flows = static_cast<double>(trace.truth.size());
  const ReplayResult& first = runs.front();
  std::printf("%s seed %llu: %zu replays of %zu packets (%zu flows), "
              "%llu classification events, loss_share %.6g (%llu of %llu)\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              runs.size(), trace.packets.size(), trace.truth.size(),
              static_cast<unsigned long long>(first.events),
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  fwd_latency_tail_ms %.6g (%s of %llu forwarded packets "
              "per replay; reported, not gated: see README.md)\n",
              median_of(runs, [](const auto& r) { return r.fwd_tail_ms; }),
              percentile_label(first.tail_percentile).c_str(),
              static_cast<unsigned long long>(first.latency_samples));

  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"delivered_pps",
       median_of(runs, [](const auto& r) { return r.delivered_pps; }),
       "pkts/s"},
      {"fwd_latency_p50_us",
       median_of(runs, [](const auto& r) { return r.fwd_p50_us; }), "us"},
      {"retained_bytes_per_flow",
       median_of(runs, [](const auto& r) { return r.retained_bytes; }) / flows,
       "B/flow"},
      {"label_accuracy",
       median_of(runs, [](const auto& r) { return r.label_accuracy; }),
       "ratio"},
  };
  print_result(metrics, checks.ok(), attempted, failed);
  return checks.ok() ? 0 : 1;
}

int run_per_layer(const Args& args, const Workload& workload,
                  const net::Trace& trace, const std::string& bundle,
                  const core::FlowNatureModel& model) {
  Checks checks;
  const std::size_t n = trace.packets.size();

  // Engine layers: the traced two-shard direct drive (also the reference
  // event stream), and an untraced one-shard drive for shard invariance.
  SpanBuffer drive_spans;
  drive_spans.reserve(3 * n);
  const DriveResult drive = direct_drive(trace, model, 2, &drive_spans);
  const DriveResult one_shard = direct_drive(trace, model, 1, nullptr);
  SpanSummary drive_summary;
  drive_summary.add(drive_spans.spans());
  std::vector<double> on_packet_us;
  on_packet_us.reserve(n);
  for (const Span& s : drive_spans.spans()) {
    if (s.name == SpanName::kOnPacketHit || s.name == SpanName::kOnPacketMiss ||
        s.name == SpanName::kOnPacketClassify) {
      on_packet_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  const double on_packet_max_us =
      on_packet_us.empty()
          ? 0.0
          : *std::max_element(on_packet_us.begin(), on_packet_us.end());
  const double on_packet_p9999_us = quantile(on_packet_us, 0.9999);

  const LayerCosts costs =
      time_layers(trace, model, drive.cdb_engine_peak);

  // Runtime layers: untraced and traced replays, alternating.
  Replayer replayer(workload, trace, bundle, drive.forwarded);
  std::vector<ReplayResult> plain;
  std::vector<ReplayResult> traced;
  SpanSummary runtime_summary;
  ReplaySpans last_spans;
  std::vector<double> scrape_us;
  const bool paced = workload.paced_pps > 0.0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (traced.size() < kMinTracedPairs || now_ns() < deadline) {
    plain.push_back(replayer.run());
    check_replay(plain.back(), drive,
                 workload.min_label_accuracy, plain.size(), checks);
    ReplaySpans spans;
    spans.source.reserve(paced ? 2 * n + 16 : n / 8 + 16);
    spans.egress.reserve(n);
    spans.scrape.reserve(1024);
    traced.push_back(replayer.run(&spans));
    check_replay(traced.back(), drive,
                 workload.min_label_accuracy, traced.size(), checks);
    runtime_summary.add(spans.source.spans());
    runtime_summary.add(spans.egress.spans());
    runtime_summary.add(spans.scrape.spans());
    for (const Span& s : spans.scrape.spans()) {
      scrape_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    last_spans = std::move(spans);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  tally(plain, attempted, failed);
  tally(traced, attempted, failed);

  // Spans to disk, and the per-layer self-time table.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string span_path =
      (std::filesystem::path(args.out_dir) / (workload.name + ".spans"))
          .string();
  checks.expect(write_spans(span_path, {&drive_spans, &last_spans.source,
                                        &last_spans.egress,
                                        &last_spans.scrape}),
                "could not write " + span_path);
  std::printf("%s seed %llu: spans in %s; self time per layer "
              "(direct drive: 1 pass; runtime: %zu traced replays)\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              span_path.c_str(), traced.size());
  std::printf("  %-26s %12s %14s %12s\n", "span", "count", "self ms",
              "self ns/call");
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount);
       ++i) {
    for (const SpanSummary* summary : {&drive_summary, &runtime_summary}) {
      if (summary->count[i] == 0) continue;
      std::printf("  %-26s %12llu %14.3f %12.1f\n", kSpanNames[i],
                  static_cast<unsigned long long>(summary->count[i]),
                  summary->self_ns[i] * 1e-6,
                  summary->self_ns[i] / static_cast<double>(summary->count[i]));
    }
  }

  const double packets_per_replay = static_cast<double>(n);
  const auto runtime_per_pkt = [&](SpanName name) {
    const auto i = static_cast<std::size_t>(name);
    return runtime_summary.total_ns[i] /
           (packets_per_replay * static_cast<double>(traced.size()));
  };
  const auto per_action = [&](SpanName name) {
    return drive_summary.mean_ns(name);
  };
  const double hits = static_cast<double>(
      drive_summary.count[static_cast<std::size_t>(SpanName::kOnPacketHit)]);
  const double plain_pps =
      median_of(plain, [](const auto& r) { return r.delivered_pps; });
  const double traced_pps =
      median_of(traced, [](const auto& r) { return r.delivered_pps; });

  const std::vector<Metric> metrics = {
      {"fwd_latency_tail_ms",
       median_of(plain, [](const auto& r) { return r.fwd_tail_ms; }), "ms"},
      {"runtime.source_ns_per_pkt", runtime_per_pkt(SpanName::kSource), "ns"},
      {"runtime.dispatch_ns_per_pkt", runtime_per_pkt(SpanName::kDispatchGap),
       "ns"},
      {"runtime.mean_burst",
       median_of(traced, [](const auto& r) { return r.mean_burst; }), "pkts"},
      {"runtime.ring_high_water",
       median_of(traced,
                 [](const auto& r) {
                   return static_cast<double>(r.ring_high_water);
                 }),
       "pkts"},
      {"runtime.ring_drops",
       median_of(traced,
                 [](const auto& r) { return static_cast<double>(r.ring_drops); }),
       "count"},
      {"runtime.source_late_us_p50",
       median_of(traced, [](const auto& r) { return r.source_late_p50_us; }),
       "us"},
      {"runtime.source_late_us_max",
       median_of(traced, [](const auto& r) { return r.source_late_max_us; }),
       "us"},
      {"egress.dequeue_ns", runtime_summary.mean_ns(SpanName::kDequeue), "ns"},
      {"egress.idle_poll_share",
       median_of(traced,
                 [](const auto& r) {
                   return static_cast<double>(r.egress_idle_polls) /
                          static_cast<double>(r.egress_polls);
                 }),
       "ratio"},
      {"egress.backlog_high_water",
       median_of(traced,
                 [](const auto& r) {
                   return static_cast<double>(r.backlog_high_water);
                 }),
       "pkts"},
      {"core.steer_ns", per_action(SpanName::kSteer), "ns"},
      {"core.hit_ns", per_action(SpanName::kOnPacketHit), "ns"},
      {"core.hit_share", hits / static_cast<double>(n), "ratio"},
      {"core.miss_ns", per_action(SpanName::kOnPacketMiss), "ns"},
      {"core.classify_ns", per_action(SpanName::kOnPacketClassify), "ns"},
      {"core.on_packet_p9999_us", on_packet_p9999_us, "us"},
      {"core.on_packet_max_us", on_packet_max_us, "us"},
      {"core.useful_classify_ratio", useful_classify_ratio(drive.events),
       "ratio"},
      {"core.pending_peak", static_cast<double>(drive.pending_peak), "flows"},
      {"core.cdb_peak", static_cast<double>(drive.cdb_peak), "records"},
      {"core.cdb_purge_runs", static_cast<double>(drive.cdb_purge_runs),
       "count"},
      {"core.cdb_probe_ns", costs.cdb_probe_ns, "ns"},
      {"core.shard_event_delta",
       static_cast<double>(event_delta(drive.events, one_shard.events)),
       "count"},
      {"net.flow_id_ns", costs.flow_id_ns, "ns"},
      {"entropy.extract_ns", costs.extract_ns, "ns"},
      {"ml.infer_ns", costs.infer_ns, "ns"},
      {"appproto.detect_ns", costs.detect_ns, "ns"},
      {"ctrl.scrape_us", median(scrape_us), "us"},
      {"bench.trace_overhead", traced_pps > 0.0 ? plain_pps / traced_pps : 0.0,
       "ratio"},
  };
  print_result(metrics, checks.ok(), attempted, failed);
  return checks.ok() ? 0 : 1;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: flowbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--cache-dir d] [--out-dir d]\n";
    return 2;
  }
  const std::optional<Workload> workload =
      find_workload(args.workload, args.seed);
  if (!workload.has_value()) {
    std::cerr << "flowbench: unknown workload '" << args.workload
              << "' (gateway, flow_churn, paced_gateway)\n";
    return 2;
  }

  const std::string bundle = train_bundle();
  std::vector<double> setup_s;
  if (!args.trace) {
    for (std::size_t i = 0; i < kSetupReps; ++i) {
      setup_s.push_back(measure_setup(bundle));
    }
  }
  std::istringstream bundle_in(bundle);
  const core::FlowNatureModel model = core::load_model_bundle(bundle_in).model;
  const LoadedTrace loaded = load_trace(*workload, args.cache_dir);
  std::cerr << "flowbench: " << workload->trace_kind << " trace seed "
            << args.seed << ": " << loaded.trace.packets.size()
            << " packets, " << loaded.trace.truth.size() << " flows, "
            << (loaded.from_cache ? "read from cache" : "generated") << " in "
            << loaded.seconds << " s (not part of setup_s)\n";

  return args.trace
             ? run_per_layer(args, *workload, loaded.trace, bundle, model)
             : run_end_to_end(args, *workload, loaded.trace, bundle, model,
                            std::move(setup_s));
}

}  // namespace
}  // namespace flowbench

int main(int argc, char** argv) { return flowbench::run(argc, argv); }
