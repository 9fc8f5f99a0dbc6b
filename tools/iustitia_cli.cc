// iustitia — command-line front end for the library.
//
// Subcommands:
//   gen-corpus <dir> [--files N] [--seed S] [--min-size B] [--max-size B]
//       Synthesize a labeled corpus as real files under <dir>/{text,
//       binary,encrypted}/.
//   train <corpus-dir> <model-file> [--backend cart|svm] [--buffer B]
//         [--method hf|hb|hbp] [--threshold T] [--gamma G] [--c C]
//       Train a flow-nature model on a labeled directory tree and save it.
//   classify <model-file> <file>...
//       Classify files (their first-buffer window) with a saved model.
//   gen-trace <out.pcap> [--packets N] [--seed S] [--duration SEC]
//       Synthesize a calibrated gateway trace as a standard pcap.
//   analyze <model-file> <trace.pcap> [--buffer B]
//       Replay a pcap through the online engine and summarize flows.
//   replay <model-file> <trace.pcap> [--shards N] [--burst N] [--pps R]
//          [--backpressure block|drop] [--ring N] [--buffer B] [--json]
//       Serve a pcap through the online runtime (dispatcher + pinned shard
//       workers + per-nature output queues) and print live-metrics report.
//       --burst defaults to RuntimeOptions' 32; partial bursts flush as
//       soon as the source has nothing more ready.
//   serve <model-file> <trace.pcap> [replay flags] [--port P]
//         [--bind ADDR] [--port-file PATH] [--once 1]
//       replay plus the control plane: an admin HTTP server (/healthz,
//       /readyz, /metrics, /stats.json, GET+POST /failpoints, POST /model
//       hot-swap, POST /quitquitquit) over a live runtime.  Lingers after
//       the trace ends until quit or SIGINT/SIGTERM so probes and swaps
//       never race replay end.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "appproto/trace_headers.h"
#include "core/engine.h"
#include "core/model_bundle.h"
#include "core/model_registry.h"
#include "core/trainer.h"
#include "ctrl/admin.h"
#include "ctrl/signal.h"
#include "datagen/corpus_io.h"
#include "net/pcap.h"
#include "net/trace_gen.h"
#include "runtime/runtime.h"
#include "util/failpoint.h"
#include "util/table.h"
#include "util/timer.h"

using namespace iustitia;

namespace {

// Minimal flag parser: positional args plus --key value pairs.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string flag(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  long long flag_int(const std::string& key, long long fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atoll(it->second.c_str());
  }
  double flag_double(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
};

Args parse_args(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0 && i + 1 < argc) {
      args.flags[token.substr(2)] = argv[++i];
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

int usage() {
  std::cerr <<
      "usage: iustitia <command> ...\n"
      "  gen-corpus <dir> [--files N] [--seed S] [--min-size B] "
      "[--max-size B]\n"
      "  train <corpus-dir> <model-file> [--backend cart|svm] [--buffer B]\n"
      "        [--method hf|hb|hbp] [--threshold T] [--gamma G] [--c C]\n"
      "        [--meta 'VERSION free-form provenance'] [--format bundle|raw]\n"
      "  classify <model-file> <file>...\n"
      "  gen-trace <out.pcap> [--packets N] [--seed S] [--duration SEC]\n"
      "  analyze <model-file> <trace.pcap> [--buffer B]\n"
      "  replay <model-file> <trace.pcap> [--shards N] [--burst N] "
      "[--pps R]\n"
      "         [--backpressure block|drop] [--ring N] [--buffer B] "
      "[--json]\n"
      "         [--cdb-max N] [--overload 0|1] [--watchdog-ms MS]\n"
      "         [--watchdog-fatal 0|1] [--failpoints SPEC]\n"
      "         --burst: packets per ring operation (default 32); a partial\n"
      "         burst is flushed as soon as the source has nothing ready\n"
      "  serve <model-file> <trace.pcap> [replay flags] [--port P]\n"
      "        [--bind ADDR] [--port-file PATH] [--once 1]\n";
  return 2;
}

int cmd_gen_corpus(const Args& args) {
  if (args.positional.empty()) return usage();
  datagen::CorpusOptions options;
  options.files_per_class =
      static_cast<std::size_t>(args.flag_int("files", 100));
  options.seed = static_cast<std::uint64_t>(args.flag_int("seed", 1));
  options.min_size = static_cast<std::size_t>(args.flag_int("min-size", 2048));
  options.max_size =
      static_cast<std::size_t>(args.flag_int("max-size", 16384));
  const auto corpus = datagen::build_corpus(options);
  datagen::save_corpus(corpus, args.positional[0]);
  std::cout << "wrote " << corpus.size() << " files under "
            << args.positional[0] << "/{text,binary,encrypted}/\n";
  return 0;
}

int cmd_train(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto corpus = datagen::load_corpus(args.positional[0]);
  std::cout << "loaded " << corpus.size() << " labeled files\n";

  core::TrainerOptions options;
  const std::string backend = args.flag("backend", "svm");
  options.backend =
      backend == "cart" ? core::Backend::kCart : core::Backend::kSvm;
  options.widths = options.backend == core::Backend::kCart
                       ? entropy::cart_preferred_widths()
                       : entropy::svm_preferred_widths();
  const std::string method = args.flag("method", "hb");
  options.method = method == "hf"    ? core::TrainingMethod::kWholeFile
                   : method == "hbp" ? core::TrainingMethod::kRandomOffset
                                     : core::TrainingMethod::kFirstBytes;
  options.buffer_size = static_cast<std::size_t>(args.flag_int("buffer", 32));
  options.header_threshold =
      static_cast<std::size_t>(args.flag_int("threshold", 0));
  options.svm.gamma = args.flag_double("gamma", 50.0);
  options.svm.c = args.flag_double("c", 1000.0);

  const core::FlowNatureModel model = core::train_model(corpus, options);
  std::ofstream out(args.positional[1], std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << args.positional[1] << '\n';
    return 1;
  }
  const std::string format = args.flag("format", "bundle");
  if (format == "raw") {
    // Pre-bundle artifact format; every loader still auto-detects it.
    model.save(out);
  } else if (format == "bundle") {
    // Default metadata: "v1 <backend> b=<buffer>" — first token is the
    // operator-facing version reported by /metrics after a hot-swap.
    const std::string meta = args.flag(
        "meta", std::string("v1 ") + core::backend_name(model.backend()) +
                    " b=" + std::to_string(options.buffer_size));
    core::save_model_bundle(model, meta, out);
  } else {
    std::cerr << "unknown --format '" << format
              << "' (expected bundle or raw)\n";
    return 2;
  }
  std::cout << "trained " << core::backend_name(model.backend())
            << " (method " << core::training_method_name(options.method)
            << ", b=" << options.buffer_size << ") -> " << args.positional[1]
            << " (" << model.model_space_bytes() << " model bytes, "
            << format << " format)\n";
  return 0;
}

int cmd_classify(const Args& args) {
  if (args.positional.size() < 2) return usage();
  std::ifstream in(args.positional[0], std::ios::binary);
  if (!in) {
    std::cerr << "cannot read model " << args.positional[0] << '\n';
    return 1;
  }
  core::FlowNatureModel model = core::load_model_any(in);

  util::Table table({"file", "size", "nature", "h-vector"});
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    const auto bytes = datagen::read_file(args.positional[i], 65536);
    // Classify the same window size the model was trained on.
    const std::size_t window =
        model.training_buffer_size() == 0
            ? bytes.size()
            : std::min(model.training_buffer_size(), bytes.size());
    const core::Classification result = model.classify(
        std::span<const std::uint8_t>(bytes.data(), window));
    std::string h;
    for (const double v : result.features) {
      if (!h.empty()) h += ' ';
      h += util::fmt(v, 3);
    }
    table.add_row({args.positional[i],
                   util::fmt_bytes(static_cast<double>(bytes.size())),
                   datagen::class_name(result.label), h});
  }
  table.render(std::cout);
  return 0;
}

int cmd_gen_trace(const Args& args) {
  if (args.positional.empty()) return usage();
  net::TraceOptions options;
  options.header_source = appproto::standard_header_source();
  options.target_packets =
      static_cast<std::size_t>(args.flag_int("packets", 100000));
  options.seed = static_cast<std::uint64_t>(args.flag_int("seed", 1));
  options.duration_seconds = args.flag_double("duration", 10.0);
  const net::Trace trace = net::generate_trace(options);
  std::ofstream out(args.positional[0], std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << args.positional[0] << '\n';
    return 1;
  }
  net::PcapWriter writer(out);
  for (const net::Packet& packet : trace.packets) writer.write(packet);
  std::cout << "wrote " << writer.packets_written() << " packets ("
            << trace.truth.size() << " flows, "
            << util::fmt(trace.duration_seconds, 1) << "s) to "
            << args.positional[0] << '\n';
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.size() < 2) return usage();
  std::ifstream model_in(args.positional[0], std::ios::binary);
  if (!model_in) {
    std::cerr << "cannot read model " << args.positional[0] << '\n';
    return 1;
  }
  core::FlowNatureModel model = core::load_model_any(model_in);

  std::ifstream pcap_in(args.positional[1], std::ios::binary);
  if (!pcap_in) {
    std::cerr << "cannot read pcap " << args.positional[1] << '\n';
    return 1;
  }
  core::EngineOptions engine_options;
  engine_options.buffer_size =
      static_cast<std::size_t>(args.flag_int("buffer", 32));
  core::Iustitia engine(std::move(model), engine_options);
  net::PcapReader reader(pcap_in);
  while (auto packet = reader.next()) engine.on_packet(*packet);
  engine.flush_all();

  std::size_t per_class[3] = {};
  for (const core::FlowDelayRecord& record : engine.delays()) {
    ++per_class[static_cast<int>(record.label)];
  }
  std::cout << "packets: " << reader.packets_read()
            << "  flows classified: " << engine.stats().flows_classified
            << '\n';
  util::Table table({"nature", "flows"});
  static constexpr const char* kNames[3] = {"text", "binary", "encrypted"};
  for (int c = 0; c < 3; ++c) {
    table.add_row({kNames[c], std::to_string(per_class[c])});
  }
  table.render(std::cout);
  return 0;
}

// Flags shared by replay and serve.  Returns 0 on success, a usage exit
// code otherwise.
int parse_runtime_flags(const Args& args, runtime::RuntimeOptions& options,
                        std::string& policy) {
  options.shards = static_cast<std::size_t>(args.flag_int("shards", 1));
  options.ring_capacity = static_cast<std::size_t>(args.flag_int("ring", 2048));
  options.burst = static_cast<std::size_t>(
      args.flag_int("burst", static_cast<long long>(options.burst)));
  if (options.burst == 0) {
    std::cerr << "--burst must be at least 1\n";
    return 2;
  }
  policy = args.flag("backpressure", "block");
  if (policy != "block" && policy != "drop") {
    std::cerr << "unknown --backpressure '" << policy
              << "' (expected block or drop)\n";
    return 2;
  }
  options.backpressure = policy == "drop"
                             ? runtime::BackpressurePolicy::kDrop
                             : runtime::BackpressurePolicy::kBlock;
  options.pin_workers = args.flag_int("pin", 0) != 0;
  options.engine.buffer_size =
      static_cast<std::size_t>(args.flag_int("buffer", 32));
  // Robustness knobs (DESIGN.md §12).
  options.engine.cdb.max_records =
      static_cast<std::size_t>(args.flag_int("cdb-max", 0));
  options.overload.enabled = args.flag_int("overload", 0) != 0;
  options.watchdog_deadline_ms =
      static_cast<std::uint64_t>(args.flag_int("watchdog-ms", 1000));
  options.watchdog_fatal = args.flag_int("watchdog-fatal", 0) != 0;
  // --failpoints arms the same registry the IUSTITIA_FAILPOINTS env var
  // and POST /failpoints feed; a bad spec is a usage error.
  const std::string failpoints = args.flag("failpoints", "");
  if (!failpoints.empty()) {
    const std::string error = util::failpoints_configure(failpoints);
    if (!error.empty()) {
      std::cerr << "bad --failpoints spec: " << error << '\n';
      return 2;
    }
  }
  return 0;
}

// Accept both `--json 1` (flag parser eats a value) and bare trailing
// `--json` (lands in positional).
bool json_requested(const Args& args) {
  return (args.flags.count("json") != 0 && args.flag("json", "1") != "0") ||
         std::count(args.positional.begin(), args.positional.end(),
                    "--json") > 0;
}

void print_run_report(const runtime::MetricsSnapshot& snap, double seconds,
                      const runtime::RuntimeOptions& options,
                      const std::string& policy, bool json) {
  if (json) {
    std::cout << snap.json();
    return;
  }
  std::cout << snap.text_report();
  const double pps =
      seconds > 0.0 ? static_cast<double>(snap.packets_in) / seconds : 0.0;
  std::cout << "  replayed " << snap.packets_in << " packets in "
            << util::fmt(seconds, 3) << "s (" << util::fmt(pps / 1e3, 1)
            << " kpps, " << options.shards << " shard"
            << (options.shards == 1 ? "" : "s") << ", burst "
            << options.burst << ", " << policy << " backpressure)\n";
}

int cmd_replay(const Args& args) {
  if (args.positional.size() < 2) return usage();
  std::ifstream model_in(args.positional[0], std::ios::binary);
  if (!model_in) {
    std::cerr << "cannot read model " << args.positional[0] << '\n';
    return 1;
  }
  const core::FlowNatureModel model = core::load_model_any(model_in);

  std::ifstream pcap_in(args.positional[1], std::ios::binary);
  if (!pcap_in) {
    std::cerr << "cannot read pcap " << args.positional[1] << '\n';
    return 1;
  }

  runtime::RuntimeOptions options;
  std::string policy;
  if (const int rc = parse_runtime_flags(args, options, policy); rc != 0) {
    return rc;
  }

  runtime::Runtime rt([&model] { return model; }, options);
  runtime::PcapReplaySource source(pcap_in, args.flag_double("pps", 0.0));

  // Ctrl-C / SIGTERM: stop reading the source, drain what is enqueued,
  // and still print the final metrics report below.
  ctrl::SignalDrain drain([&rt] { rt.stop(); });

  const util::Stopwatch watch;
  rt.start(source);
  rt.wait();
  const double seconds = watch.elapsed_seconds();

  const runtime::MetricsSnapshot snap = rt.snapshot();
  print_run_report(snap, seconds, options, policy, json_requested(args));
  if (drain.triggered()) {
    std::cerr << "note: interrupted; metrics cover the drained prefix\n";
  }
  if (source.truncated()) {
    std::cerr << "note: capture ended on a truncated record; replayed the "
                 "complete prefix\n";
  }
  rt.output_queues().drain_all();
  return 0;
}

int cmd_serve(const Args& args) {
  if (args.positional.size() < 2) return usage();
  std::ifstream model_in(args.positional[0], std::ios::binary);
  if (!model_in) {
    std::cerr << "cannot read model " << args.positional[0] << '\n';
    return 1;
  }
  std::string metadata;
  core::FlowNatureModel model = core::load_model_any(model_in, &metadata);

  std::ifstream pcap_in(args.positional[1], std::ios::binary);
  if (!pcap_in) {
    std::cerr << "cannot read pcap " << args.positional[1] << '\n';
    return 1;
  }

  runtime::RuntimeOptions options;
  std::string policy;
  if (const int rc = parse_runtime_flags(args, options, policy); rc != 0) {
    return rc;
  }

  const auto registry = std::make_shared<core::ModelRegistry>(
      options.shards,
      std::make_shared<const core::FlowNatureModel>(std::move(model)),
      core::model_version_of(metadata));
  runtime::Runtime rt(registry, options);
  runtime::PcapReplaySource source(pcap_in, args.flag_double("pps", 0.0));

  ctrl::HttpServer::Options http;
  http.bind_address = args.flag("bind", "127.0.0.1");
  http.port = static_cast<std::uint16_t>(args.flag_int("port", 0));
  ctrl::AdminServer admin(&rt, registry, http);
  admin.start();
  std::cerr << "admin: http://" << http.bind_address << ":" << admin.port()
            << " (/healthz /readyz /metrics /stats.json /failpoints /model "
               "/quitquitquit)\n";
  const std::string port_file = args.flag("port-file", "");
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << admin.port() << '\n';
  }

  // A signal and POST /quitquitquit land on the same latch; either way
  // the drain below runs exactly once on this thread.
  ctrl::SignalDrain drain([&admin] { admin.notify_quit(); });

  const util::Stopwatch watch;
  rt.start(source);
  if (args.flag_int("once", 0) != 0) {
    // CI/one-shot mode: exit as soon as the trace has drained (a signal
    // or /quitquitquit still cuts the replay short via the latch...).
    std::thread waiter([&rt, &admin] {
      rt.wait();
      admin.notify_quit();
    });
    admin.wait_for_quit();
    rt.stop();
    waiter.join();
  } else {
    // Serving mode: the runtime may finish the trace long before the
    // operator is done probing /metrics; linger until told to quit.
    admin.wait_for_quit();
    rt.stop();
  }
  const double seconds = watch.elapsed_seconds();

  const runtime::MetricsSnapshot snap = rt.snapshot();
  print_run_report(snap, seconds, options, policy, json_requested(args));
  rt.output_queues().drain_all();
  admin.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (command == "gen-corpus") return cmd_gen_corpus(args);
    if (command == "train") return cmd_train(args);
    if (command == "classify") return cmd_classify(args);
    if (command == "gen-trace") return cmd_gen_trace(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "serve") return cmd_serve(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
