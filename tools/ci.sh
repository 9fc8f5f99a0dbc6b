#!/usr/bin/env bash
# Pre-merge gate: the full ctest matrix under every sanitizer preset, the
# repo lint + analyze passes, the deadlock-debug and rt-debug
# cross-checks, the repo benchmark's correctness smoke, and the perf
# smoke.  Maps onto tier-1 verify as follows:
# the `default` preset IS the tier-1 build/test command (same binary dir,
# same cache), so a green ci.sh implies a green tier-1 run.
#
# Usage: tools/ci.sh [preset ...]
#   With no arguments runs: default, asan-ubsan, tsan, then the tool stages.
#   With arguments runs only the named configure/build/test presets.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
presets=("$@")
if [[ ${#presets[@]} -eq 0 ]]; then
  presets=(default asan-ubsan tsan)
fi

# Per-stage wall time: stage NAME marks a boundary, the summary at the
# bottom prints one line per stage so a slow gate names its stage.
stage_names=()
stage_secs=()
current_stage=""
stage_start=0
end_stage() {
  if [[ -n "$current_stage" ]]; then
    stage_names+=("$current_stage")
    stage_secs+=($((SECONDS - stage_start)))
  fi
  current_stage=""
}
stage() {
  end_stage
  current_stage="$1"
  stage_start=$SECONDS
  echo "==== $1"
}
print_stage_times() {
  end_stage
  echo "---- stage wall times"
  local i
  for i in "${!stage_names[@]}"; do
    printf '%6ss  %s\n' "${stage_secs[$i]}" "${stage_names[$i]}"
  done
}
trap print_stage_times EXIT

for preset in "${presets[@]}"; do
  stage "[$preset] configure+build+test"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  ctest --preset "$preset" -j "$jobs"
done

stage "lint"
# The tool stages run directly instead of through `cmake --build --target`:
# each cmake invocation re-checks the generate step, which can regenerate
# compile_commands.json mid-gate.  The database exported by the `default`
# configure above serves every later stage unchanged (analyze here,
# and the rt-debug stage's analyzer re-run below).
compdb="build/compile_commands.json"
[[ -f "$compdb" ]] || {
  echo "ci.sh: $compdb missing — run the default preset first" >&2
  exit 1
}
python3 tools/lint.py

stage "analyze"
# Baseline-gated: exits nonzero only on findings not in
# tools/analyze-baseline.json (see tools/README.md for the workflow).
# Also exports the static lock-order graph the deadlock-debug stage
# checks runtime executions against.
python3 tools/analyze --compdb "$compdb" \
  --baseline tools/analyze-baseline.json \
  --sarif-out build/analyze.sarif \
  --lock-graph-out build/lock_graph_static.json

stage "deadlock-debug"
# Instrumented util::Mutex: FATALs on a runtime lock-order inversion and
# records every observed edge.  The concurrency suites run with graph
# capture on, then the observed graph must be a subgraph of the static
# one — an edge the analyzer failed to model fails the gate.
cmake --preset deadlock-debug
cmake --build --preset deadlock-debug -j "$jobs"
# Absolute: ctest runs each test from its own binary dir, and the graph
# writer resolves the path from the test's cwd.
graph_dir="$PWD/build-deadlock/lock-graphs"
rm -rf "$graph_dir"
mkdir -p "$graph_dir"
IUSTITIA_LOCK_GRAPH_OUT="$graph_dir" ctest --preset deadlock-debug \
  -j "$jobs" -R 'test_runtime|test_concurrency_stress'
# The detector's own unit tests use synthetic mutexes that must NOT land
# in the comparison, so they run without graph capture.
ctest --preset deadlock-debug -R test_deadlock_debug

python3 tools/check_lock_graph.py build/lock_graph_static.json "$graph_dir"

stage "rt-debug"
# Runtime twin of the analyzer's hotpath pass: replacement operator
# new/delete and instrumented util::Mutex abort the process on any heap
# or blocking call inside a util::rt::GuardRegion without a matching
# AllowScope.  The hotpath pass in the analyze stage above proves the
# static claims (no effects outside `// analyze: hotpath-allow` lines);
# this stage proves the observed behavior is a subset of those claims —
# a replay that allocates where the analyzer saw no allocation aborts
# and fails the gate.  The static pass already ran against the shared
# compile_commands.json; only the instrumented binaries build here.
cmake --preset rt-debug
cmake --build --preset rt-debug -j "$jobs"
ctest --preset rt-debug -j "$jobs" -R 'test_rt_debug|test_runtime'
# End-to-end serve under live guards: train a small model, generate a
# trace, replay it through the sharded runtime in both backpressure
# modes — the blocking run with burst batching on, so the staging
# buffers, ring burst push/pop, and batched output handoff all execute
# inside guard regions.  Any undeclared hot-loop allocation FATALs the
# replay.
rt_dir="$PWD/build-rtdebug/rt-smoke"
rm -rf "$rt_dir"
mkdir -p "$rt_dir"
./build-rtdebug/tools/iustitia gen-corpus "$rt_dir/corpus" --files 8 --seed 7
./build-rtdebug/tools/iustitia train "$rt_dir/corpus" "$rt_dir/model.bin"
./build-rtdebug/tools/iustitia gen-trace "$rt_dir/trace.pcap" \
  --packets 20000 --seed 11
./build-rtdebug/tools/iustitia replay "$rt_dir/model.bin" \
  "$rt_dir/trace.pcap" --shards 2 --burst 16 --backpressure block --json \
  > "$rt_dir/replay_block.json"
./build-rtdebug/tools/iustitia replay "$rt_dir/model.bin" \
  "$rt_dir/trace.pcap" --shards 2 --backpressure drop --json \
  > "$rt_dir/replay_drop.json"
# Paced replay at the default burst: the source hands packets over as
# they fall due, so reads come up short and the dispatcher flushes
# partial bursts, and every worker crosses to the egress producer lock
# with a few packets at a time, all under live guards.  The mean flush
# must stay far below a full burst: staging must not wait for traffic.
./build-rtdebug/tools/iustitia replay "$rt_dir/model.bin" \
  "$rt_dir/trace.pcap" --shards 2 --pps 20000 --json \
  > "$rt_dir/replay_paced.json"
python3 - "$rt_dir/replay_paced.json" <<'PYEOF'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["packets_in"] == 20000, snap["packets_in"]
assert snap["dropped"] == 0, snap["dropped"]
assert snap["dispatch_flushes"] * 8 > snap["packets_in"], (
    snap["dispatch_flushes"], snap["packets_in"])
PYEOF

stage "ctrl-smoke"
# End-to-end control plane: serve a paced replay from the default-preset
# binary, probe the admin endpoints, hot-swap a retrained bundle
# mid-replay, reject a corrupt one, and drain out via /quitquitquit.
# The paced source (20 kpps against a 20k-packet trace) keeps the replay
# alive for ~1s so the swap provably lands while shards are processing.
ctrl_dir="$PWD/build/ctrl-smoke"
rm -rf "$ctrl_dir"
mkdir -p "$ctrl_dir"
./build/tools/iustitia gen-corpus "$ctrl_dir/corpus" --files 8 --seed 7
./build/tools/iustitia train "$ctrl_dir/corpus" "$ctrl_dir/model.bundle" \
  --meta "v1 ci-smoke"
./build/tools/iustitia train "$ctrl_dir/corpus" "$ctrl_dir/model2.bundle" \
  --meta "v2 ci-smoke-retrained" --buffer 48
./build/tools/iustitia gen-trace "$ctrl_dir/trace.pcap" \
  --packets 20000 --seed 11
./build/tools/iustitia serve "$ctrl_dir/model.bundle" "$ctrl_dir/trace.pcap" \
  --shards 2 --burst 16 --backpressure block --pps 20000 \
  --port-file "$ctrl_dir/port" --json > "$ctrl_dir/serve.json" &
serve_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$ctrl_dir/port" ]] && break
  sleep 0.1
done
[[ -s "$ctrl_dir/port" ]] || {
  echo "ci.sh: serve never wrote its port file" >&2
  kill -9 "$serve_pid" 2>/dev/null || true
  exit 1
}
admin="http://127.0.0.1:$(cat "$ctrl_dir/port")"
curl -fsS "$admin/healthz" > /dev/null
curl -fsS "$admin/metrics" | grep -F 'iustitia_model_info{version="v1"} 1'
# Mid-replay hot swap; then a corrupt upload, which must change nothing.
curl -fsS -X POST --data-binary @"$ctrl_dir/model2.bundle" "$admin/model" \
  | grep -F '"version": "v2"'
head -c 200 "$ctrl_dir/model2.bundle" > "$ctrl_dir/corrupt.bundle"
if curl -fsS -X POST --data-binary @"$ctrl_dir/corrupt.bundle" \
    "$admin/model" 2>/dev/null; then
  echo "ci.sh: corrupt bundle was accepted" >&2
  exit 1
fi
curl -fsS "$admin/stats.json" > "$ctrl_dir/stats.json"
python3 - "$ctrl_dir/stats.json" <<'PYEOF'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["model_swaps"] == 1, snap["model_swaps"]
assert snap["model_version"] == "v2", snap["model_version"]
PYEOF
# Let the paced replay drain fully (serving mode lingers after the trace
# ends), so the final report covers every packet.
for _ in $(seq 1 300); do
  packets="$(curl -fsS "$admin/stats.json" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["packets_in"])')"
  [[ "$packets" == 20000 ]] && break
  sleep 0.1
done
[[ "$packets" == 20000 ]] || {
  echo "ci.sh: replay never drained (packets_in=$packets)" >&2
  kill -9 "$serve_pid"
  exit 1
}
curl -fsS -X POST "$admin/quitquitquit" | grep -F draining > /dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "ci.sh: serve did not exit after /quitquitquit" >&2
  kill -9 "$serve_pid"
  exit 1
fi
wait "$serve_pid"
# The blocking-backpressure replay must have swapped without loss.
python3 - "$ctrl_dir/serve.json" <<'PYEOF'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["model_swaps"] == 1, snap["model_swaps"]
assert snap["model_version"] == "v2", snap["model_version"]
assert snap["dropped"] == 0, snap["dropped"]
assert snap["packets_in"] == 20000, snap["packets_in"]
PYEOF

stage "chaos"
# Fault-injection soak against the real binaries (DESIGN.md §12): replay
# with armed failpoints on the source, ring, and CDB layers under both
# backpressure modes, then a serve-mode watchdog round-trip driven
# through POST /failpoints and observed via /readyz.
chaos_dir="$PWD/build/chaos"
rm -rf "$chaos_dir"
mkdir -p "$chaos_dir"
./build/tools/iustitia gen-corpus "$chaos_dir/corpus" --files 8 --seed 7
./build/tools/iustitia train "$chaos_dir/corpus" "$chaos_dir/model.bundle"
./build/tools/iustitia gen-trace "$chaos_dir/trace.pcap" \
  --packets 20000 --seed 13
chaos_spec='source.next=error(0.02);ring.push=delay(20us,0.01)'
chaos_spec+=';cdb.insert=alloc-fail(0.05)'
for mode in block drop; do
  IUSTITIA_FAILPOINTS="$chaos_spec" ./build/tools/iustitia replay \
    "$chaos_dir/model.bundle" "$chaos_dir/trace.pcap" \
    --shards 2 --burst 16 --backpressure "$mode" --cdb-max 64 --json \
    > "$chaos_dir/replay_$mode.json"
done
python3 - "$chaos_dir/replay_block.json" "$chaos_dir/replay_drop.json" \
    <<'PYEOF'
import json, sys
for path in sys.argv[1:]:
    snap = json.load(open(path))
    # Conservation: transient source errors are retried, never EOF; every
    # packet read is pushed or counted as dropped, and everything pushed
    # is popped.
    assert snap["packets_in"] == 20000, (path, snap["packets_in"])
    assert snap["pushed"] + snap["dropped"] == snap["packets_in"], path
    assert snap["popped"] == snap["pushed"], path
    assert snap["source_transient_errors"] > 0, path
    # Bounded memory: the per-shard ceiling held and refusals were
    # accounted.
    assert snap["cdb"]["ceiling"] == 64, path
    assert snap["cdb"]["records"] <= 2 * 64, path
    assert snap["cdb"]["insert_failures"] > 0, path
    assert snap["health"] == "ok", (path, snap["health"])
block = json.load(open(sys.argv[1]))
assert block["dropped"] == 0, block["dropped"]
PYEOF
# Watchdog readiness round-trip: pin the workers with worker.stall until
# /readyz reports 503 unhealthy(watchdog), disarm, and require recovery
# to 200 ok while the paced replay is still live.
./build/tools/iustitia serve "$chaos_dir/model.bundle" \
  "$chaos_dir/trace.pcap" --shards 2 --backpressure block --pps 500 \
  --watchdog-ms 500 --port-file "$chaos_dir/port" --json \
  > "$chaos_dir/serve.json" &
chaos_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$chaos_dir/port" ]] && break
  sleep 0.1
done
[[ -s "$chaos_dir/port" ]] || {
  echo "ci.sh: chaos serve never wrote its port file" >&2
  kill -9 "$chaos_pid" 2>/dev/null || true
  exit 1
}
chaos_admin="http://127.0.0.1:$(cat "$chaos_dir/port")"
curl -fsS "$chaos_admin/readyz" | grep -Fx ok
curl -fsS -X POST --data 'worker.stall=stall(2s)' \
  "$chaos_admin/failpoints" > /dev/null
# The stall latch flaps as each 2s sleep ends, so poll until one 503 is
# observed rather than demanding a steady state.
ready_code=0
for _ in $(seq 1 100); do
  ready_code="$(curl -s -o "$chaos_dir/readyz.txt" -w '%{http_code}' \
    "$chaos_admin/readyz")"
  [[ "$ready_code" == 503 ]] && break
  sleep 0.1
done
[[ "$ready_code" == 503 ]] || {
  echo "ci.sh: /readyz never reported the stalled worker" >&2
  kill -9 "$chaos_pid"
  exit 1
}
grep -F 'unhealthy(watchdog)' "$chaos_dir/readyz.txt"
curl -fsS -X POST --data 'off' "$chaos_admin/failpoints" > /dev/null
recovered=""
for _ in $(seq 1 100); do
  if curl -fsS "$chaos_admin/readyz" 2>/dev/null | grep -qFx ok; then
    recovered=yes
    break
  fi
  sleep 0.1
done
[[ -n "$recovered" ]] || {
  echo "ci.sh: /readyz never recovered after disarming the stall" >&2
  kill -9 "$chaos_pid"
  exit 1
}
curl -fsS -X POST "$chaos_admin/quitquitquit" > /dev/null
for _ in $(seq 1 100); do
  kill -0 "$chaos_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$chaos_pid" 2>/dev/null; then
  echo "ci.sh: chaos serve did not exit after /quitquitquit" >&2
  kill -9 "$chaos_pid"
  exit 1
fi
wait "$chaos_pid"

stage "flowbench-smoke"
# The repo benchmark's workloads (BENCHMARK.json) for 1 s each at seed 1,
# gated on correctness only: every replay drains egress with a live
# consumer thread while the workers run, and flowbench checks packet
# conservation, zero loss, and the event and forwarded counts against a
# direct drive of the same trace (flowbench/README.md).  The last stdout
# line is the run's JSON; no timing is gated here.
python3 - <<'PYEOF'
import json, subprocess, sys
spec = json.load(open("BENCHMARK.json"))
for workload in (w["name"] for w in spec["workloads"]):
    out = subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    assert result.get("correct") is True, (workload, out.returncode, result)
    assert result.get("failed") == 0, (workload, result)
    print(f"flowbench-smoke: {workload} correct, 0 failed "
          f"of {result['attempted']}")
PYEOF

stage "perf-smoke"
# Reduced-size run of the entropy-kernel microbench, gated on >30%
# regression against the checked-in baseline (speedup is the gated,
# machine-portable metric; see tools/perf_check.py).
IUSTITIA_KERNEL_MIN_MS=60 ./build/bench/bench_entropy_kernel \
  build/BENCH_entropy_kernel.json
python3 tools/perf_check.py build/BENCH_entropy_kernel.json \
  bench/baselines/entropy_kernel.json

# Serving-runtime bench at reduced trace size, same gating scheme (rows
# keyed by shard count via the baseline's key_fields).
IUSTITIA_TRACE_PACKETS=25000 ./build/bench/bench_runtime \
  build/BENCH_runtime.json
python3 tools/perf_check.py build/BENCH_runtime.json \
  bench/baselines/runtime.json

# End-to-end batched hot path: shards x burst sweep at reduced trace
# size.  The baseline's absolute pkts_per_sec floors encode the
# >=1.3x-over-the-pre-burst-runtime acceptance bar (the floor is 1.37x
# the measured pre-change throughput; see the baseline's comment), and
# speedup_vs_single guards each burst size against regressing below
# one-packet bursts (the burst=1 rows) on the same transport.
IUSTITIA_TRACE_PACKETS=25000 ./build/bench/bench_e2e_throughput \
  build/BENCH_e2e_throughput.json
python3 tools/perf_check.py build/BENCH_e2e_throughput.json \
  bench/baselines/e2e_throughput.json

# Engine-only miss lane: bench_throughput's churn row replays the repo
# benchmark's flow_churn trace shape through one engine, so new-flow
# setup and classification dominate (the traces above are gateway-shaped
# and mostly CDB hits).  The baseline's absolute floor is 1.3x the median
# of the engine before the flat flow table, measured on the baseline's
# host; see the baseline's comment for how thin that margin runs.
IUSTITIA_TRACE_PACKETS=400000 \
  ./build/bench/bench_throughput build/BENCH_throughput.json
python3 tools/perf_check.py build/BENCH_throughput.json \
  bench/baselines/throughput.json

echo "ci.sh: all presets green"
