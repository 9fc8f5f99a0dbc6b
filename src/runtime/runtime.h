// Online serving runtime: the full Fig. 1 deployment of the engine.
//
// Topology (DESIGN.md §10):
//
//   PacketSource ──▶ dispatcher thread ──▶ SPSC ring per shard
//                    (shard_of steering)        │
//                                               ▼ one pinned worker/shard
//                                        Iustitia shard (unlocked drive)
//                                               │
//                                               ▼ one lane per shard per class
//                                  per-nature OutputQueues + metrics
//
// One dispatcher thread pulls packets from the source and steers each to
// its flow's shard (ShardedIustitia::shard_of — same 5-tuple, same shard,
// so per-flow packet order is preserved).  Each shard has a bounded SPSC
// ring and exactly one worker thread that owns the shard for the whole
// run and drives it through the shard() accessor: the classic RSS
// deployment, no lock on the per-packet path.  Egress follows the same
// shape: the OutputQueues have one producer per shard, and each worker
// hands its forwarded packets to its own lanes (enqueue_burst with its
// shard index), so no two workers share a lock and the egress consumer
// never waits on one a worker holds.  The per-packet path
// is batched (RuntimeOptions::burst): the dispatcher reads a burst from
// the source, accumulates per-shard staging buffers, and flushes each
// as one ring burst; workers drain bursts into a local array — one
// head/tail acquire/release pair per burst instead of per packet.
// Staging is work-conserving: when the source has nothing more ready,
// a partial buffer is flushed at once if its worker is about to run
// dry, so a lone packet never waits for a burst to fill.  When a ring
// fills, the configured backpressure policy either blocks the
// dispatcher (lossless; the source feels the stall, exactly like a NIC
// asserting flow control) or counts the packet as dropped and moves on
// (lossy, line-rate).
//
// Lifecycle: construct → start(source) → wait() (source exhausted, rings
// drained, pending flows flushed) or stop() (early shutdown: dispatcher
// quits, workers drain what was already enqueued, then flush).  A
// Runtime is single-shot: start() may be called once; wait()/stop() are
// idempotent and safe from any thread and in any order after that.
#ifndef IUSTITIA_RUNTIME_RUNTIME_H_
#define IUSTITIA_RUNTIME_RUNTIME_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_registry.h"
#include "core/sharded_engine.h"
#include "runtime/metrics.h"
#include "runtime/overload.h"
#include "runtime/packet_source.h"
#include "runtime/spsc_ring.h"
#include "runtime/watchdog.h"
#include "util/thread_annotations.h"

namespace iustitia::runtime {

// What the dispatcher does when a shard's ring is full.
enum class BackpressurePolicy {
  kBlock,  // wait for the worker; nothing is lost, the source stalls
  kDrop,   // count the packet as dropped and keep up with the source
};

struct RuntimeOptions {
  std::size_t shards = 1;
  // Per-shard ring capacity in packets (rounded up to a power of two).
  std::size_t ring_capacity = 2048;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  // Packets moved per ring operation: the dispatcher stages up to this
  // many packets per shard and flushes them with one try_push_burst;
  // each worker drains up to this many with one try_pop_burst.  A
  // partial burst is flushed as soon as the source runs dry (see
  // dispatch_loop), so a larger burst costs no latency at low rates.
  // 1 moves one-packet bursts through the same path.  Values are
  // clamped to [1, ring_capacity].
  std::size_t burst = 32;
  // Per-nature output queue bound (packets; 0 = unbounded).
  std::size_t output_queue_capacity = 4096;
  // Record every Nth per-packet engine latency sample (1 = all packets,
  // 0 = none).  Each sample costs a clock pair and a histogram update.
  std::size_t latency_sample_every = 16;
  // Pin worker i to CPU (i mod hardware_concurrency).  Linux only; a
  // no-op elsewhere.  Off by default: pinning helps steady-state serving
  // but hurts on shared/oversubscribed hosts.
  bool pin_workers = false;
  // Overload shed ladder driven by ring-occupancy EWMA (see overload.h).
  OverloadOptions overload;
  // How many *consecutive* transient source failures (see
  // PacketSource::transient_error) the dispatcher retries — with the
  // ring-stall backoff ladder between attempts — before giving up and
  // treating the stream as drained.  Any successful read resets the run.
  std::size_t source_retry_limit = 64;
  // A worker (or the dispatcher) that makes no observable progress for
  // this long while work may still arrive is declared stalled: the
  // health check degrades to unhealthy(watchdog) until it moves again.
  // 0 disables the watchdog thread entirely.
  std::uint64_t watchdog_deadline_ms = 1000;
  // Debug escalation: CHECK-fail (abort) on the first detected stall
  // instead of just failing the health check.
  bool watchdog_fatal = false;
  core::EngineOptions engine;
};

// Liveness vs readiness: a running process is always *live*; it is
// *ready* only when it is keeping up.  kDegraded means the shed ladder
// is active (stage in RuntimeHealth::stage); kUnhealthy means the
// watchdog currently sees at least one stalled thread.
enum class HealthState {
  kOk,
  kDegraded,
  kUnhealthy,
};

struct RuntimeHealth {
  HealthState state = HealthState::kOk;
  ShedStage stage = ShedStage::kNormal;
  // Threads the watchdog considers stalled right now (0 when healthy or
  // when the watchdog is disabled).
  std::size_t stalled_threads = 0;
};

class Runtime {
 public:
  // Builds the sharded engine (one model per shard via the factory), the
  // rings, and the metrics registry.  No threads run until start().
  Runtime(const std::function<core::FlowNatureModel()>& model_factory,
          const RuntimeOptions& options);

  // Hot-swap form: every shard bootstraps from the registry's current
  // model and re-reads it at ring-burst boundaries (one relaxed epoch
  // load while unchanged — see core/model_registry.h).  The registry's
  // shard_count() must equal options.shards.  The control plane publishes
  // replacements into the same registry while packets flow.
  Runtime(std::shared_ptr<core::ModelRegistry> registry,
          const RuntimeOptions& options);
  ~Runtime();  // stops and joins if still running

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Spawns the shard workers and the dispatcher over `source`.  The
  // source must stay alive until wait()/stop() returns.  CHECK-fails on a
  // second call: a Runtime is single-shot.
  void start(PacketSource& source);

  // Blocks until the source is exhausted, every ring has drained, the
  // workers have exited, and pending flows are flushed.  Idempotent.
  void wait();

  // Early shutdown: the dispatcher stops reading the source (a packet it
  // is blocked on is counted as dropped), workers drain what was already
  // in their rings, then everything joins and pending flows are flushed.
  // Idempotent and safe from any thread, including while another thread
  // is inside wait().  Called before start(), it makes the eventual run
  // shut down as soon as it launches.
  void stop();

  // True between start() and the completion of wait()/stop().  The
  // threads may have finished their work already; "running" means "not
  // yet joined".
  bool running() const;

  core::ShardedIustitia& engine() noexcept { return engine_; }
  const core::ShardedIustitia& engine() const noexcept { return engine_; }

  // The registry this runtime reads models from; null when constructed
  // with the per-shard model factory (no hot-swap).
  core::ModelRegistry* model_registry() const noexcept {
    return registry_.get();
  }
  core::OutputQueues& output_queues() noexcept { return queues_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  // Convenience: metrics snapshot with the output-queue counters, the
  // registry's model identity (version + swap count), the overload /
  // health state, and the CDB occupancy totals folded in.  Safe from any
  // thread at any time.
  MetricsSnapshot snapshot() const;

  // Current readiness of the runtime: ok, degraded(<shed stage>), or
  // unhealthy(watchdog).  Safe from any thread at any time; after the
  // run ends (threads joined) it reports ok.
  RuntimeHealth health() const;
  // The /readyz wire format: "ok", "degraded(cap-buffer)",
  // "unhealthy(watchdog)", ...
  std::string health_string() const;

  const OverloadPolicy& overload() const noexcept { return overload_; }

  const RuntimeOptions& options() const noexcept { return options_; }

 private:
  // Clamps burst into [1, ring capacity] so staging buffers and ring
  // bursts always fit.
  static RuntimeOptions sanitize(RuntimeOptions options);

  // Delegation target of the registry ctor: `published` is ONE coherent
  // (model, epoch) snapshot, so the engines' bootstrap model and
  // bootstrap_epoch_ can never disagree even if a publish races
  // construction.
  Runtime(std::shared_ptr<core::ModelRegistry> registry,
          core::ModelRegistry::Published published,
          const RuntimeOptions& options);

  void build_rings();
  void dispatch_loop(PacketSource* source);
  void worker_loop(std::size_t shard);
  // Requires threads joined: classifies every still-pending flow and
  // folds the remaining per-nature classification counts into metrics.
  void finish_flush();
  void join_threads_locked() IUSTITIA_REQUIRES(lifecycle_mu_);

  const RuntimeOptions options_;
  // Hot-swap source (null without one).  Const pointer; the registry
  // object is internally synchronized (see core/model_registry.h).
  const std::shared_ptr<core::ModelRegistry> registry_;
  // Epoch of the model the engines were built with; each worker starts
  // its local epoch here.
  const std::uint64_t bootstrap_epoch_;
  core::ShardedIustitia engine_;
  core::OutputQueues queues_;
  MetricsRegistry metrics_;
  // Shed ladder, fed by the dispatcher (single writer) with per-flush
  // ring occupancy; workers and the control plane read the stage.
  OverloadPolicy overload_;
  // Stall detector over shards + dispatcher (heartbeat index `shards` is
  // the dispatcher).  Constructed with the runtime so health() can read
  // it from any thread; its watcher thread runs only between start() and
  // the joins in wait().
  std::unique_ptr<Watchdog> watchdog_;
  std::vector<std::unique_ptr<SpscRing<net::Packet>>> rings_;

  // Per-shard count of delay records already folded into
  // metrics (flows_by_nature).  Written only by the owning worker while
  // it runs, read by finish_flush() after join — ordered by thread join.
  std::vector<std::size_t> folded_delays_;  // analyze: escape(single-writer, read after join)

  // Only gates loop continuation; the data handoff rides on ring close()
  // and thread join, never on this flag.
  std::atomic<bool> stop_requested_{false};  // analyze: atomic(relaxed-flag)
  mutable util::Mutex lifecycle_mu_{"Runtime::lifecycle_mu_"};
  std::vector<std::thread> workers_ IUSTITIA_GUARDED_BY(lifecycle_mu_);
  std::thread dispatcher_ IUSTITIA_GUARDED_BY(lifecycle_mu_);
  bool started_ IUSTITIA_GUARDED_BY(lifecycle_mu_) = false;
  bool joined_ IUSTITIA_GUARDED_BY(lifecycle_mu_) = false;
};

}  // namespace iustitia::runtime

#endif  // IUSTITIA_RUNTIME_RUNTIME_H_
