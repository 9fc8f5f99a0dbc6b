#include "runtime/runtime.h"

#include <bit>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "util/check.h"
#include "util/failpoint.h"
#include "util/rt_guard.h"
#include "util/timer.h"

namespace iustitia::runtime {

namespace {

// Progressive wait for a full/empty ring: spin briefly (the peer is
// usually just a few instructions away), then yield (essential when
// producer and consumer share a core), then sleep so a long stall does
// not burn a CPU.
class Backoff {
 public:
  void pause() {
    // The hot loops reach this only when a ring stalls; the deliberate
    // yield/sleep ladder is the documented cold branch of that wait.
    // analyze: hotpath-allow(may-block)
    ++rounds_;
    if (rounds_ < 64) return;
    if (rounds_ < 128) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  void reset() noexcept { rounds_ = 0; }

 private:
  unsigned rounds_ = 0;
};

core::ModelRegistry::Published bootstrap_snapshot(
    const std::shared_ptr<core::ModelRegistry>& registry, std::size_t shards) {
  CHECK(registry != nullptr) << "hot-swap Runtime needs a registry";
  CHECK_EQ(registry->shard_count(), shards)
      << "registry reader slots must match runtime shards";
  return registry->current();
}

void pin_current_thread(std::size_t worker_index) {
#ifdef __linux__
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(worker_index % cpus, &set);
  // Best effort: a failed pin (cgroup mask, exotic topology) just means
  // the scheduler keeps choosing, which is the unpinned default anyway.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)worker_index;
#endif
}

}  // namespace

RuntimeOptions Runtime::sanitize(RuntimeOptions options) {
  const std::size_t ring_capacity =
      std::bit_ceil(options.ring_capacity < 2 ? std::size_t{2}
                                              : options.ring_capacity);
  if (options.burst < 1) options.burst = 1;
  if (options.burst > ring_capacity) options.burst = ring_capacity;
  return options;
}

Runtime::Runtime(const std::function<core::FlowNatureModel()>& model_factory,
                 const RuntimeOptions& options)
    : options_(sanitize(options)),
      registry_(nullptr),
      bootstrap_epoch_(0),
      engine_(model_factory, options.engine, options.shards),
      queues_(options.output_queue_capacity, options.shards),
      metrics_(options.shards),
      overload_(options_.overload, &metrics_),
      folded_delays_(options.shards, 0) {
  build_rings();
}

Runtime::Runtime(std::shared_ptr<core::ModelRegistry> registry,
                 const RuntimeOptions& options)
    : Runtime(registry, bootstrap_snapshot(registry, options.shards),
              options) {}

Runtime::Runtime(std::shared_ptr<core::ModelRegistry> registry,
                 core::ModelRegistry::Published published,
                 const RuntimeOptions& options)
    : options_(sanitize(options)),
      registry_(std::move(registry)),
      bootstrap_epoch_(published.epoch),
      engine_(std::move(published.model), options.engine, options.shards),
      queues_(options.output_queue_capacity, options.shards),
      metrics_(options.shards),
      overload_(options_.overload, &metrics_),
      folded_delays_(options.shards, 0) {
  build_rings();
}

void Runtime::build_rings() {
  rings_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    rings_.push_back(
        std::make_unique<SpscRing<net::Packet>>(options_.ring_capacity));
  }
  // One heartbeat slot per worker plus one for the dispatcher (index
  // `shards`).  Constructed here — with the runtime, not in start() — so
  // health() may consult it from any thread at any time; the watcher
  // thread itself only runs between start() and wait().
  WatchdogOptions wd;
  wd.deadline_ms = options_.watchdog_deadline_ms;
  wd.fatal = options_.watchdog_fatal;
  watchdog_ = std::make_unique<Watchdog>(options_.shards + 1, wd, &metrics_);
}

Runtime::~Runtime() { stop(); }

void Runtime::start(PacketSource& source) {
  util::MutexLock lock(lifecycle_mu_);
  CHECK(!started_) << "Runtime is single-shot; construct a new one";
  started_ = true;
  workers_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
  PacketSource* source_ptr = &source;
  dispatcher_ = std::thread([this, source_ptr] { dispatch_loop(source_ptr); });
  watchdog_->start_watching();
}

void Runtime::wait() {
  util::MutexLock lock(lifecycle_mu_);
  if (!started_ || joined_) return;
  join_threads_locked();
  watchdog_->stop_watching();
  joined_ = true;
  finish_flush();
}

void Runtime::stop() {
  // Set the flag before touching the lifecycle lock: a concurrent wait()
  // holds the lock while joining, and this store is what lets its joins
  // finish early.
  stop_requested_.store(true, std::memory_order_relaxed);
  wait();
}

MetricsSnapshot Runtime::snapshot() const {
  MetricsSnapshot snap = metrics_.snapshot(&queues_);
  if (registry_ != nullptr) {
    snap.model_version = registry_->current_version();
    snap.model_swaps = registry_->swap_count();
  }
  snap.overload_stage = static_cast<int>(overload_.stage());
  snap.health = health_string();
  snap.cdb_ceiling = options_.engine.cdb.max_records;
  for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
    // size() and stats() read the table's single-writer relaxed
    // counters: safe while the owning worker runs, and lock-free.
    const core::ClassificationDatabase& cdb = engine_.shard(s).cdb();
    const core::CdbStats stats = cdb.stats();
    snap.cdb_records += cdb.size();
    snap.cdb_forced_evictions += stats.forced_evictions;
    snap.cdb_insert_failures += stats.insert_failures;
  }
  return snap;
}

RuntimeHealth Runtime::health() const {
  RuntimeHealth h;
  h.stage = overload_.stage();
  if (watchdog_ != nullptr) h.stalled_threads = watchdog_->stalled_count();
  if (h.stalled_threads > 0) {
    h.state = HealthState::kUnhealthy;
  } else if (h.stage != ShedStage::kNormal) {
    h.state = HealthState::kDegraded;
  }
  return h;
}

std::string Runtime::health_string() const {
  const RuntimeHealth h = health();
  switch (h.state) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kDegraded:
      return std::string("degraded(") + shed_stage_name(h.stage) + ")";
    case HealthState::kUnhealthy:
      return "unhealthy(watchdog)";
  }
  return "ok";  // unreachable; placates -Wreturn-type
}

bool Runtime::running() const {
  util::MutexLock lock(lifecycle_mu_);
  return started_ && !joined_;
}

void Runtime::join_threads_locked() {
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

// Real-time contract: once packets flow, the dispatcher neither touches
// the heap nor takes a lock — payloads move by buffer handoff into the
// rings.  The only tolerated exceptions are documented AllowScopes.
//
// Read up to `burst` packets per source visit, steering each straight
// into its shard's staging buffer, and flush every buffer that fills as
// ONE ring burst — one head/tail acquire/release pair, one metrics
// update, and one backpressure decision per burst instead of per packet.
// A short read means the source has nothing more ready (the
// PacketSource::next_burst contract), so staging is work-conserving: a
// partial buffer is flushed at once when its worker is about to run dry.
// burst = 1 is the same loop with one-packet bursts.  Every buffer is
// allocated (and first-touched) before the guarded region; the hot loop
// itself only moves payloads.
// analyze: hotpath
void Runtime::dispatch_loop(PacketSource* source) {
  const std::size_t burst = options_.burst;
  const std::size_t shards = options_.shards;
  Backoff backoff;
  using StagingBuffer = std::vector<net::Packet>;
  // Setup runs before the GuardRegion below; the alias's constructor call
  // is opaque to the analyzer but it is just vector pre-sizing.
  std::vector<StagingBuffer> staging(shards, StagingBuffer(burst));  // analyze: hotpath-allow(unresolved-call)
  std::vector<std::size_t> staged(shards, 0);

  // Flushes shard s's staged packets.  A nearly-full ring may take the
  // burst in pieces; the configured backpressure policy applies to any
  // remainder (drop: count + retire, block: wait for the worker, with a
  // stop() request downgrading to drop so shutdown cannot deadlock).
  const auto flush_shard = [&](std::size_t s) {
    const std::size_t count = staged[s];
    if (count == 0) return;
    staged[s] = 0;
    SpscRing<net::Packet>& ring = *rings_[s];
    net::Packet* packets = staging[s].data();
    metrics_.on_dispatch_flush(s);
    // Fault injection: an armed delay/stall on ring.push perturbs the
    // handoff timing (the sleep happens inside the armed slow path).
    (void)FAILPOINT("ring.push");
    std::size_t at = 0;
    backoff.reset();
    for (;;) {
      const std::size_t pushed = ring.try_push_burst(
          std::span<net::Packet>(packets + at, count - at));
      if (pushed != 0) {
        metrics_.on_push_burst(s, pushed, ring.size_approx());
        overload_.observe_occupancy(ring.size_approx(), ring.capacity());
        at += pushed;
        if (at == count) return;
        backoff.reset();
      }
      // Shed stage 3 turns lossless backpressure into drops: keeping up
      // with the source beats completeness once the EWMA says the
      // workers cannot drain what we enqueue.
      if (options_.backpressure == BackpressurePolicy::kDrop ||
          overload_.stage() == ShedStage::kDrop ||
          stop_requested_.load(std::memory_order_relaxed)) {
        metrics_.on_drop_burst(s, count - at);
        overload_.observe_occupancy(ring.size_approx(), ring.capacity());
        {
          // Retire the refused payloads here, not at the next staging
          // reuse where the move-assign would free them mid-guard.
          util::rt::AllowScope allow(util::rt::kAlloc);  // analyze: hotpath-allow(may-allocate, unresolved-call)
          for (std::size_t i = at; i < count; ++i) {
            packets[i] = net::Packet();
          }
        }
        return;
      }
      // Intentionally waiting on the worker, not stalled.
      watchdog_->heartbeat(options_.shards);
      backoff.pause();
    }
  };

  // Arrival buffer for the batched source read, allocated (and
  // first-touched) before the guarded region like the staging buffers.
  std::vector<net::Packet> arrivals(burst);
  const std::span<net::Packet> arrival_window(arrivals.data(), burst);

  const std::size_t dispatcher_beat = options_.shards;
  Backoff source_backoff;
  std::size_t transient_failures = 0;
  {
    util::rt::GuardRegion guard;
    while (!stop_requested_.load(std::memory_order_relaxed)) {
      watchdog_->heartbeat(dispatcher_beat);
      std::size_t read = 0;
      {
        // Source refill sits upstream of the hot handoff: replay files
        // and generators may read, allocate payload, or block on I/O.
        // One AllowScope and ONE virtual call cover the whole burst
        // (PacketSource::next_burst), not one of each per packet.
        util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block, may-throw, unresolved-call)
        read = source->next_burst(arrival_window);
      }
      if (read != 0) {
        transient_failures = 0;
        source_backoff.reset();
        metrics_.on_source_packets(read);
      }
      // Steer each arrival to its shard's staging buffer; a buffer
      // reaching `burst` flushes immediately as one ring burst.
      for (std::size_t i = 0; i < read; ++i) {
        const std::size_t s = engine_.shard_of(arrivals[i].key);
        staging[s][staged[s]] = std::move(arrivals[i]);
        if (++staged[s] == burst) flush_shard(s);
      }
      if (read < burst) {
        // Nothing more is ready (a short read, including 0 on a transient
        // error, before any backoff): flush each partial buffer whose
        // worker would run dry within one pop.  A worker with a full
        // burst still queued keeps its shard staging toward a full one.
        for (std::size_t s = 0; s < shards; ++s) {
          if (staged[s] != 0 && rings_[s]->size_approx() < burst) {
            flush_shard(s);
          }
        }
      }
      if (read == 0) {
        // A transient failure (injected or a real I/O hiccup) is retried
        // with the stall backoff ladder up to the configured limit of
        // *consecutive* failures; end-of-stream breaks out.
        if (source->transient_error()) {  // analyze: hotpath-allow(unresolved-call)
          metrics_.on_source_transient_error();
          if (transient_failures < options_.source_retry_limit) {
            ++transient_failures;
            source_backoff.pause();
            continue;
          }
          metrics_.on_source_retries_exhausted();
        }
        break;
      }
    }
    // Hand anything still staged to the rings (or, refused, to the drop
    // counter) before the poison pill: these packets were already
    // consumed from the source and must stay accounted for.
    for (std::size_t s = 0; s < shards; ++s) flush_shard(s);
  }
  // Poison pill: every worker terminates once its ring is closed *and*
  // drained, whether we got here by source exhaustion or by stop().
  for (auto& ring : rings_) ring->close();
  // No more enqueues: the shed ladder steps back to normal (counting the
  // stage exits) and the dispatcher's heartbeat slot retires so the
  // watchdog stops expecting progress from it.
  overload_.reset();
  watchdog_->retire(options_.shards);
}

// Real-time contract: the steady-state worker path is the engine's
// CDB-hit fast lane — no heap, no locks, no throws.  Unknown-flow setup
// and the output handoff are the documented cold branches (see the
// AllowScopes in core/engine.cc and core/output_queues.cc).
// analyze: hotpath
void Runtime::worker_loop(std::size_t shard) {
  if (options_.pin_workers) {
    // Once-per-thread startup cost, ahead of the guarded loop.
    // analyze: hotpath-allow(unresolved-call)
    pin_current_thread(shard);
  }

  // Single-owner drive for the whole run: this thread is the only one
  // touching the shard until the dispatcher's close() and our exit, which
  // the post-join finish_flush() ordering respects.
  core::Iustitia& eng = engine_.shard(shard);
  SpscRing<net::Packet>& ring = *rings_[shard];
  const std::size_t sample_every = options_.latency_sample_every;
  std::size_t folded = 0;
  std::uint64_t processed = 0;

  // RCU reader state (null registry = no hot-swap; one branch per burst).
  core::ModelRegistry* const registry = registry_.get();
  std::uint64_t model_epoch = bootstrap_epoch_;
  if (registry != nullptr) {
    // Pre-loop registration (cold, takes the registry mutex): this shard
    // runs the bootstrap model, which opens reclamation accounting.
    // analyze: hotpath-allow(may-block, may-throw, unresolved-call)
    registry->report_crossed(shard, model_epoch);
  }

  // Burst-boundary model check: one relaxed load while the epoch is
  // unchanged; on a publish, the cold branch takes the registry mutex
  // once, installs the new model (shared_ptr copy + extractor rebuild),
  // and reports the crossing so the old model's grace period can close.
  const auto maybe_swap = [&] {
    if (registry == nullptr ||
        registry->epoch_hint() == model_epoch) {
      return;
    }
    util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block, may-throw, unresolved-call)
    core::ModelRegistry::Published next = registry->current();
    model_epoch = next.epoch;
    eng.install_model(std::move(next.model));
    registry->report_crossed(shard, model_epoch);
  };

  // Applies the dispatcher-published shed stage to this shard's engine.
  // Stage 1 caps the per-flow classification buffer (the paper's c≈1 at
  // b=32 configuration: cheaper, slightly less certain); stage 2
  // additionally admits only a sampled fraction of brand-new flows.
  // Plain stores are fine: this thread owns the engine.
  ShedStage applied_stage = ShedStage::kNormal;
  const auto apply_stage = [&] {
    const ShedStage stage = overload_.stage();
    if (stage == applied_stage) return;
    applied_stage = stage;
    eng.set_buffer_cap(static_cast<int>(stage) >=
                               static_cast<int>(ShedStage::kCapBuffer)
                           ? options_.overload.degraded_buffer_bytes
                           : 0);
    eng.set_admission_permille(static_cast<int>(stage) >=
                                       static_cast<int>(
                                           ShedStage::kSampleAdmission)
                                   ? options_.overload.admission_permille
                                   : 1000);
  };

  Backoff backoff;
  const std::size_t burst = options_.burst;
  // Local drain + output buffers, allocated (and first-touched) before
  // the guarded loop.
  std::vector<net::Packet> batch(burst);
  const std::span<net::Packet> window(batch.data(), burst);
  std::vector<core::QueuedPacket> outbox(burst);

  // Classify the whole batch first, staging forwarded packets into
  // `outbox`, then cross to this shard's output lanes ONCE — one
  // enqueue_burst, one allow scope, and one batched payload retirement
  // per burst instead of per packet.
  const auto process_burst = [&](std::span<net::Packet> packets) {
    std::size_t out_n = 0;
    for (net::Packet& packet : packets) {
      ++processed;
      datagen::FileClass label = datagen::FileClass::kText;
      core::PacketAction action;
      if (sample_every != 0 && processed % sample_every == 0) {
        const util::Stopwatch watch;
        action = eng.on_packet(packet, &label);
        metrics_.record_engine_latency(shard, watch.elapsed_micros());
      } else {
        action = eng.on_packet(packet, &label);
      }
      // Fold classifications as they happen (including flush_idle
      // batches) so a live snapshot() sees per-nature counts move in
      // real time.
      const auto& delays = eng.delays();
      for (; folded < delays.size(); ++folded) {
        metrics_.on_classified(shard, delays[folded].label);
      }
      if (action == core::PacketAction::kShed) metrics_.on_packets_shed(1);
      if (action == core::PacketAction::kForwarded ||
          action == core::PacketAction::kClassifiedNow) {
        outbox[out_n].label = label;
        outbox[out_n].packet = std::move(packet);
        ++out_n;
      }
      // Buffered/dropped packets keep their payloads; they are retired
      // in the batched scope below, before the slots are reused.
    }
    {
      // One output crossing per burst: this shard's producer lock, any
      // lane chunk allocation, and every payload retirement (refused
      // enqueues and buffered packets alike) under a single documented
      // scope.
      util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block, unresolved-call)
      queues_.enqueue_burst(
          std::span<core::QueuedPacket>(outbox.data(), out_n), shard);
      for (std::size_t j = 0; j < out_n; ++j) {
        outbox[j].packet = net::Packet();
      }
      for (net::Packet& packet : packets) packet = net::Packet();
    }
  };
  {
    util::rt::GuardRegion guard;
    for (;;) {
      watchdog_->heartbeat(shard);
      maybe_swap();
      apply_stage();
      // Fault injection: an armed stall here freezes this worker long
      // enough for the watchdog to notice (the sleep happens inside the
      // armed slow path).
      (void)FAILPOINT("worker.stall");
      std::size_t n = ring.try_pop_burst(window);
      if (n != 0) {
        backoff.reset();
        metrics_.on_pop_burst(shard, n);
        process_burst(window.first(n));
        continue;
      }
      if (ring.closed()) {
        // Post-close drain uses bursts too, so shutdown costs
        // O(occupancy / burst) ring operations, not O(occupancy) — and
        // the same definitive-pass protocol applies: a zero-size burst
        // after the flag was seen proves exhaustion.
        while ((n = ring.try_pop_burst(window)) != 0) {
          metrics_.on_pop_burst(shard, n);
          process_burst(window.first(n));
        }
        break;
      }
      backoff.pause();
    }
  }
  // Done draining: this heartbeat slot retires so the watchdog stops
  // expecting progress from a worker that has legitimately finished.
  watchdog_->retire(shard);
  folded_delays_[shard] = folded;
}

void Runtime::finish_flush() {
  for (std::size_t s = 0; s < engine_.shard_count(); ++s) {
    core::Iustitia& eng = engine_.shard(s);
    eng.flush_all();
    const auto& delays = eng.delays();
    for (std::size_t i = folded_delays_[s]; i < delays.size(); ++i) {
      metrics_.on_classified(s, delays[i].label);
    }
    folded_delays_[s] = delays.size();
  }
}

}  // namespace iustitia::runtime
