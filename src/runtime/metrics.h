// Live metrics for the online serving runtime.
//
// Every mutator is a relaxed atomic add on the hot path — no locks, no
// fences beyond the counter itself, safe to call from the dispatcher and
// every shard worker concurrently.  Per-shard counters sit on cache
// lines owned by the one thread that writes them (the dispatcher for a
// ring's push side, the shard's worker for its pops, classifications
// and latency samples).  snapshot() reads the same atomics from any
// thread, sums the per-shard ones, and returns a plain-value
// MetricsSnapshot that renders as a human text report or
// machine-readable JSON.  Relaxed ordering
// means a snapshot taken mid-run can be momentarily inconsistent across
// counters (e.g. a push counted whose pop is in flight); totals are exact
// once the runtime has drained.
//
// Inventory (see DESIGN.md §10): packets in from the source; per-ring
// pushed/popped/dropped and ring high-water mark; per-ring dispatch
// flush count and a fixed-bucket histogram of burst sizes (how many
// packets each ring operation actually moved — the observable batching
// efficiency of the burst protocol); flows classified per nature; a
// fixed-bucket histogram of per-packet engine latency; plus the
// per-nature OutputQueues counters folded in at snapshot time.
#ifndef IUSTITIA_RUNTIME_METRICS_H_
#define IUSTITIA_RUNTIME_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/output_queues.h"
#include "runtime/spsc_ring.h"

namespace iustitia::runtime {

// Fixed-bucket latency histogram: bucket i counts samples in
// [2^(i-1), 2^i) microseconds (bucket 0 is < 1us, the last bucket is
// open-ended).  Fixed buckets keep record() allocation-free and
// wait-free, which is what lets a worker call it per packet.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBucketCount = 20;

  void record(double micros) noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kBucketCount> counts{};
    std::uint64_t total = 0;
    double sum_micros = 0.0;

    double mean_micros() const noexcept;
    // Upper bucket edge containing quantile q in [0, 1] (0 with no data).
    double quantile_upper_micros(double q) const noexcept;
    // Adds another histogram's samples (per-shard histograms sum into one).
    void merge(const Snapshot& other) noexcept;
  };

  Snapshot snapshot() const;

  // Inclusive lower edge of bucket i in microseconds.
  static double bucket_floor_micros(std::size_t i) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> counts_{};  // analyze: atomic(relaxed-counter)
  std::atomic<std::uint64_t> sum_nanos_{0};  // analyze: atomic(relaxed-counter)
};

// Burst-size histogram geometry, shared by the registry and its
// snapshot: bucket i counts bursts of [2^i, 2^(i+1)) packets (bucket 0
// is exactly 1, the last bucket is open-ended), so 13 buckets cover
// every burst a 4096-slot staging buffer can produce.
inline constexpr std::size_t kBurstBucketCount = 13;

// Shed-stage count for the overload ladder (runtime/overload.h):
// normal, cap-buffer, sample-admission, drop.  Lives here so the
// counter arrays and the policy agree without metrics depending on the
// policy header.
inline constexpr std::size_t kShedStageCount = 4;

// Plain-value copy of every runtime counter, safe to pass around after
// the registry (or the whole runtime) is gone.
struct MetricsSnapshot {
  struct Ring {
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::uint64_t dropped = 0;
    std::size_t high_water = 0;
    // Staging-buffer flushes the dispatcher performed for this ring and
    // the sizes of the bursts its push operations actually moved.
    std::uint64_t flushes = 0;
    std::array<std::uint64_t, kBurstBucketCount> burst_counts{};

    // Mean packets per successful burst push (0 with no burst pushes).
    double mean_burst() const noexcept;
  };

  std::size_t shards = 0;
  // Seconds since the MetricsRegistry was constructed (monotonic clock),
  // i.e. runtime age — what an operator reads off /metrics as uptime.
  double uptime_seconds = 0.0;
  // Operator-facing model identity: the version string of the currently
  // installed model and how many hot-swaps have been published since
  // start ("unversioned"/0 for a runtime without a registry).
  std::string model_version = "unversioned";
  std::uint64_t model_swaps = 0;
  std::uint64_t packets_in = 0;
  std::vector<Ring> rings;
  std::array<std::uint64_t, 3> flows_by_nature{};
  LatencyHistogram::Snapshot engine_latency;
  bool has_queue_stats = false;
  core::OutputQueueStats queue_stats;

  // Overload/resilience inventory (DESIGN.md §12).  Stage counters come
  // from the registry; overload_stage, health, and the cdb_* occupancy
  // figures are folded in by Runtime::snapshot() (defaults stand for a
  // bare registry, e.g. in unit tests).
  int overload_stage = 0;  // 0=normal .. 3=drop, current shed stage
  std::string health = "ok";  // "ok" | "degraded(<stage>)" | "unhealthy(watchdog)"
  std::array<std::uint64_t, kShedStageCount> stage_entries{};
  std::array<std::uint64_t, kShedStageCount> stage_exits{};
  std::uint64_t packets_shed = 0;             // admission-sampled away
  std::uint64_t source_transient_errors = 0;  // retried source failures
  std::uint64_t source_retries_exhausted = 0;
  std::uint64_t watchdog_stalls = 0;  // stall detections (not currently-stalled)
  std::uint64_t cdb_records = 0;      // resident records across shards
  std::uint64_t cdb_ceiling = 0;      // per-shard hard ceiling (0 = unbounded)
  std::uint64_t cdb_forced_evictions = 0;
  std::uint64_t cdb_insert_failures = 0;

  std::uint64_t total_pushed() const noexcept;
  std::uint64_t total_popped() const noexcept;
  std::uint64_t total_dropped() const noexcept;
  std::uint64_t total_flushes() const noexcept;

  // Multi-line human report (tables of the inventory above).
  std::string text_report() const;
  // Machine-readable JSON document of the same values.
  std::string json() const;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t shards);

  std::size_t shard_count() const noexcept { return shards_; }

  // Dispatcher side: each mutator folds a whole burst into one relaxed
  // add per counter, and on_push_burst records the burst size in the
  // per-shard histogram.  on_dispatch_flush counts one staging-buffer
  // flush (a flush may take several burst pushes when the ring is nearly
  // full).
  void on_source_packets(std::uint64_t n) noexcept;
  void on_push_burst(std::size_t shard, std::size_t n,
                     std::size_t depth_after) noexcept;
  void on_drop_burst(std::size_t shard, std::size_t n) noexcept;
  void on_dispatch_flush(std::size_t shard) noexcept;

  // Worker side: `shard` is the calling worker's own shard (or any
  // shard once the workers have joined).
  void on_pop_burst(std::size_t shard, std::size_t n) noexcept;
  void on_classified(std::size_t shard, datagen::FileClass nature) noexcept;
  void record_engine_latency(std::size_t shard, double micros) noexcept;
  void on_packets_shed(std::uint64_t n) noexcept;

  // Overload/resilience side: the dispatcher-owned OverloadPolicy
  // reports stage transitions, the dispatcher reports source retry
  // outcomes, and the watchdog reports stall detections.  All relaxed
  // adds, same contract as the packet counters.
  void on_stage_entered(std::size_t stage) noexcept;
  void on_stage_exited(std::size_t stage) noexcept;
  void on_source_transient_error() noexcept;
  void on_source_retries_exhausted() noexcept;
  void on_watchdog_stall() noexcept;

  // Any thread.  Pass the runtime's OutputQueues to fold its per-nature
  // counters into the snapshot.
  MetricsSnapshot snapshot(const core::OutputQueues* queues = nullptr) const;

 private:
  // A ring's dispatcher-written counters get their own cache lines...
  struct alignas(kCacheLineBytes) RingCounters {
    std::atomic<std::uint64_t> pushed{0};      // analyze: atomic(relaxed-counter)
    std::atomic<std::uint64_t> dropped{0};     // analyze: atomic(relaxed-counter)
    std::atomic<std::size_t> high_water{0};    // analyze: atomic(relaxed-counter)
    std::atomic<std::uint64_t> flushes{0};     // analyze: atomic(relaxed-counter)
    std::array<std::atomic<std::uint64_t>, kBurstBucketCount> bursts{};  // analyze: atomic(relaxed-counter)
  };
  // ...and so do its worker's, so shard workers never write-share a line
  // with the dispatcher or with each other.
  struct alignas(kCacheLineBytes) WorkerCounters {
    std::atomic<std::uint64_t> popped{0};  // analyze: atomic(relaxed-counter)
    std::array<std::atomic<std::uint64_t>, 3> flows_by_nature{};  // analyze: atomic(relaxed-counter)
    LatencyHistogram engine_latency;
  };

  const std::size_t shards_;
  // Construction instant; snapshot() derives uptime_seconds from it.
  // Never written after the ctor, so reads need no synchronization.
  const std::chrono::steady_clock::time_point created_;
  std::unique_ptr<RingCounters[]> rings_;
  std::unique_ptr<WorkerCounters[]> workers_;
  std::atomic<std::uint64_t> packets_in_{0};  // analyze: atomic(relaxed-counter)
  std::array<std::atomic<std::uint64_t>, kShedStageCount> stage_entries_{};  // analyze: atomic(relaxed-counter)
  std::array<std::atomic<std::uint64_t>, kShedStageCount> stage_exits_{};  // analyze: atomic(relaxed-counter)
  std::atomic<std::uint64_t> packets_shed_{0};  // analyze: atomic(relaxed-counter)
  std::atomic<std::uint64_t> source_transient_errors_{0};  // analyze: atomic(relaxed-counter)
  std::atomic<std::uint64_t> source_retries_exhausted_{0};  // analyze: atomic(relaxed-counter)
  std::atomic<std::uint64_t> watchdog_stalls_{0};  // analyze: atomic(relaxed-counter)
};

}  // namespace iustitia::runtime

#endif  // IUSTITIA_RUNTIME_METRICS_H_
