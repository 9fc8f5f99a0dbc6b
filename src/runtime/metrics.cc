#include "runtime/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iomanip>
#include <sstream>

#include "util/check.h"
#include "util/table.h"

namespace iustitia::runtime {

namespace {

constexpr const char* kNatureNames[3] = {"text", "binary", "encrypted"};

// Burst-size histogram bucket for a burst of n >= 1 packets: bucket i
// holds [2^i, 2^(i+1)), the last bucket is open-ended.
std::size_t burst_bucket(std::size_t n) noexcept {
  const auto width = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(n)));
  return std::min<std::size_t>(width == 0 ? 0 : width - 1,
                               kBurstBucketCount - 1);
}

std::string fmt_micros(double micros) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << micros << "us";
  return out.str();
}

// Minimal JSON string escaping: the model version is operator-supplied
// (bundle metadata), so quotes/backslashes/control bytes must not break
// the document.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

// Sampled on the worker's packet path: bucket index + two relaxed adds.
// analyze: hotpath
void LatencyHistogram::record(double micros) noexcept {
  const std::uint64_t whole =
      micros <= 0.0 ? 0 : static_cast<std::uint64_t>(micros);
  const std::size_t bucket = std::min<std::size_t>(
      static_cast<std::size_t>(std::bit_width(whole)), kBucketCount - 1);
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  const auto nanos =
      micros <= 0.0 ? std::uint64_t{0}
                    : static_cast<std::uint64_t>(micros * 1e3);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot snap;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snap.total += snap.counts[i];
  }
  snap.sum_micros =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-3;
  return snap;
}

double LatencyHistogram::bucket_floor_micros(std::size_t i) noexcept {
  return i == 0 ? 0.0
               : static_cast<double>(std::uint64_t{1} << (i - 1));
}

void LatencyHistogram::Snapshot::merge(const Snapshot& other) noexcept {
  for (std::size_t i = 0; i < kBucketCount; ++i) counts[i] += other.counts[i];
  total += other.total;
  sum_micros += other.sum_micros;
}

double LatencyHistogram::Snapshot::mean_micros() const noexcept {
  return total == 0 ? 0.0 : sum_micros / static_cast<double>(total);
}

double LatencyHistogram::Snapshot::quantile_upper_micros(
    double q) const noexcept {
  if (total == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      clamped * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += counts[i];
    if (seen > rank) {
      // Upper edge of bucket i (== floor of bucket i + 1).
      return bucket_floor_micros(i + 1);
    }
  }
  return bucket_floor_micros(kBucketCount);
}

MetricsRegistry::MetricsRegistry(std::size_t shards)
    : shards_(shards),
      created_(std::chrono::steady_clock::now()),
      rings_(std::make_unique<RingCounters[]>(shards)),
      workers_(std::make_unique<WorkerCounters[]>(shards)) {
  CHECK_GT(shards, std::size_t{0}) << "metrics need at least one ring";
}

// The on_* counters below run inside the guarded loops: relaxed atomics
// only, no heap, no locks.  Each folds a whole burst into one relaxed
// add per counter — called once per ring operation instead of once per
// packet, they are what keeps metrics cost amortized on the fast path.
// analyze: hotpath
void MetricsRegistry::on_source_packets(std::uint64_t n) noexcept {
  packets_in_.fetch_add(n, std::memory_order_relaxed);
}

// analyze: hotpath
void MetricsRegistry::on_push_burst(std::size_t shard, std::size_t n,
                                    std::size_t depth_after) noexcept {
  DCHECK_LT(shard, shards_);
  if (n == 0) return;
  RingCounters& ring = rings_[shard];
  ring.pushed.fetch_add(n, std::memory_order_relaxed);
  ring.bursts[burst_bucket(n)].fetch_add(1, std::memory_order_relaxed);
  // Only the dispatcher writes high_water, so a read-then-store is safe.
  if (depth_after > ring.high_water.load(std::memory_order_relaxed)) {
    ring.high_water.store(depth_after, std::memory_order_relaxed);
  }
}

// analyze: hotpath
void MetricsRegistry::on_drop_burst(std::size_t shard,
                                    std::size_t n) noexcept {
  DCHECK_LT(shard, shards_);
  rings_[shard].dropped.fetch_add(n, std::memory_order_relaxed);
}

// analyze: hotpath
void MetricsRegistry::on_dispatch_flush(std::size_t shard) noexcept {
  DCHECK_LT(shard, shards_);
  rings_[shard].flushes.fetch_add(1, std::memory_order_relaxed);
}

// analyze: hotpath
void MetricsRegistry::on_pop_burst(std::size_t shard,
                                   std::size_t n) noexcept {
  DCHECK_LT(shard, shards_);
  workers_[shard].popped.fetch_add(n, std::memory_order_relaxed);
}

// analyze: hotpath
void MetricsRegistry::on_classified(std::size_t shard,
                                    datagen::FileClass nature) noexcept {
  DCHECK_LT(shard, shards_);
  const auto index = static_cast<std::size_t>(nature);
  DCHECK_LT(index, std::size_t{3});
  workers_[shard].flows_by_nature[index].fetch_add(1,
                                                   std::memory_order_relaxed);
}

// analyze: hotpath
void MetricsRegistry::record_engine_latency(std::size_t shard,
                                            double micros) noexcept {
  DCHECK_LT(shard, shards_);
  workers_[shard].engine_latency.record(micros);
}

// analyze: hotpath
void MetricsRegistry::on_packets_shed(std::uint64_t n) noexcept {
  packets_shed_.fetch_add(n, std::memory_order_relaxed);
}

// The resilience counters run off the packet path (stage transitions,
// retry outcomes, watchdog detections) but keep the same relaxed-add
// contract so they are safe from any thread.
void MetricsRegistry::on_stage_entered(std::size_t stage) noexcept {
  DCHECK_LT(stage, kShedStageCount);
  stage_entries_[stage].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::on_stage_exited(std::size_t stage) noexcept {
  DCHECK_LT(stage, kShedStageCount);
  stage_exits_[stage].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::on_source_transient_error() noexcept {
  source_transient_errors_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::on_source_retries_exhausted() noexcept {
  source_retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::on_watchdog_stall() noexcept {
  watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot(
    const core::OutputQueues* queues) const {
  MetricsSnapshot snap;
  snap.shards = shards_;
  snap.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    created_)
          .count();
  snap.packets_in = packets_in_.load(std::memory_order_relaxed);
  snap.rings.resize(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    snap.rings[s].pushed = rings_[s].pushed.load(std::memory_order_relaxed);
    snap.rings[s].popped =
        workers_[s].popped.load(std::memory_order_relaxed);
    snap.rings[s].dropped = rings_[s].dropped.load(std::memory_order_relaxed);
    snap.rings[s].high_water =
        rings_[s].high_water.load(std::memory_order_relaxed);
    snap.rings[s].flushes = rings_[s].flushes.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kBurstBucketCount; ++b) {
      snap.rings[s].burst_counts[b] =
          rings_[s].bursts[b].load(std::memory_order_relaxed);
    }
    for (std::size_t c = 0; c < snap.flows_by_nature.size(); ++c) {
      snap.flows_by_nature[c] +=
          workers_[s].flows_by_nature[c].load(std::memory_order_relaxed);
    }
    snap.engine_latency.merge(workers_[s].engine_latency.snapshot());
  }
  for (std::size_t i = 0; i < kShedStageCount; ++i) {
    snap.stage_entries[i] = stage_entries_[i].load(std::memory_order_relaxed);
    snap.stage_exits[i] = stage_exits_[i].load(std::memory_order_relaxed);
  }
  snap.packets_shed = packets_shed_.load(std::memory_order_relaxed);
  snap.source_transient_errors =
      source_transient_errors_.load(std::memory_order_relaxed);
  snap.source_retries_exhausted =
      source_retries_exhausted_.load(std::memory_order_relaxed);
  snap.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  if (queues != nullptr) {
    snap.has_queue_stats = true;
    snap.queue_stats = queues->stats();
  }
  return snap;
}

std::uint64_t MetricsSnapshot::total_pushed() const noexcept {
  std::uint64_t total = 0;
  for (const Ring& ring : rings) total += ring.pushed;
  return total;
}

std::uint64_t MetricsSnapshot::total_popped() const noexcept {
  std::uint64_t total = 0;
  for (const Ring& ring : rings) total += ring.popped;
  return total;
}

std::uint64_t MetricsSnapshot::total_dropped() const noexcept {
  std::uint64_t total = 0;
  for (const Ring& ring : rings) total += ring.dropped;
  return total;
}

std::uint64_t MetricsSnapshot::total_flushes() const noexcept {
  std::uint64_t total = 0;
  for (const Ring& ring : rings) total += ring.flushes;
  return total;
}

double MetricsSnapshot::Ring::mean_burst() const noexcept {
  std::uint64_t bursts = 0;
  for (const std::uint64_t n : burst_counts) bursts += n;
  return bursts == 0 ? 0.0
                     : static_cast<double>(pushed) /
                           static_cast<double>(bursts);
}

std::string MetricsSnapshot::text_report() const {
  std::ostringstream out;
  out << "runtime metrics\n"
      << "  uptime: " << util::fmt(uptime_seconds, 1)
      << "s  model: " << model_version << "  swaps: " << model_swaps << "\n"
      << "  packets in: " << packets_in << "  pushed: " << total_pushed()
      << "  popped: " << total_popped() << "  dropped: " << total_dropped()
      << "\n";

  util::Table rings_table({"ring", "pushed", "popped", "dropped",
                           "high water", "flushes", "mean burst"});
  for (std::size_t s = 0; s < rings.size(); ++s) {
    rings_table.add_row({std::to_string(s), std::to_string(rings[s].pushed),
                         std::to_string(rings[s].popped),
                         std::to_string(rings[s].dropped),
                         std::to_string(rings[s].high_water),
                         std::to_string(rings[s].flushes),
                         rings[s].flushes == 0
                             ? std::string("-")
                             : util::fmt(rings[s].mean_burst(), 1)});
  }
  rings_table.render(out);

  util::Table natures({"nature", "flows classified", "queue enq",
                       "queue drop", "queue depth", "queue high water"});
  for (std::size_t c = 0; c < flows_by_nature.size(); ++c) {
    natures.add_row(
        {kNatureNames[c], std::to_string(flows_by_nature[c]),
         has_queue_stats ? std::to_string(queue_stats.enqueued[c]) : "-",
         has_queue_stats ? std::to_string(queue_stats.dropped[c]) : "-",
         has_queue_stats ? std::to_string(queue_stats.depth[c]) : "-",
         has_queue_stats ? std::to_string(queue_stats.high_water[c]) : "-"});
  }
  natures.render(out);

  out << "  health: " << health << "  shed stage: " << overload_stage
      << "  shed: " << packets_shed
      << "  source errors: " << source_transient_errors
      << "  watchdog stalls: " << watchdog_stalls << "\n";
  if (cdb_ceiling > 0 || cdb_forced_evictions > 0) {
    out << "  cdb: records=" << cdb_records << " ceiling=" << cdb_ceiling
        << " forced evictions=" << cdb_forced_evictions
        << " insert failures=" << cdb_insert_failures << "\n";
  }
  out << "  engine latency: n=" << engine_latency.total
      << " mean=" << fmt_micros(engine_latency.mean_micros())
      << " p50<=" << fmt_micros(engine_latency.quantile_upper_micros(0.50))
      << " p99<=" << fmt_micros(engine_latency.quantile_upper_micros(0.99))
      << "\n";
  return out.str();
}

std::string MetricsSnapshot::json() const {
  std::ostringstream out;
  out << std::setprecision(12);
  out << "{\n  \"shards\": " << shards
      << ",\n  \"uptime_seconds\": " << uptime_seconds
      << ",\n  \"model_version\": \"" << json_escape(model_version) << "\""
      << ",\n  \"model_swaps\": " << model_swaps
      << ",\n  \"packets_in\": " << packets_in
      << ",\n  \"pushed\": " << total_pushed()
      << ",\n  \"popped\": " << total_popped()
      << ",\n  \"dropped\": " << total_dropped()
      << ",\n  \"dispatch_flushes\": " << total_flushes()
      << ",\n  \"rings\": [";
  for (std::size_t s = 0; s < rings.size(); ++s) {
    out << (s == 0 ? "\n" : ",\n")
        << "    {\"pushed\": " << rings[s].pushed
        << ", \"popped\": " << rings[s].popped
        << ", \"dropped\": " << rings[s].dropped
        << ", \"high_water\": " << rings[s].high_water
        << ", \"flushes\": " << rings[s].flushes
        << ", \"mean_burst\": " << rings[s].mean_burst()
        << ", \"burst_hist\": [";
    for (std::size_t b = 0; b < rings[s].burst_counts.size(); ++b) {
      out << (b == 0 ? "" : ", ") << rings[s].burst_counts[b];
    }
    out << "]}";
  }
  out << "\n  ],\n  \"flows_by_nature\": {";
  for (std::size_t c = 0; c < flows_by_nature.size(); ++c) {
    out << (c == 0 ? "" : ", ") << "\"" << kNatureNames[c]
        << "\": " << flows_by_nature[c];
  }
  out << "},\n  \"health\": \"" << json_escape(health) << "\""
      << ",\n  \"overload_stage\": " << overload_stage
      << ",\n  \"stage_entries\": [";
  for (std::size_t i = 0; i < stage_entries.size(); ++i) {
    out << (i == 0 ? "" : ", ") << stage_entries[i];
  }
  out << "],\n  \"stage_exits\": [";
  for (std::size_t i = 0; i < stage_exits.size(); ++i) {
    out << (i == 0 ? "" : ", ") << stage_exits[i];
  }
  out << "],\n  \"packets_shed\": " << packets_shed
      << ",\n  \"source_transient_errors\": " << source_transient_errors
      << ",\n  \"source_retries_exhausted\": " << source_retries_exhausted
      << ",\n  \"watchdog_stalls\": " << watchdog_stalls
      << ",\n  \"cdb\": {\"records\": " << cdb_records
      << ", \"ceiling\": " << cdb_ceiling
      << ", \"forced_evictions\": " << cdb_forced_evictions
      << ", \"insert_failures\": " << cdb_insert_failures << "}"
      << ",\n  \"engine_latency\": {\"count\": " << engine_latency.total
      << ", \"mean_micros\": " << engine_latency.mean_micros()
      << ", \"p50_upper_micros\": "
      << engine_latency.quantile_upper_micros(0.50)
      << ", \"p99_upper_micros\": "
      << engine_latency.quantile_upper_micros(0.99) << "}";
  if (has_queue_stats) {
    out << ",\n  \"output_queues\": {";
    for (std::size_t c = 0; c < queue_stats.enqueued.size(); ++c) {
      out << (c == 0 ? "" : ", ") << "\"" << kNatureNames[c]
          << "\": {\"enqueued\": " << queue_stats.enqueued[c]
          << ", \"dropped\": " << queue_stats.dropped[c]
          << ", \"depth\": " << queue_stats.depth[c]
          << ", \"high_water\": " << queue_stats.high_water[c] << "}";
    }
    out << "}";
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace iustitia::runtime
