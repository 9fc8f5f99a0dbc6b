// End-to-end replays through the real serving path:
//
//   ReplaySource -> runtime::Runtime (dispatcher -> SPSC rings -> shard
//   workers -> core::OutputQueues) -> egress consumer thread
//
// Each replay loads the model bundle, builds a fresh Runtime, offers the
// whole trace, and drains every forwarded packet on a benchmark-owned
// consumer thread that round-robins OutputQueues::dequeue over the three
// classes.  The main thread sleeps in wait() (or, when traced, scrapes the
// metrics at ~10 Hz until the source is exhausted).
#ifndef FLOWBENCH_REPLAY_H_
#define FLOWBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/trace_gen.h"
#include "runtime/runtime.h"
#include "spans.h"
#include "workload.h"

namespace flowbench {

// The one serving configuration every workload and the direct drive use:
// default RuntimeOptions except 2 shards, blocking backpressure, and
// unbounded egress queues (a backlog shows as time, not as loss).
runtime::RuntimeOptions serving_options();

// Closed loop: packets that will reach egress allowed between the source
// and the consumer.  The source waits while the window is full, so a
// backlog anywhere in the path slows it.  Equal to the two rings'
// capacity: when the engines are the slower stage the rings fill to about
// this many packets, and when egress is, its backlog does, so either way
// forwarding latency is about this window over the throughput.
inline constexpr std::uint64_t kInFlightWindow = 4096;

// Loads the saved model `bundle` and builds a Runtime, as a replay does
// before its first packet, and returns the seconds that took.
double measure_setup(const std::string& bundle);

// Per-thread span buffers of one traced replay.
struct ReplaySpans {
  SpanBuffer source;   // dispatcher thread: source calls and the gaps
  SpanBuffer egress;   // consumer thread: dequeues
  SpanBuffer scrape;   // main thread: metric scrapes
};

struct ReplayResult {
  double wall_s = 0.0;         // start() until the last dequeue
  double delivered_pps = 0.0;  // dequeued / wall_s

  // Conservation counters.
  std::uint64_t offered = 0;
  std::uint64_t source_delivered = 0;
  std::uint64_t packets_in = 0;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t shed = 0;
  std::uint64_t egress_enqueued = 0;
  std::uint64_t egress_refused = 0;
  std::uint64_t dequeued = 0;

  // Forwarding latency: due time (open loop: the paced schedule; closed
  // loop: when the source handed the packet over) to dequeue.
  double fwd_p50_us = 0.0;
  double fwd_tail_ms = 0.0;
  double tail_percentile = 0.0;  // e.g. 99.99
  std::uint64_t latency_samples = 0;
  // Open loop: how late the dispatcher pulled each packet.
  double source_late_p50_us = 0.0;
  double source_late_max_us = 0.0;

  double retained_bytes = 0.0;  // in-use heap growth across the run
  std::uint64_t events = 0;     // classification events after wait()
  double label_accuracy = 0.0;

  // Layer counters from Runtime::snapshot and the consumer.
  double mean_burst = 0.0;
  std::uint64_t ring_high_water = 0;
  std::uint64_t backlog_high_water = 0;  // sum of per-class high water
  std::uint64_t egress_polls = 0;
  std::uint64_t egress_idle_polls = 0;
};

class Replayer {
 public:
  // `trace` and `forwarded` must outlive the replayer.  `bundle` is a
  // saved model bundle; forwarded[i] says whether the engines forward
  // packet i (DriveResult::forwarded).
  Replayer(const Workload& workload, const net::Trace& trace,
           std::string bundle, const std::vector<std::uint8_t>& forwarded);

  // One replay of the whole trace.  With `spans`, records the runtime
  // spans and scrapes the metrics from this thread while packets flow.
  ReplayResult run(ReplaySpans* spans = nullptr);

 private:
  // Wall nanoseconds after the run's start at which a packet with this
  // trace timestamp falls due (open loop only).
  std::int64_t due_offset_ns(double timestamp) const noexcept;

  const Workload& workload_;
  const net::Trace& trace_;
  const std::string bundle_;
  const std::vector<std::uint8_t>& forwarded_;
  // Per-run scratch, sized once so a run allocates nothing of its own
  // between the two heap readings.
  std::vector<double> timestamps_;
  std::vector<std::int64_t> due_ns_;  // open loop: due_offset_ns per packet
  std::vector<std::int64_t> pull_ns_;
  struct Delivery {
    double timestamp = 0.0;
    std::int64_t at_ns = 0;
  };
  std::vector<Delivery> deliveries_;
  double wall_ns_per_trace_second_ = 0.0;
};

}  // namespace flowbench

#endif  // FLOWBENCH_REPLAY_H_
