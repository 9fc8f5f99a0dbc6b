#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "core/model_bundle.h"
#include "ctrl/prometheus.h"

namespace flowbench {
namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// The closed loop's limit: at most `limit` packets that will reach
// egress are between the source and the consumer.  forwarded[i] says
// whether packet i does (from the direct drive; the runtime's engines
// take the same actions).  The consumer publishes `dequeued` every
// kPublishEvery packets and whenever it runs dry, so the two threads do
// not trade the counter's cache line on every packet.
inline constexpr std::uint64_t kPublishEvery = 32;
struct InFlightWindow {
  const std::vector<std::uint8_t>& forwarded;
  const std::atomic<std::uint64_t>& dequeued;
  std::uint64_t limit = 0;
};

// Hands the dispatcher the packets of one replay, moving each out of
// `packets` (a NIC ring whose buffers were filled before the run).
// Closed loop (`window`): a call returns as many packets as the window
// admits, waiting for the consumer only when it admits none.  Open loop
// (`due_offset_ns`): a call waits until the next packet is due and
// returns only packets that are due.  Each packet's pull time is stored
// in pull_ns[i].
class ReplaySource final : public runtime::PacketSource {
 public:
  ReplaySource(std::vector<net::Packet>& packets,
               std::vector<std::int64_t>& pull_ns,
               const std::vector<std::int64_t>* due_offset_ns,
               const InFlightWindow* window, SpanBuffer* spans)
      : packets_(packets),
        pull_ns_(pull_ns),
        due_offset_ns_(due_offset_ns),
        window_(window),
        spans_(spans) {}

  void set_start(std::int64_t start_ns) noexcept { start_ns_ = start_ns; }
  bool exhausted() const noexcept {
    return exhausted_.load(std::memory_order_acquire);
  }
  std::size_t delivered() const noexcept { return next_; }

  std::optional<net::Packet> next() override {
    net::Packet packet;
    if (next_burst(std::span<net::Packet>(&packet, 1)) == 0) {
      return std::nullopt;
    }
    return packet;
  }

  std::size_t next_burst(std::span<net::Packet> out) override {
    const std::int64_t entered = spans_ != nullptr ? now_ns() : 0;
    if (spans_ != nullptr && left_ns_ != 0) {
      spans_->add(SpanName::kDispatchGap, left_ns_, entered);
    }
    const std::size_t first = next_;
    const std::size_t n = fill(out);
    if (spans_ != nullptr) {
      left_ns_ = now_ns();
      spans_->add(SpanName::kSource, entered, left_ns_,
                  static_cast<std::uint32_t>(first));
    }
    if (n == 0) exhausted_.store(true, std::memory_order_release);
    return n;
  }

 private:
  std::size_t fill(std::span<net::Packet> out) {
    const std::size_t total = packets_.size();
    if (next_ == total) return 0;
    std::int64_t t = now_ns();
    std::int64_t limit = INT64_MAX;
    if (due_offset_ns_ != nullptr) {
      const std::int64_t due = start_ns_ + (*due_offset_ns_)[next_];
      if (t < due) {
        // Sleep through long gaps, spin the last stretch.
        if (due - t > 200000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - t - 100000));
        }
        while ((t = now_ns()) < due) cpu_relax();
      }
      limit = t - start_ns_;
    }
    // Closed loop: forwarded packets the window admits in this call.
    std::uint64_t room = 0;
    if (window_ != nullptr) {
      room = window_room();
      if (room == 0 && window_->forwarded[next_] != 0) {
        while ((room = window_room()) == 0) cpu_relax();
        t = now_ns();
      }
    }
    std::size_t n = 0;
    while (n < out.size() && next_ < total) {
      if (window_ == nullptr) {
        if ((*due_offset_ns_)[next_] > limit) break;
      } else if (window_->forwarded[next_] != 0) {
        if (room == 0) break;
        --room;
        ++sent_;
      }
      out[n++] = std::move(packets_[next_]);
      pull_ns_[next_++] = t;
    }
    return n;
  }

  std::uint64_t window_room() const noexcept {
    const std::uint64_t in_flight =
        sent_ - window_->dequeued.load(std::memory_order_acquire);
    return in_flight < window_->limit ? window_->limit - in_flight : 0;
  }

  std::vector<net::Packet>& packets_;
  std::vector<std::int64_t>& pull_ns_;
  const std::vector<std::int64_t>* const due_offset_ns_;
  const InFlightWindow* const window_;
  SpanBuffer* const spans_;
  std::uint64_t sent_ = 0;  // packets handed out that will reach egress
  std::int64_t start_ns_ = 0;
  std::int64_t left_ns_ = 0;
  std::size_t next_ = 0;
  std::atomic<bool> exhausted_{false};
};

core::LoadedModelBundle load_bundle(const std::string& bytes) {
  std::istringstream in(bytes);
  return core::load_model_bundle(in);
}

struct EgressCounters {
  std::uint64_t dequeued = 0;
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;
  std::int64_t last_ns = 0;
};

}  // namespace

runtime::RuntimeOptions serving_options() {
  runtime::RuntimeOptions options;
  options.shards = 2;
  options.backpressure = runtime::BackpressurePolicy::kBlock;
  options.output_queue_capacity = 0;
  return options;
}

Replayer::Replayer(const Workload& workload, const net::Trace& trace,
                   std::string bundle,
                   const std::vector<std::uint8_t>& forwarded)
    : workload_(workload),
      trace_(trace),
      bundle_(std::move(bundle)),
      forwarded_(forwarded) {
  const std::size_t n = trace_.packets.size();
  timestamps_.reserve(n);
  for (const net::Packet& p : trace_.packets) timestamps_.push_back(p.timestamp);
  pull_ns_.resize(n);
  deliveries_.reserve(n);
  if (workload_.paced_pps > 0.0 && n > 1) {
    // Compress the trace clock so the packets of the flow-arrival window
    // arrive at paced_pps on average.
    const double window = workload_.trace.duration_seconds;
    const auto in_window = static_cast<double>(
        std::upper_bound(timestamps_.begin(), timestamps_.end(),
                         timestamps_.front() + window) -
        timestamps_.begin());
    wall_ns_per_trace_second_ = in_window / workload_.paced_pps / window * 1e9;
    due_ns_.reserve(n);
    for (const double ts : timestamps_) due_ns_.push_back(due_offset_ns(ts));
  }
}

std::int64_t Replayer::due_offset_ns(double timestamp) const noexcept {
  return static_cast<std::int64_t>((timestamp - timestamps_.front()) *
                                   wall_ns_per_trace_second_);
}

double measure_setup(const std::string& bundle) {
  const std::int64_t start = now_ns();
  const core::LoadedModelBundle loaded = load_bundle(bundle);
  const runtime::Runtime rt([&loaded] { return loaded.model; },
                            serving_options());
  return static_cast<double>(now_ns() - start) * 1e-9;
}

ReplayResult Replayer::run(ReplaySpans* spans) {
  const bool paced = !due_ns_.empty();
  ReplayResult r;
  deliveries_.clear();

  // The replay's own copy of the packets, made before anything is timed;
  // every payload is moved into the runtime and freed by whoever retires
  // the packet, so none of it is left when the heap is read again.
  const std::size_t heap_before = heap_in_use_bytes();
  std::vector<net::Packet> arrivals = trace_.packets;

  const core::LoadedModelBundle loaded = load_bundle(bundle_);
  runtime::Runtime rt([&loaded] { return loaded.model; }, serving_options());

  std::atomic<std::uint64_t> dequeued{0};
  const InFlightWindow window{forwarded_, dequeued, kInFlightWindow};
  ReplaySource source(arrivals, pull_ns_, paced ? &due_ns_ : nullptr,
                      paced ? nullptr : &window,
                      spans != nullptr ? &spans->source : nullptr);
  std::atomic<bool> producers_done{false};
  EgressCounters egress;
  SpanBuffer* egress_spans = spans != nullptr ? &spans->egress : nullptr;
  std::thread consumer([&] {
    constexpr datagen::FileClass kClasses[] = {datagen::FileClass::kText,
                                               datagen::FileClass::kBinary,
                                               datagen::FileClass::kEncrypted};
    core::OutputQueues& queues = rt.output_queues();
    bool final_pass = false;
    for (;;) {
      bool any = false;
      for (const datagen::FileClass c : kClasses) {
        const std::int64_t asked = egress_spans != nullptr ? now_ns() : 0;
        std::optional<core::QueuedPacket> item = queues.dequeue(c);
        if (!item.has_value()) continue;
        const std::int64_t at = now_ns();
        if (egress_spans != nullptr) {
          egress_spans->add(SpanName::kDequeue, asked, at);
        }
        deliveries_.push_back({item->packet.timestamp, at});
        egress.last_ns = at;
        if (++egress.dequeued % kPublishEvery == 0) {
          dequeued.store(egress.dequeued, std::memory_order_release);
        }
        any = true;
      }
      ++egress.polls;
      if (any) continue;
      ++egress.idle_polls;
      dequeued.store(egress.dequeued, std::memory_order_release);
      // Once the runtime has joined nothing more is enqueued: one more
      // empty sweep after seeing that proves the queues are drained.
      if (final_pass) break;
      if (producers_done.load(std::memory_order_acquire)) {
        final_pass = true;
      } else {
        // Idle: give the core back.  A spinning consumer keeps the 4
        // cores full, and a shard worker waking from its backoff sleep
        // then waits a whole scheduler slice for a core.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  });

  const std::int64_t start = now_ns();
  source.set_start(start);
  rt.start(source);
  if (spans != nullptr) {
    while (!source.exhausted()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::int64_t asked = now_ns();
      const std::string page = ctrl::render_prometheus(rt.snapshot());
      spans->scrape.add(SpanName::kScrape, asked, now_ns());
    }
  }
  rt.wait();
  producers_done.store(true, std::memory_order_release);
  consumer.join();
  std::vector<net::Packet>().swap(arrivals);  // only moved-from shells left
  const std::size_t heap_after = heap_in_use_bytes();

  // --- Counters -----------------------------------------------------------
  const runtime::MetricsSnapshot snap = rt.snapshot();
  r.offered = trace_.packets.size();
  r.source_delivered = source.delivered();
  r.packets_in = snap.packets_in;
  r.pushed = snap.total_pushed();
  r.popped = snap.total_popped();
  r.ring_drops = snap.total_dropped();
  r.shed = snap.packets_shed;
  for (std::size_t c = 0; c < 3; ++c) {
    r.egress_enqueued += snap.queue_stats.enqueued[c];
    r.egress_refused += snap.queue_stats.dropped[c];
    r.backlog_high_water += snap.queue_stats.high_water[c];
  }
  r.dequeued = egress.dequeued;
  r.egress_polls = egress.polls;
  r.egress_idle_polls = egress.idle_polls;
  double burst_sum = 0.0;
  std::size_t burst_rings = 0;
  for (const auto& ring : snap.rings) {
    r.ring_high_water = std::max<std::uint64_t>(r.ring_high_water,
                                                ring.high_water);
    if (ring.flushes == 0) continue;
    burst_sum += ring.mean_burst();
    ++burst_rings;
  }
  r.mean_burst = burst_rings != 0 ? burst_sum / burst_rings : 0.0;

  r.wall_s = static_cast<double>(egress.last_ns - start) * 1e-9;
  r.delivered_pps =
      r.wall_s > 0.0 ? static_cast<double>(r.dequeued) / r.wall_s : 0.0;

  // --- Classification events ---------------------------------------------
  std::uint64_t correct = 0;
  for (std::size_t s = 0; s < rt.engine().shard_count(); ++s) {
    for (const core::FlowDelayRecord& event : rt.engine().shard(s).delays()) {
      ++r.events;
      const auto truth = trace_.truth.find(event.key);
      if (truth != trace_.truth.end() && truth->second.nature == event.label) {
        ++correct;
      }
    }
  }
  r.label_accuracy = r.events != 0 ? static_cast<double>(correct) /
                                         static_cast<double>(r.events)
                                   : 0.0;
  r.retained_bytes = static_cast<double>(heap_after) -
                     static_cast<double>(heap_before);

  // --- Latency ---------------------------------------------------------------
  std::vector<double> latency_us;
  latency_us.reserve(deliveries_.size());
  for (const Delivery& d : deliveries_) {
    std::int64_t due = 0;
    if (paced) {
      due = start + due_offset_ns(d.timestamp);
    } else {
      const auto it = std::lower_bound(timestamps_.begin(), timestamps_.end(),
                                       d.timestamp);
      due = pull_ns_[static_cast<std::size_t>(it - timestamps_.begin())];
    }
    latency_us.push_back(static_cast<double>(d.at_ns - due) * 1e-3);
  }
  r.latency_samples = latency_us.size();
  const Tail tail = highest_tail(latency_us);
  r.tail_percentile = tail.percentile;
  r.fwd_tail_ms = tail.value * 1e-3;
  r.fwd_p50_us = quantile(latency_us, 0.5);

  if (paced) {
    std::vector<double> late_us;
    late_us.reserve(pull_ns_.size());
    for (std::size_t i = 0; i < pull_ns_.size(); ++i) {
      late_us.push_back(static_cast<double>(pull_ns_[i] - start - due_ns_[i]) *
                        1e-3);
    }
    r.source_late_max_us = *std::max_element(late_us.begin(), late_us.end());
    r.source_late_p50_us = quantile(late_us, 0.5);
  }

  if (egress_spans != nullptr) {
    // Dequeue spans were recorded one per delivery, in the same order:
    // stamp each with its packet's trace index.
    std::vector<Span>& out = egress_spans->spans();
    const std::size_t first = out.size() - deliveries_.size();
    for (std::size_t j = 0; j < deliveries_.size(); ++j) {
      const auto it = std::lower_bound(timestamps_.begin(), timestamps_.end(),
                                       deliveries_[j].timestamp);
      out[first + j].packet =
          static_cast<std::uint32_t>(it - timestamps_.begin());
    }
  }
  return r;
}

}  // namespace flowbench
