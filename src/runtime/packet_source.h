// Packet sources feeding the serving runtime's dispatcher.
//
// A PacketSource is a pull-model stream of time-ordered packets, consumed
// by exactly one thread (the dispatcher), so implementations need no
// internal synchronization.  Two implementations cover the deployment and
// the lab: PcapReplaySource streams a standard capture file (surviving
// truncated captures via net::PcapReader::truncated()), TraceSource
// serves a calibrated synthetic gateway trace.  Both can be paced to a
// target aggregate packet rate to emulate a live link instead of
// replaying as fast as the disk allows.
#ifndef IUSTITIA_RUNTIME_PACKET_SOURCE_H_
#define IUSTITIA_RUNTIME_PACKET_SOURCE_H_

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>

#include "net/pcap.h"
#include "net/trace_gen.h"

namespace iustitia::runtime {

// Pull interface; next() returns std::nullopt once the stream is
// exhausted (and forever after).  Single-consumer by contract.
class PacketSource {
 public:
  virtual ~PacketSource() = default;
  virtual std::optional<net::Packet> next() = 0;

  // True when the last empty next()/next_burst() return was a transient
  // failure (injected or real I/O hiccup) rather than end-of-stream.
  // The dispatcher responds by retrying with backoff up to its
  // configured limit instead of treating the stream as drained.  The
  // flag describes only the most recent call.
  virtual bool transient_error() const noexcept { return false; }

  // Batched pull: fills the front of `out` with the packets ready now
  // and returns how many were delivered.  A call may wait for the first
  // packet, but never for a later one: a return shorter than `out` means
  // nothing more is ready, and the dispatcher flushes what it has staged
  // instead of waiting for a full burst.  0 means exhausted (and forever
  // after, like next()) unless transient_error() says otherwise.  One
  // virtual call per burst instead of per packet — the producer half of
  // the runtime's batched hot path.  The default adapts a source whose
  // next() never waits by looping it; implementations override with a
  // bulk move.
  virtual std::size_t next_burst(std::span<net::Packet> out) {
    std::size_t n = 0;
    for (net::Packet& slot : out) {
      std::optional<net::Packet> packet = next();
      if (!packet.has_value()) break;
      slot = *std::move(packet);
      ++n;
    }
    return n;
  }
};

// Sleeps the calling thread so successive tick() calls average out to a
// target rate.  Rate 0 disables pacing (tick() returns immediately).
// The schedule is absolute — tick i completes no earlier than
// start + i/rate — so short hiccups are caught up instead of compounding.
class Pacer {
 public:
  explicit Pacer(double target_per_sec) : target_(target_per_sec) {}

  // Call once per delivered item, before handing the item downstream.
  void tick();

  // True when the next tick() would return without sleeping.  Never
  // blocks; a burst source calls it to stop at the first item not yet
  // due instead of holding earlier ones back.
  bool due() const;

 private:
  // When tick number `tick` (1-based) falls due.  Requires started_.
  std::chrono::steady_clock::time_point deadline(std::uint64_t tick) const;

  const double target_;
  std::uint64_t ticks_ = 0;
  bool started_ = false;
  std::chrono::steady_clock::time_point start_;
};

// Replays a capture via net::PcapReader.  The stream must outlive the
// source.  target_pps = 0 replays unpaced (as fast as the consumer
// accepts); otherwise delivery is paced to that aggregate packet rate.
class PcapReplaySource final : public PacketSource {
 public:
  explicit PcapReplaySource(std::istream& is, double target_pps = 0.0);

  std::optional<net::Packet> next() override;
  std::size_t next_burst(std::span<net::Packet> out) override;
  bool transient_error() const noexcept override { return transient_; }

  // True once the capture ended on a cut-off record: the replay served
  // everything up to the last complete record (see net/pcap.h).
  bool truncated() const noexcept { return reader_.truncated(); }
  std::size_t packets_delivered() const noexcept { return delivered_; }
  // Hostile/corrupt records the reader rejected and the replay skipped.
  std::size_t decode_errors() const noexcept { return decode_errors_; }

 private:
  // reader_.next() with hostile-input armor: a record the decoder
  // rejects is skipped (counted), never propagated into the dispatcher.
  std::optional<net::Packet> read_one();

  net::PcapReader reader_;
  Pacer pacer_;
  std::size_t delivered_ = 0;
  std::size_t decode_errors_ = 0;
  bool transient_ = false;  // set by the source.next failpoint
};

// Serves a synthetic gateway trace (net::generate_trace).  Owns the
// trace; packets are *moved* out one by one (a source is single-shot),
// while the ground-truth map stays valid for post-run scoring via
// trace().truth.
class TraceSource final : public PacketSource {
 public:
  explicit TraceSource(net::Trace trace, double target_pps = 0.0);
  // Convenience: generates the trace from options first.
  explicit TraceSource(const net::TraceOptions& options,
                       double target_pps = 0.0);

  std::optional<net::Packet> next() override;
  std::size_t next_burst(std::span<net::Packet> out) override;
  bool transient_error() const noexcept override { return transient_; }

  // The owned trace.  truth and duration stay intact; packets already
  // delivered are moved-from.
  const net::Trace& trace() const noexcept { return trace_; }
  std::size_t packets_delivered() const noexcept { return next_index_; }

 private:
  net::Trace trace_;
  Pacer pacer_;
  std::size_t next_index_ = 0;
  bool transient_ = false;  // set by the source.next failpoint
};

}  // namespace iustitia::runtime

#endif  // IUSTITIA_RUNTIME_PACKET_SOURCE_H_
