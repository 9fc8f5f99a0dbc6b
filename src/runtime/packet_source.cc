#include "runtime/packet_source.h"

#include <algorithm>
#include <istream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/failpoint.h"

namespace iustitia::runtime {

namespace {

// Evaluates the shared source.next failpoint: an armed error action
// simulates one transient read failure for this call.
bool injected_transient_error() noexcept {
  return FAILPOINT("source.next") == util::FailpointAction::kError;
}

}  // namespace

std::chrono::steady_clock::time_point Pacer::deadline(
    std::uint64_t tick) const {
  return start_ +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(static_cast<double>(tick) /
                                           target_));
}

void Pacer::tick() {
  if (target_ <= 0.0) return;
  const auto now = std::chrono::steady_clock::now();
  if (!started_) {
    started_ = true;
    start_ = now;
  }
  ++ticks_;
  const auto due_at = deadline(ticks_);
  if (due_at > now) std::this_thread::sleep_until(due_at);
}

bool Pacer::due() const {
  if (target_ <= 0.0) return true;
  return started_ && deadline(ticks_ + 1) <= std::chrono::steady_clock::now();
}

PcapReplaySource::PcapReplaySource(std::istream& is, double target_pps)
    : reader_(is), pacer_(target_pps) {}

std::optional<net::Packet> PcapReplaySource::read_one() {
  // Hostile-input armor: PcapReader rejects corrupt records by
  // throwing.  The record framing is length-based, so the stream stays
  // positioned on the next record; skip, count, and keep replaying
  // instead of letting the exception terminate the dispatcher thread.
  for (;;) {
    try {
      return reader_.next();
    } catch (const std::runtime_error&) {
      ++decode_errors_;
    }
  }
}

std::optional<net::Packet> PcapReplaySource::next() {
  transient_ = injected_transient_error();
  if (transient_) return std::nullopt;
  std::optional<net::Packet> packet = read_one();
  if (!packet.has_value()) return std::nullopt;
  pacer_.tick();
  ++delivered_;
  return packet;
}

std::size_t PcapReplaySource::next_burst(std::span<net::Packet> out) {
  transient_ = injected_transient_error();
  if (transient_) return 0;
  std::size_t n = 0;
  for (net::Packet& slot : out) {
    // Wait for the first packet only; stop at the first one not yet due.
    if (n != 0 && !pacer_.due()) break;
    std::optional<net::Packet> packet = read_one();
    if (!packet.has_value()) break;
    pacer_.tick();
    slot = *std::move(packet);
    ++n;
  }
  delivered_ += n;
  return n;
}

TraceSource::TraceSource(net::Trace trace, double target_pps)
    : trace_(std::move(trace)), pacer_(target_pps) {}

TraceSource::TraceSource(const net::TraceOptions& options, double target_pps)
    : TraceSource(net::generate_trace(options), target_pps) {}

std::optional<net::Packet> TraceSource::next() {
  transient_ = injected_transient_error();
  if (transient_) return std::nullopt;
  if (next_index_ >= trace_.packets.size()) return std::nullopt;
  pacer_.tick();
  return std::move(trace_.packets[next_index_++]);
}

std::size_t TraceSource::next_burst(std::span<net::Packet> out) {
  transient_ = injected_transient_error();
  if (transient_) return 0;
  // Bulk move straight out of the owned trace: no per-packet optional,
  // one bounds computation for the whole burst.  Wait for the first
  // packet only; stop at the first one not yet due.
  const std::size_t limit =
      std::min(out.size(), trace_.packets.size() - next_index_);
  std::size_t n = 0;
  for (; n < limit && (n == 0 || pacer_.due()); ++n) {
    pacer_.tick();
    out[n] = std::move(trace_.packets[next_index_ + n]);
  }
  next_index_ += n;
  return n;
}

}  // namespace iustitia::runtime
