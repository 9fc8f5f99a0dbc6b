// Clock, heap and span helpers shared by the benchmark's drivers.
//
// Spans are the traced run's raw record: one per call the benchmark makes
// into a layer (name, start, end, parent span, packet id).  Each thread
// appends to its own SpanBuffer, so recording is a plain vector store; the
// buffers are merged, summarised and written out only after the threads
// have joined.
#ifndef FLOWBENCH_SPANS_H_
#define FLOWBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

// The program's layers, by the names the benchmark uses for them.
namespace iustitia::appproto {}
namespace iustitia::core {}
namespace iustitia::ctrl {}
namespace iustitia::datagen {}
namespace iustitia::entropy {}
namespace iustitia::net {}
namespace iustitia::runtime {}
namespace iustitia::util {}

namespace flowbench {

namespace appproto = iustitia::appproto;
namespace core = iustitia::core;
namespace ctrl = iustitia::ctrl;
namespace datagen = iustitia::datagen;
namespace entropy = iustitia::entropy;
namespace net = iustitia::net;
namespace runtime = iustitia::runtime;
namespace util = iustitia::util;

// Monotonic nanoseconds (steady_clock), the time base of every span.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Bytes the allocator has handed out and not taken back, over every
// arena (glibc mallinfo2: small-chunk in-use plus mmapped chunks).
std::size_t heap_in_use_bytes();

// Nearest-rank value at quantile q in [0, 1]; reorders `values`.  0 when
// empty.
double quantile(std::vector<double>& values, double q);
inline double median(std::vector<double> values) {
  return quantile(values, 0.5);
}

// The highest of p99, p99.9, p99.99, ... that still leaves at least ten
// samples beyond it, with its value (reorders `values`).
struct Tail {
  double percentile = 0.0;  // e.g. 99.99
  double value = 0.0;
};
Tail highest_tail(std::vector<double>& values);

// Every span name the benchmark records; kSpanNames gives the text.
enum class SpanName : std::uint16_t {
  kSource,         // runtime: one PacketSource::next_burst call
  kDispatchGap,    // runtime: dispatcher time between two source calls
  kDequeue,        // egress: one successful OutputQueues::dequeue
  kScrape,         // ctrl: Runtime::snapshot + ctrl::render_prometheus
  kDrivePacket,    // direct drive: one packet (parent of the two below)
  kSteer,          // core: ShardedIustitia::shard_of
  kOnPacketHit,    // core: on_packet -> kForwarded
  kOnPacketMiss,   // core: on_packet -> kBuffered / kIgnored / kShed
  kOnPacketClassify,  // core: on_packet -> kClassifiedNow
  kCount,
};

inline constexpr const char* kSpanNames[] = {
    "runtime.source",   "runtime.dispatch_gap", "egress.dequeue",
    "ctrl.scrape",      "drive.packet",         "core.steer",
    "core.on_packet.hit", "core.on_packet.miss", "core.on_packet.classify",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<std::size_t>(SpanName::kCount));

inline constexpr std::uint32_t kNoPacket = 0xFFFFFFFFu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same buffer, -1 for a root
  std::uint32_t packet = kNoPacket;  // trace index of the packet
  SpanName name = SpanName::kSource;
};

// One thread's spans.  Reserve before the timed region so recording never
// reallocates inside it.
class SpanBuffer {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void clear() noexcept { spans_.clear(); }

  // Returns the new span's index (for use as a child's parent).
  std::int32_t add(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
                   std::uint32_t packet = kNoPacket, std::int32_t parent = -1) {
    spans_.push_back(Span{start_ns, end_ns, parent, packet, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::vector<Span>& spans() noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Per-name totals over one buffer: self time is a span's duration minus
// the time its direct children cover.
struct SpanSummary {
  std::uint64_t count[static_cast<std::size_t>(SpanName::kCount)] = {};
  double total_ns[static_cast<std::size_t>(SpanName::kCount)] = {};
  double self_ns[static_cast<std::size_t>(SpanName::kCount)] = {};

  void add(const std::vector<Span>& spans);
  double mean_ns(SpanName name) const noexcept;
};

// Writes every buffer to `path` as fixed-size little-endian records (see
// README.md "Span file") and returns false on an I/O error.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers);

}  // namespace flowbench

#endif  // FLOWBENCH_SPANS_H_
