// Per-nature output queues: the LQ blocks of Fig. 1.
//
// After classification, the flow splitter forwards each packet to the
// queue of its class, where a downstream consumer (QoS scheduler, IDS
// engine, logger) drains it.  Queues are bounded; a full queue drops, and
// drop counters per class expose the back-pressure a prioritization
// policy would act on.
//
// Layout: one single-producer lane per producer per class.  The runtime
// builds the queues with one producer per shard and each worker passes
// its shard index, so a forwarded burst crosses to the consumer without
// any lock another thread takes:
//
//   - a producer appends to its own lanes under its own mutex (which
//     only serializes callers that share a producer index — uncontended
//     in the runtime), and publishes each lane it touched with one
//     release store of that lane's count per burst;
//   - a consumer (dequeue / dequeue_priority) pops with an acquire load
//     of a lane's published count, round-robin over the class's lanes.
//     consumer_mu_ serializes consumers with each other; no producer
//     ever takes it.
//
// A lane is a chain of fixed-size chunks, allocated when a producer first
// writes to an empty lane; the consumer frees each chunk it has read
// past, and frees the last one once it finds the lane drained (the
// `sealed` handshake in output_queues.cc), so an idle queue holds no heap.
//
// Order is FIFO per producer per class.  Packets of one class from
// different producers interleave in no promised order — the runtime
// steers each flow to one shard, so per-flow order holds.
#ifndef IUSTITIA_CORE_OUTPUT_QUEUES_H_
#define IUSTITIA_CORE_OUTPUT_QUEUES_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "datagen/corpus.h"
#include "net/packet.h"
#include "util/thread_annotations.h"

namespace iustitia::core {

// A queued unit: the packet plus the label it was routed under.
struct QueuedPacket {
  net::Packet packet;
  datagen::FileClass label = datagen::FileClass::kText;
};

// Per-class counters for all three class queues, indexed by
// static_cast<std::size_t>(datagen::FileClass) and summed over the
// class's lanes.  Each lane's counters are read without stopping its
// producer, so a snapshot taken while producers run may miss a burst in
// flight; with producers quiescent every field is exact except
// high_water, which stays an upper bound.
struct OutputQueueStats {
  std::array<std::uint64_t, 3> enqueued{};
  std::array<std::uint64_t, 3> dropped{};
  // Never above capacity(), even while producers and consumers run.
  std::array<std::size_t, 3> depth{};
  // Upper bound on the deepest the queue has been: the sum of each
  // lane's peak, where a producer measures its lane against the last
  // consumer position it read.
  std::array<std::size_t, 3> high_water{};
};

class OutputQueues {
 public:
  // `capacity` bounds each class queue (packets); 0 means unbounded.
  // The bound is split evenly across the `producers` lanes of a class
  // (the first capacity % producers lanes take one more), so a class
  // never holds more than `capacity` without producers sharing a
  // counter; a producer whose share is full is refused even when
  // another producer's share has room.
  explicit OutputQueues(std::size_t capacity = 4096,
                        std::size_t producers = 1);
  ~OutputQueues();

  OutputQueues(const OutputQueues&) = delete;
  OutputQueues& operator=(const OutputQueues&) = delete;

  // Enqueues to the class queue through `producer`'s lane; returns false
  // (and counts a drop) when that lane's share of the bound is full.  A
  // refusal may come early (the producer reads the consumer's position
  // once per call), never late: the bound is never exceeded.
  bool enqueue(datagen::FileClass label, net::Packet packet,
               std::size_t producer = 0);

  // Batched enqueue through `producer`'s lanes: one producer lock and one
  // publish per lane touched for the whole span (the output-side leg of
  // the runtime's burst protocol, DESIGN.md §10).  Each element is
  // accepted into its class queue or refused under exactly enqueue()'s
  // rules and counters.  Accepted packets are moved out of `batch`;
  // refused ones are left intact so the caller can retire their payloads
  // outside the lock.  Returns the number accepted.
  std::size_t enqueue_burst(std::span<QueuedPacket> batch,
                            std::size_t producer = 0);

  // Pops the oldest packet of one of the class's lanes, if any: lanes
  // take turns, and each lane is FIFO.
  std::optional<QueuedPacket> dequeue(datagen::FileClass label);

  // Strict-priority dequeue across classes: the first class in the given
  // order (e.g. encrypted > binary > text for the paper's bank scenario)
  // with a published packet is served.  Producers keep publishing during
  // the scan, so a higher-priority packet published after its class was
  // looked at is served by the next call.
  std::optional<QueuedPacket> dequeue_priority(
      std::span<const datagen::FileClass> priority_order);

  // Empties every class queue (shutdown path: the consumers are gone and
  // whatever is still enqueued will never be drained).  Returns the number
  // of packets discarded.  Counters and high-water marks are preserved.
  std::size_t drain_all();

  std::size_t depth(datagen::FileClass label) const;
  std::uint64_t enqueued(datagen::FileClass label) const;
  std::uint64_t dropped(datagen::FileClass label) const;
  // Upper bound on the deepest the class queue has ever been
  // (back-pressure headroom signal); see OutputQueueStats::high_water.
  std::size_t high_water(datagen::FileClass label) const;
  // All per-class counters at once; see OutputQueueStats.
  OutputQueueStats stats() const;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Chunk;

  // What a lane shares between its producer and the consumer.  The
  // producer's line comes first; `consumed` sits on a line of its own.
  struct alignas(64) Lane {
    // Packets published so far, plus the kBusy / kSealed flags (see
    // output_queues.cc).  Per burst the producer sets kBusy with a
    // fetch_or and stores the new count with release; the consumer loads
    // it with acquire and seals a drained lane with a CAS.
    std::atomic<std::uint64_t> published{0};  // analyze: atomic(publish)
    // First chunk written after a seal; published by `published`.
    std::atomic<Chunk*> fresh{nullptr};  // analyze: atomic(publish)
    // Producer-written statistics, stored once per burst.
    std::atomic<std::uint64_t> enqueued{0};  // analyze: atomic(relaxed-counter)
    std::atomic<std::uint64_t> dropped{0};  // analyze: atomic(relaxed-counter)
    std::atomic<std::uint64_t> high_water{0};  // analyze: atomic(relaxed-counter)
    // Packets popped so far: written by the consumer, read by the
    // producer for the bound.
    alignas(64) std::atomic<std::uint64_t> consumed{0};  // analyze: atomic(publish)
  };

  // One producer: its lock and its three lanes.
  struct alignas(64) Producer {
    util::Mutex mu{"Producer::mu"};
    // Per lane, the chunk the next packet goes to (null: none yet).
    std::array<Chunk*, 3> write_chunks IUSTITIA_GUARDED_BY(mu){};
    std::array<Lane, 3> lanes;
  };

  // A lane's consumer-private state.
  struct Reader {
    std::unique_ptr<Chunk> chunk;  // holds the next packet to pop
    std::uint64_t head = 0;        // packets popped (mirrors `consumed`)
    std::uint64_t available = 0;   // last published count read
  };

  // Validated label -> queue index.
  static std::size_t index_of(datagen::FileClass label);
  // `producer`'s share of each class's bound (all of uint64 when
  // unbounded).
  std::uint64_t share_of(std::size_t producer) const noexcept;

  // Pops the next published packet of one lane, or, finding the lane
  // drained, frees its last chunk and returns nothing.
  std::optional<QueuedPacket> pop_locked(std::size_t producer,
                                         std::size_t index)
      IUSTITIA_REQUIRES(consumer_mu_);
  // Pops from the class's lanes, starting at its round-robin cursor.
  std::optional<QueuedPacket> take_locked(std::size_t index)
      IUSTITIA_REQUIRES(consumer_mu_);

  const std::size_t capacity_;        // immutable after construction
  const std::size_t producer_count_;  // immutable after construction
  const std::unique_ptr<Producer[]> producers_;

  alignas(64) util::Mutex consumer_mu_{"OutputQueues::consumer_mu_"};
  // Indexed producer * 3 + class.
  std::vector<Reader> readers_ IUSTITIA_GUARDED_BY(consumer_mu_);
  // Per class: the lane the next dequeue looks at first.
  std::array<std::size_t, 3> next_lane_ IUSTITIA_GUARDED_BY(consumer_mu_){};
};

}  // namespace iustitia::core

#endif  // IUSTITIA_CORE_OUTPUT_QUEUES_H_
