// Per-nature output queues: the LQ blocks of Fig. 1.
//
// After classification, the flow splitter forwards each packet to the
// queue of its class, where a downstream consumer (QoS scheduler, IDS
// engine, logger) drains it.  Queues are bounded; a full queue drops, and
// drop counters per class expose the back-pressure a prioritization
// policy would act on.
//
// Thread safety: fully synchronized.  Shards may enqueue concurrently while
// consumers drain — the natural deployment once ShardedIustitia fans flows
// out across cores.  Each class is a double buffer behind two locks, so
// the consumer does not contend with the producers on every packet:
//
//   - producers (enqueue / enqueue_burst) append to the class's
//     `incoming` batch under mu_, one lock per call;
//   - the consumer (dequeue / dequeue_priority) pops from the class's
//     `outgoing` batch under consumer_mu_, and takes mu_ only when that
//     batch is spent, to swap the producers' batch in.
//
// Lock order is consumer_mu_ → mu_ (DESIGN.md §7).  Per-class FIFO order
// holds across swaps: a swap moves the whole incoming batch, in order,
// behind an outgoing batch that is already empty.
#ifndef IUSTITIA_CORE_OUTPUT_QUEUES_H_
#define IUSTITIA_CORE_OUTPUT_QUEUES_H_

#include <array>
#include <atomic>
#include <cstdint>
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

// Point-in-time counters for all three class queues, indexed by
// static_cast<std::size_t>(datagen::FileClass).  Taken atomically under
// both queue locks, so the per-class values are mutually consistent.
struct OutputQueueStats {
  std::array<std::uint64_t, 3> enqueued{};
  std::array<std::uint64_t, 3> dropped{};
  std::array<std::size_t, 3> depth{};
  // Upper bound on the deepest the queue has been: a producer may see
  // the consumer's remaining count before the consumer's latest pops.
  std::array<std::size_t, 3> high_water{};
};

class OutputQueues {
 public:
  // `capacity` bounds each class queue (packets); 0 means unbounded.
  explicit OutputQueues(std::size_t capacity = 4096) : capacity_(capacity) {}

  // Enqueues to the class queue; returns false (and counts a drop) when
  // the queue is full.  A refusal may come one pop early (the consumer's
  // remaining count is read without its lock), never late: the bound is
  // never exceeded.
  bool enqueue(datagen::FileClass label, net::Packet packet);

  // Batched enqueue: one lock acquisition for the whole span (the
  // output-side leg of the runtime's burst protocol, DESIGN.md §10).
  // Each element is accepted into its class queue or refused under
  // exactly enqueue()'s rules and counters.  Accepted packets are moved
  // out of `batch`; refused ones are left intact so the caller can
  // retire their payloads outside the queue lock.  Returns the number
  // accepted.
  std::size_t enqueue_burst(std::span<QueuedPacket> batch);

  // Pops the oldest packet of one class, if any.
  std::optional<QueuedPacket> dequeue(datagen::FileClass label);

  // Strict-priority dequeue across classes: highest-priority non-empty
  // queue first, in the order given (e.g. encrypted > binary > text for
  // the paper's bank scenario).  The scan is atomic — it holds both
  // locks throughout — so no concurrently enqueued higher-priority
  // packet can be missed mid-scan.
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
  // One consistent snapshot of all per-class counters.
  OutputQueueStats stats() const;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  // Validated label -> queue index.
  static std::size_t index_of(datagen::FileClass label);

  // Appends one item to its class's incoming batch, or counts the drop.
  bool push_locked(QueuedPacket& item) IUSTITIA_REQUIRES(mu_);
  // True when the consumer has popped its whole outgoing batch.
  bool spent_locked(std::size_t index) const IUSTITIA_REQUIRES(consumer_mu_);
  // Trades the class's incoming batch for the consumer's spent one,
  // whose buffer goes back to the producers; returns false, releasing
  // both buffers, when there is nothing to swap in.  The caller holds
  // consumer_mu_ too (it owns `spent`) and resets the batch's head.
  bool swap_in_locked(std::size_t index, std::vector<QueuedPacket>& spent)
      IUSTITIA_REQUIRES(mu_);
  // Pops the next packet of a non-spent outgoing batch.
  QueuedPacket take_locked(std::size_t index)
      IUSTITIA_REQUIRES(consumer_mu_);

  const std::size_t capacity_;  // immutable after construction

  // Consumer side, on its own cache lines so producers appending under
  // mu_ do not share a line with every pop.
  alignas(64) mutable util::Mutex consumer_mu_{"OutputQueues::consumer_mu_"};
  std::array<std::vector<QueuedPacket>, 3> outgoing_
      IUSTITIA_GUARDED_BY(consumer_mu_);
  std::array<std::size_t, 3> outgoing_head_ IUSTITIA_GUARDED_BY(consumer_mu_){};
  // Packets left in each outgoing batch.  Only the consumer writes it
  // (under consumer_mu_, and under mu_ too when a swap raises it), so a
  // producer reading it under mu_ sees the current value or a stale
  // higher one, never a lower one: the capacity check may refuse early,
  // never overfill.
  std::array<std::atomic<std::size_t>, 3> outgoing_left_{};  // analyze: atomic(relaxed-counter)

  // Producer side.
  alignas(64) mutable util::Mutex mu_{"OutputQueues::mu_"};
  std::array<std::vector<QueuedPacket>, 3> incoming_ IUSTITIA_GUARDED_BY(mu_);
  std::array<std::uint64_t, 3> enqueued_ IUSTITIA_GUARDED_BY(mu_){};
  std::array<std::uint64_t, 3> dropped_ IUSTITIA_GUARDED_BY(mu_){};
  std::array<std::size_t, 3> high_water_ IUSTITIA_GUARDED_BY(mu_){};
};

}  // namespace iustitia::core

#endif  // IUSTITIA_CORE_OUTPUT_QUEUES_H_
