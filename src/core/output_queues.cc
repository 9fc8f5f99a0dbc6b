#include "core/output_queues.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/rt_guard.h"

namespace iustitia::core {

namespace {

// Lane::published holds the published count in its low bits and two
// flags above it:
//   kBusy    a producer is writing the lane (set by its fetch_or at the
//            start of a burst, cleared by the release store that
//            publishes the burst);
//   kSealed  the consumer found the lane drained while no producer was
//            writing, and freed its last chunk (CAS from the bare
//            count).  The producer's next fetch_or sees the flag and
//            starts a fresh chunk instead of writing into the freed one.
// A seal can only succeed between bursts, and a burst that starts after a
// seal always sees it, so no chunk is written after it is freed.
constexpr std::uint64_t kBusy = std::uint64_t{1} << 63;
constexpr std::uint64_t kSealed = std::uint64_t{1} << 62;
constexpr std::uint64_t kCountMask = kSealed - 1;

}  // namespace

// A fixed run of slots.  Packet n of a lane lives in slot n % kSlots of
// its chunk, so producer and consumer agree on every position without
// sharing a pointer; a chunk a producer starts after a seal simply leaves
// the slots before its first position unused.
struct OutputQueues::Chunk {
  static constexpr std::size_t kSlots = 64;

  // Raw storage: a packet is constructed when written and destroyed when
  // popped, so an allocation costs no per-slot construction.
  union Slot {
    Slot() {}
    ~Slot() {}
    QueuedPacket item;
  };

  // User-provided so make_unique does not zero the slots.
  Chunk() {}

  std::array<Slot, kSlots> slots;
  // Linked by the producer when it fills this chunk; published, like the
  // slots, by the next store of the lane's count.
  std::unique_ptr<Chunk> next;
};

OutputQueues::OutputQueues(std::size_t capacity, std::size_t producers)
    : capacity_(capacity),
      producer_count_(producers),
      producers_(std::make_unique<Producer[]>(producers)),
      readers_(producers * 3) {
  CHECK_GT(producers, std::size_t{0}) << "OutputQueues needs a producer";
}

OutputQueues::~OutputQueues() { drain_all(); }

std::size_t OutputQueues::index_of(datagen::FileClass label) {
  const auto index = static_cast<std::size_t>(label);
  CHECK_LT(index, std::size_t{3}) << "unknown FileClass label";
  return index;
}

std::uint64_t OutputQueues::share_of(std::size_t producer) const noexcept {
  if (capacity_ == 0) return std::numeric_limits<std::uint64_t>::max();
  return capacity_ / producer_count_ +
         (producer < capacity_ % producer_count_ ? 1 : 0);
}

bool OutputQueues::enqueue(datagen::FileClass label, net::Packet packet,
                           std::size_t producer) {
  // Covers the by-value parameter too: a refused packet's payload is
  // retired when it goes out of scope here.
  util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block)
  QueuedPacket item{std::move(packet), label};
  return enqueue_burst(std::span<QueuedPacket>(&item, 1), producer) == 1;
}

std::size_t OutputQueues::enqueue_burst(std::span<QueuedPacket> batch,
                                        std::size_t producer) {
  if (batch.empty()) return 0;
  CHECK_LT(producer, producer_count_) << "unknown OutputQueues producer";
  // The cold branch of the worker's output crossing, paid once per burst:
  // the producer's own lock (shared only by callers passing the same
  // index) and a chunk allocation when a lane fills or starts empty.
  // Refused payloads are NOT freed here — they stay with the caller.
  util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block)
  Producer& self = producers_[producer];
  const std::uint64_t share = share_of(producer);

  // This burst's view of each lane it touches.
  struct Open {
    bool open = false;
    std::uint64_t count = 0;          // position of the next packet
    std::uint64_t consumed_seen = 0;  // last `consumed` read
    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;
    std::uint64_t peak = 0;
  };
  std::array<Open, 3> open{};
  std::size_t accepted = 0;
  util::MutexLock lock(self.mu);
  for (QueuedPacket& item : batch) {
    const std::size_t index = index_of(item.label);
    Lane& lane = self.lanes[index];
    Chunk*& chunk = self.write_chunks[index];
    Open& o = open[index];
    if (!o.open) {
      const std::uint64_t seen =
          lane.published.fetch_or(kBusy, std::memory_order_acq_rel);
      if ((seen & kSealed) != 0) chunk = nullptr;  // the consumer freed it
      o.open = true;
      o.count = seen & kCountMask;
      o.consumed_seen = lane.consumed.load(std::memory_order_acquire);
    }
    // `consumed_seen` trails the consumer, so the depth it gives is an
    // over-estimate: a refusal may come early, never late.
    if (o.count - o.consumed_seen >= share) {
      o.consumed_seen = lane.consumed.load(std::memory_order_acquire);
      if (o.count - o.consumed_seen >= share) {
        ++o.refused;
        continue;
      }
    }
    const std::size_t slot = o.count % Chunk::kSlots;
    if (chunk == nullptr) {
      auto fresh = std::make_unique<Chunk>();
      chunk = fresh.get();
      lane.fresh.store(fresh.release(), std::memory_order_release);
    } else if (slot == 0) {
      chunk->next = std::make_unique<Chunk>();
      chunk = chunk->next.get();
    }
    std::construct_at(&chunk->slots[slot].item, std::move(item));
    ++o.count;
    ++o.accepted;
    o.peak = std::max(o.peak, o.count - o.consumed_seen);
    DCHECK_LE(o.count - o.consumed_seen, share);
    ++accepted;
  }
  for (std::size_t index = 0; index < open.size(); ++index) {
    const Open& o = open[index];
    if (!o.open) continue;
    Lane& lane = self.lanes[index];
    // Single writer (this producer's lock): plain read-modify-store.
    lane.enqueued.store(
        lane.enqueued.load(std::memory_order_relaxed) + o.accepted,
        std::memory_order_relaxed);
    lane.dropped.store(lane.dropped.load(std::memory_order_relaxed) + o.refused,
                       std::memory_order_relaxed);
    if (o.peak > lane.high_water.load(std::memory_order_relaxed)) {
      lane.high_water.store(o.peak, std::memory_order_relaxed);
    }
    // Publishes the burst's packets and clears kBusy (and kSealed).
    lane.published.store(o.count, std::memory_order_release);
  }
  return accepted;
}

std::optional<QueuedPacket> OutputQueues::pop_locked(std::size_t producer,
                                                     std::size_t index) {
  Lane& lane = producers_[producer].lanes[index];
  Reader& reader = readers_[producer * 3 + index];
  if (reader.head == reader.available) {
    std::uint64_t seen = lane.published.load(std::memory_order_acquire);
    reader.available = seen & kCountMask;
    if (reader.head == reader.available) {
      // Drained.  Free the last chunk unless a producer is writing the
      // lane (the CAS fails if one starts meanwhile).
      if (reader.chunk != nullptr && seen == reader.available &&
          lane.published.compare_exchange_strong(seen, seen | kSealed,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
        reader.chunk.reset();
      }
      return std::nullopt;
    }
  }
  const std::size_t slot = reader.head % Chunk::kSlots;
  if (reader.chunk == nullptr) {
    // First packet after a seal (or ever): the producer's fresh chunk.
    reader.chunk.reset(lane.fresh.load(std::memory_order_acquire));
  } else if (slot == 0) {
    // Read past the end of this chunk: free it, move to the next.
    reader.chunk = std::move(reader.chunk->next);
  }
  QueuedPacket& item = reader.chunk->slots[slot].item;
  std::optional<QueuedPacket> out(std::move(item));
  std::destroy_at(&item);
  lane.consumed.store(++reader.head, std::memory_order_release);
  return out;
}

std::optional<QueuedPacket> OutputQueues::take_locked(std::size_t index) {
  std::size_t& next = next_lane_[index];
  for (std::size_t tried = 0; tried < producer_count_; ++tried) {
    const std::size_t producer = next;
    next = next + 1 == producer_count_ ? 0 : next + 1;
    if (std::optional<QueuedPacket> item = pop_locked(producer, index)) {
      return item;
    }
  }
  return std::nullopt;
}

std::optional<QueuedPacket> OutputQueues::dequeue(datagen::FileClass label) {
  const std::size_t index = index_of(label);
  util::MutexLock consumer(consumer_mu_);
  return take_locked(index);
}

std::optional<QueuedPacket> OutputQueues::dequeue_priority(
    std::span<const datagen::FileClass> priority_order) {
  util::MutexLock consumer(consumer_mu_);
  for (const datagen::FileClass label : priority_order) {
    if (std::optional<QueuedPacket> item = take_locked(index_of(label))) {
      return item;
    }
  }
  return std::nullopt;
}

std::size_t OutputQueues::drain_all() {
  util::MutexLock consumer(consumer_mu_);
  std::size_t discarded = 0;
  for (std::size_t producer = 0; producer < producer_count_; ++producer) {
    for (std::size_t index = 0; index < 3; ++index) {
      // The last, empty pop frees the lane's chunk.
      while (pop_locked(producer, index).has_value()) ++discarded;
    }
  }
  return discarded;
}

std::size_t OutputQueues::depth(datagen::FileClass label) const {
  return stats().depth[index_of(label)];
}

std::uint64_t OutputQueues::enqueued(datagen::FileClass label) const {
  return stats().enqueued[index_of(label)];
}

std::uint64_t OutputQueues::dropped(datagen::FileClass label) const {
  return stats().dropped[index_of(label)];
}

std::size_t OutputQueues::high_water(datagen::FileClass label) const {
  return stats().high_water[index_of(label)];
}

OutputQueueStats OutputQueues::stats() const {
  OutputQueueStats out;
  for (std::size_t producer = 0; producer < producer_count_; ++producer) {
    for (std::size_t i = 0; i < 3; ++i) {
      const Lane& lane = producers_[producer].lanes[i];
      // Count first, then position: the position read is at least the
      // one the producer checked that count against, so a lane's depth
      // never reads above its share of the bound.
      const std::uint64_t published =
          lane.published.load(std::memory_order_acquire) & kCountMask;
      const std::uint64_t consumed =
          lane.consumed.load(std::memory_order_acquire);
      out.depth[i] += published > consumed ? published - consumed : 0;
      out.enqueued[i] += lane.enqueued.load(std::memory_order_relaxed);
      out.dropped[i] += lane.dropped.load(std::memory_order_relaxed);
      out.high_water[i] += lane.high_water.load(std::memory_order_relaxed);
    }
  }
  return out;
}

}  // namespace iustitia::core
