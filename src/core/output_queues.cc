#include "core/output_queues.h"

#include <utility>

#include "util/check.h"
#include "util/rt_guard.h"

namespace iustitia::core {

std::size_t OutputQueues::index_of(datagen::FileClass label) {
  const auto index = static_cast<std::size_t>(label);
  CHECK_LT(index, std::size_t{3}) << "unknown FileClass label";
  return index;
}

bool OutputQueues::push_locked(QueuedPacket& item) {
  const std::size_t index = index_of(item.label);
  const std::size_t depth =
      incoming_[index].size() +
      outgoing_left_[index].load(std::memory_order_relaxed);
  if (capacity_ != 0 && depth >= capacity_) {
    ++dropped_[index];
    return false;
  }
  incoming_[index].push_back(std::move(item));
  ++enqueued_[index];
  if (depth + 1 > high_water_[index]) high_water_[index] = depth + 1;
  DCHECK(capacity_ == 0 ||
         incoming_[index].size() +
                 outgoing_left_[index].load(std::memory_order_relaxed) <=
             capacity_);
  return true;
}

bool OutputQueues::enqueue(datagen::FileClass label, net::Packet packet) {
  // Bounded handoff out of the worker loop: a short lock plus, while the
  // batch grows, its buffer (and, on the refused path, the payload
  // retired with the by-value parameter) — the accepted cost of
  // crossing to the consumer side.
  util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block)
  QueuedPacket item{std::move(packet), label};
  util::MutexLock lock(mu_);
  return push_locked(item);
}

std::size_t OutputQueues::enqueue_burst(std::span<QueuedPacket> batch) {
  if (batch.empty()) return 0;
  // Same cold-branch budget as enqueue(), paid once per burst: the lock
  // crossing and any batch growth are amortized over the whole span, and
  // refused payloads are NOT freed here — they stay with the caller, so
  // the lock hold time is bounded by queue work alone.
  util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block)
  std::size_t accepted = 0;
  util::MutexLock lock(mu_);
  for (QueuedPacket& item : batch) {
    if (push_locked(item)) ++accepted;
  }
  return accepted;
}

bool OutputQueues::spent_locked(std::size_t index) const {
  return outgoing_head_[index] == outgoing_[index].size();
}

bool OutputQueues::swap_in_locked(std::size_t index,
                                  std::vector<QueuedPacket>& spent) {
  std::vector<QueuedPacket>& in = incoming_[index];
  if (in.empty()) {
    // Drained: hold no buffers, like an empty queue.
    std::vector<QueuedPacket>().swap(spent);
    std::vector<QueuedPacket>().swap(in);
    return false;
  }
  // The spent batch holds only moved-from shells; its buffer goes back
  // to the producers for the next batch.
  spent.clear();
  spent.swap(in);
  outgoing_left_[index].store(spent.size(), std::memory_order_relaxed);
  return true;
}

QueuedPacket OutputQueues::take_locked(std::size_t index) {
  QueuedPacket item = std::move(outgoing_[index][outgoing_head_[index]++]);
  outgoing_left_[index].store(outgoing_[index].size() - outgoing_head_[index],
                              std::memory_order_relaxed);
  return item;
}

std::optional<QueuedPacket> OutputQueues::dequeue(datagen::FileClass label) {
  const std::size_t index = index_of(label);
  util::MutexLock consumer(consumer_mu_);
  if (spent_locked(index)) {
    outgoing_head_[index] = 0;
    util::MutexLock lock(mu_);
    if (!swap_in_locked(index, outgoing_[index])) return std::nullopt;
  }
  return take_locked(index);
}

std::optional<QueuedPacket> OutputQueues::dequeue_priority(
    std::span<const datagen::FileClass> priority_order) {
  util::MutexLock consumer(consumer_mu_);
  util::MutexLock lock(mu_);
  for (const datagen::FileClass label : priority_order) {
    const std::size_t index = index_of(label);
    if (spent_locked(index)) {
      outgoing_head_[index] = 0;
      if (!swap_in_locked(index, outgoing_[index])) continue;
    }
    return take_locked(index);
  }
  return std::nullopt;
}

std::size_t OutputQueues::drain_all() {
  util::MutexLock consumer(consumer_mu_);
  util::MutexLock lock(mu_);
  std::size_t discarded = 0;
  for (std::size_t i = 0; i < incoming_.size(); ++i) {
    discarded += incoming_[i].size() +
                 outgoing_left_[i].load(std::memory_order_relaxed);
    std::vector<QueuedPacket>().swap(outgoing_[i]);
    std::vector<QueuedPacket>().swap(incoming_[i]);
    outgoing_head_[i] = 0;
    outgoing_left_[i].store(0, std::memory_order_relaxed);
  }
  return discarded;
}

std::size_t OutputQueues::depth(datagen::FileClass label) const {
  const std::size_t index = index_of(label);
  util::MutexLock consumer(consumer_mu_);
  util::MutexLock lock(mu_);
  return incoming_[index].size() +
         outgoing_left_[index].load(std::memory_order_relaxed);
}

std::uint64_t OutputQueues::enqueued(datagen::FileClass label) const {
  const std::size_t index = index_of(label);
  util::MutexLock lock(mu_);
  return enqueued_[index];
}

std::uint64_t OutputQueues::dropped(datagen::FileClass label) const {
  const std::size_t index = index_of(label);
  util::MutexLock lock(mu_);
  return dropped_[index];
}

std::size_t OutputQueues::high_water(datagen::FileClass label) const {
  const std::size_t index = index_of(label);
  util::MutexLock lock(mu_);
  return high_water_[index];
}

OutputQueueStats OutputQueues::stats() const {
  OutputQueueStats out;
  util::MutexLock consumer(consumer_mu_);
  util::MutexLock lock(mu_);
  for (std::size_t i = 0; i < incoming_.size(); ++i) {
    out.enqueued[i] = enqueued_[i];
    out.dropped[i] = dropped_[i];
    out.depth[i] = incoming_[i].size() +
                   outgoing_left_[i].load(std::memory_order_relaxed);
    out.high_water[i] = high_water_[i];
  }
  return out;
}

}  // namespace iustitia::core
