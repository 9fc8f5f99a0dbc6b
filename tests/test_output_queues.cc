// Tests for the per-nature output queues (Fig. 1's LQ blocks).
#include "core/output_queues.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/alloc_hook.h"

namespace iustitia::core {
namespace {

using datagen::FileClass;

net::Packet packet_of(std::uint16_t port) {
  net::Packet p;
  p.key.src_port = port;
  p.payload = {1, 2, 3};
  return p;
}

TEST(OutputQueues, FifoPerClass) {
  OutputQueues queues;
  queues.enqueue(FileClass::kText, packet_of(1));
  queues.enqueue(FileClass::kText, packet_of(2));
  queues.enqueue(FileClass::kBinary, packet_of(3));

  EXPECT_EQ(queues.depth(FileClass::kText), 2u);
  EXPECT_EQ(queues.depth(FileClass::kBinary), 1u);
  EXPECT_EQ(queues.depth(FileClass::kEncrypted), 0u);

  const auto first = queues.dequeue(FileClass::kText);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->packet.key.src_port, 1);
  EXPECT_EQ(first->label, FileClass::kText);
  const auto second = queues.dequeue(FileClass::kText);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->packet.key.src_port, 2);
  EXPECT_EQ(queues.dequeue(FileClass::kText), std::nullopt);
}

TEST(OutputQueues, CapacityDrops) {
  OutputQueues queues(2);
  EXPECT_TRUE(queues.enqueue(FileClass::kBinary, packet_of(1)));
  EXPECT_TRUE(queues.enqueue(FileClass::kBinary, packet_of(2)));
  EXPECT_FALSE(queues.enqueue(FileClass::kBinary, packet_of(3)));
  EXPECT_EQ(queues.depth(FileClass::kBinary), 2u);
  EXPECT_EQ(queues.dropped(FileClass::kBinary), 1u);
  EXPECT_EQ(queues.enqueued(FileClass::kBinary), 2u);
  // Other classes unaffected by one class's pressure.
  EXPECT_TRUE(queues.enqueue(FileClass::kText, packet_of(4)));
}

// The batched handoff out of a shard worker: one lock for the span,
// accepted packets moved out, refused packets left intact for the caller
// to retire outside the lock.
TEST(OutputQueues, EnqueueBurstAcceptsUpToCapacityAndLeavesTheRestIntact) {
  OutputQueues queues(2);
  std::vector<QueuedPacket> batch;
  for (std::uint16_t i = 1; i <= 4; ++i) {
    batch.push_back(QueuedPacket{packet_of(i), FileClass::kBinary});
  }
  ASSERT_EQ(queues.enqueue_burst(std::span<QueuedPacket>(batch)), 2u);

  // Accepted packets were moved out of the batch; refused ones keep
  // their payloads so the caller can account for and retire them.
  EXPECT_TRUE(batch[0].packet.payload.empty());
  EXPECT_TRUE(batch[1].packet.payload.empty());
  EXPECT_EQ(batch[2].packet.payload.size(), 3u);
  EXPECT_EQ(batch[3].packet.payload.size(), 3u);

  EXPECT_EQ(queues.depth(FileClass::kBinary), 2u);
  EXPECT_EQ(queues.enqueued(FileClass::kBinary), 2u);
  EXPECT_EQ(queues.dropped(FileClass::kBinary), 2u);

  // FIFO within the accepted prefix.
  const auto first = queues.dequeue(FileClass::kBinary);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->packet.key.src_port, 1);
}

TEST(OutputQueues, EnqueueBurstSpansClassesAndEmptyBatchIsANoOp) {
  OutputQueues queues;
  EXPECT_EQ(queues.enqueue_burst(std::span<QueuedPacket>()), 0u);

  std::vector<QueuedPacket> batch;
  batch.push_back(QueuedPacket{packet_of(1), FileClass::kText});
  batch.push_back(QueuedPacket{packet_of(2), FileClass::kEncrypted});
  batch.push_back(QueuedPacket{packet_of(3), FileClass::kText});
  ASSERT_EQ(queues.enqueue_burst(std::span<QueuedPacket>(batch)), 3u);
  EXPECT_EQ(queues.depth(FileClass::kText), 2u);
  EXPECT_EQ(queues.depth(FileClass::kEncrypted), 1u);
  EXPECT_EQ(queues.high_water(FileClass::kText), 2u);
}

TEST(OutputQueues, UnboundedWhenCapacityZero) {
  OutputQueues queues(0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(queues.enqueue(FileClass::kEncrypted, packet_of(
        static_cast<std::uint16_t>(i))));
  }
  EXPECT_EQ(queues.depth(FileClass::kEncrypted), 10000u);
  EXPECT_EQ(queues.dropped(FileClass::kEncrypted), 0u);
}

TEST(OutputQueues, PriorityDequeueOrder) {
  OutputQueues queues;
  queues.enqueue(FileClass::kText, packet_of(1));
  queues.enqueue(FileClass::kEncrypted, packet_of(2));

  // Bank scenario: encrypted first.
  const FileClass order[] = {FileClass::kEncrypted, FileClass::kBinary,
                             FileClass::kText};
  auto first = queues.dequeue_priority(order);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->label, FileClass::kEncrypted);
  auto second = queues.dequeue_priority(order);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->label, FileClass::kText);
  EXPECT_EQ(queues.dequeue_priority(order), std::nullopt);
}

TEST(OutputQueues, HighWaterTracksDeepestPointEver) {
  OutputQueues queues;
  EXPECT_EQ(queues.high_water(FileClass::kText), 0u);
  queues.enqueue(FileClass::kText, packet_of(1));
  queues.enqueue(FileClass::kText, packet_of(2));
  queues.enqueue(FileClass::kText, packet_of(3));
  EXPECT_EQ(queues.high_water(FileClass::kText), 3u);
  // Draining does not lower the mark — it records peak backpressure.
  (void)queues.dequeue(FileClass::kText);
  (void)queues.dequeue(FileClass::kText);
  EXPECT_EQ(queues.depth(FileClass::kText), 1u);
  EXPECT_EQ(queues.high_water(FileClass::kText), 3u);
  queues.enqueue(FileClass::kText, packet_of(4));
  EXPECT_EQ(queues.high_water(FileClass::kText), 3u) << "2 < peak of 3";
  // Other classes track independently.
  EXPECT_EQ(queues.high_water(FileClass::kEncrypted), 0u);
}

TEST(OutputQueues, DrainAllEmptiesEveryClassAndKeepsCounters) {
  OutputQueues queues;
  queues.enqueue(FileClass::kText, packet_of(1));
  queues.enqueue(FileClass::kBinary, packet_of(2));
  queues.enqueue(FileClass::kBinary, packet_of(3));
  queues.enqueue(FileClass::kEncrypted, packet_of(4));

  EXPECT_EQ(queues.drain_all(), 4u);
  for (const FileClass c :
       {FileClass::kText, FileClass::kBinary, FileClass::kEncrypted}) {
    EXPECT_EQ(queues.depth(c), 0u);
    EXPECT_EQ(queues.dequeue(c), std::nullopt);
  }
  // Lifetime counters and peaks survive the drain.
  EXPECT_EQ(queues.enqueued(FileClass::kBinary), 2u);
  EXPECT_EQ(queues.high_water(FileClass::kBinary), 2u);
  EXPECT_EQ(queues.drain_all(), 0u) << "second drain finds nothing";
}

TEST(OutputQueues, StatsSnapshotIsConsistentAcrossClasses) {
  OutputQueues queues(2);
  queues.enqueue(FileClass::kText, packet_of(1));
  queues.enqueue(FileClass::kBinary, packet_of(2));
  queues.enqueue(FileClass::kBinary, packet_of(3));
  queues.enqueue(FileClass::kBinary, packet_of(4));  // dropped (cap 2)
  (void)queues.dequeue(FileClass::kBinary);

  const OutputQueueStats stats = queues.stats();
  const auto text = static_cast<std::size_t>(FileClass::kText);
  const auto binary = static_cast<std::size_t>(FileClass::kBinary);
  const auto encrypted = static_cast<std::size_t>(FileClass::kEncrypted);
  EXPECT_EQ(stats.enqueued[text], 1u);
  EXPECT_EQ(stats.enqueued[binary], 2u);
  EXPECT_EQ(stats.enqueued[encrypted], 0u);
  EXPECT_EQ(stats.dropped[binary], 1u);
  EXPECT_EQ(stats.depth[binary], 1u);
  EXPECT_EQ(stats.high_water[binary], 2u);
  EXPECT_EQ(stats.depth[text], 1u);
  EXPECT_EQ(stats.high_water[encrypted], 0u);
}

// Two producers burst-enqueue while one consumer dequeues.  With
// `own_lanes` each producer passes its own index, as the runtime's shard
// workers do; without it both share producer 0's lane and its lock.  Each
// producer's packets must come out in order per class, the bound must
// hold whenever the consumer looks, and the totals must balance.  A
// producer whose burst met a full lane waits for the consumer to dequeue
// something before it offers more, so the two sides interleave however
// the threads are scheduled, and refusals happen too.
// tools/ci.sh runs this binary under TSan as well.
void run_concurrent_producers(bool own_lanes) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr std::uint32_t kPerProducer = 20'000;
#else
  constexpr std::uint32_t kPerProducer = 200'000;
#endif
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kBurst = 16;
  constexpr std::size_t kCapacity = 64;
  OutputQueues queues(kCapacity, own_lanes ? kProducers : 1);

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> dequeued{0};
  std::atomic<std::size_t> producers_done{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::size_t lane = own_lanes ? p : 0;
      std::vector<QueuedPacket> batch(kBurst);
      for (std::uint32_t seq = 0; seq < kPerProducer;) {
        std::size_t n = 0;
        for (; n < kBurst && seq < kPerProducer; ++n, ++seq) {
          batch[n].packet.key.src_port = static_cast<std::uint16_t>(p);
          batch[n].packet.key.src_ip = seq;
          batch[n].label = static_cast<FileClass>(seq % 3);
        }
        const std::uint64_t seen = dequeued.load(std::memory_order_acquire);
        const std::size_t ok = queues.enqueue_burst(
            std::span<QueuedPacket>(batch.data(), n), lane);
        accepted.fetch_add(ok, std::memory_order_relaxed);
        // A refusal means this producer's share of a class is full, so
        // the consumer is bound to dequeue one.
        while (ok < n && dequeued.load(std::memory_order_acquire) == seen) {
          std::this_thread::yield();
        }
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // next_seq[p][c]: the lowest sequence number producer p's class c may
  // show next.
  std::array<std::array<std::uint32_t, 3>, kProducers> next_seq{};
  bool in_order = true;
  bool bounded = true;
  for (bool final_pass = false;;) {
    bool any = false;
    for (const FileClass c :
         {FileClass::kText, FileClass::kBinary, FileClass::kEncrypted}) {
      const auto index = static_cast<std::size_t>(c);
      bounded = bounded && queues.depth(c) <= kCapacity;
      for (std::optional<QueuedPacket> item = queues.dequeue(c);
           item.has_value(); item = queues.dequeue(c)) {
        any = true;
        dequeued.fetch_add(1, std::memory_order_acq_rel);
        const std::size_t p = item->packet.key.src_port;
        const std::uint32_t seq = item->packet.key.src_ip;
        if (p >= kProducers) {
          in_order = false;
          continue;
        }
        in_order = in_order && item->label == c && seq % 3 == index &&
                   seq >= next_seq[p][index];
        next_seq[p][index] = seq + 1;
      }
    }
    if (any) continue;
    // Once every producer has finished nothing more is enqueued: one more
    // empty sweep after seeing that proves the queues are drained.
    if (final_pass) break;
    final_pass =
        producers_done.load(std::memory_order_acquire) == kProducers;
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();

  EXPECT_TRUE(in_order) << "a producer's packets left a class out of order";
  EXPECT_TRUE(bounded) << "a class queue exceeded its capacity";
  const OutputQueueStats stats = queues.stats();
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    enqueued += stats.enqueued[c];
    dropped += stats.dropped[c];
    EXPECT_EQ(stats.depth[c], 0u);
    EXPECT_LE(stats.high_water[c], kCapacity);
  }
  EXPECT_EQ(enqueued, accepted.load());
  EXPECT_EQ(enqueued + dropped, std::uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(dequeued.load(), enqueued);
  EXPECT_GT(enqueued, 3 * kCapacity)
      << "too few packets crossed to fill and free lane chunks";
}

TEST(OutputQueues, ConcurrentProducersKeepPerClassOrderAcrossSwaps) {
  run_concurrent_producers(/*own_lanes=*/false);
}

TEST(OutputQueues, ConcurrentProducersKeepPerClassOrderInOwnLanes) {
  run_concurrent_producers(/*own_lanes=*/true);
}

// One unbounded lane many chunks long: the consumer frees each chunk it
// reads past, follows the producer's links in order, and frees the last
// one at the empty pop that ends the drain.
TEST(OutputQueues, UnboundedLaneDrainsManyChunksInOrder) {
  constexpr std::uint32_t kPackets = 10'000;  // ~157 chunks of 64
  OutputQueues queues(0, 2);
  const std::size_t before = testhooks::live_bytes();
  std::vector<QueuedPacket> batch(32);
  for (std::uint32_t seq = 0; seq < kPackets;) {
    std::size_t n = 0;
    for (; n < batch.size() && seq < kPackets; ++n, ++seq) {
      batch[n].packet.key.src_ip = seq;
      batch[n].label = FileClass::kBinary;
    }
    ASSERT_EQ(queues.enqueue_burst(std::span<QueuedPacket>(batch.data(), n),
                                   /*producer=*/1),
              n);
  }
  EXPECT_EQ(queues.depth(FileClass::kBinary), kPackets);
  EXPECT_EQ(queues.high_water(FileClass::kBinary), kPackets);
  for (std::uint32_t seq = 0; seq < kPackets; ++seq) {
    const std::optional<QueuedPacket> item = queues.dequeue(FileClass::kBinary);
    ASSERT_TRUE(item.has_value()) << "lost packet " << seq;
    ASSERT_EQ(item->packet.key.src_ip, seq);
  }
  EXPECT_EQ(queues.dequeue(FileClass::kBinary), std::nullopt);
  EXPECT_EQ(queues.depth(FileClass::kBinary), 0u);
  EXPECT_EQ(queues.enqueued(FileClass::kBinary), kPackets);
  batch.clear();
  batch.shrink_to_fit();
  EXPECT_EQ(testhooks::live_bytes(), before)
      << "a drained lane still holds chunks";
}

// A class's bound is split across its producers' lanes: with capacity 5
// and 2 producers, producer 0 may hold 3 and producer 1 may hold 2, and a
// producer whose share is full is refused while the other's has room.
TEST(OutputQueues, CapacitySplitsAcrossProducerLanes) {
  OutputQueues queues(5, 2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(queues.enqueue(FileClass::kText, packet_of(1), 0), i < 3);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queues.enqueue(FileClass::kText, packet_of(2), 1), i < 2);
  }
  EXPECT_EQ(queues.depth(FileClass::kText), 5u);
  EXPECT_EQ(queues.enqueued(FileClass::kText), 5u);
  EXPECT_EQ(queues.dropped(FileClass::kText), 2u);
  EXPECT_EQ(queues.high_water(FileClass::kText), 5u);
  // Lanes take turns: one pop frees room in producer 0's share only.
  const auto first = queues.dequeue(FileClass::kText);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->packet.key.src_port, 1);
  EXPECT_FALSE(queues.enqueue(FileClass::kText, packet_of(2), 1));
  EXPECT_TRUE(queues.enqueue(FileClass::kText, packet_of(1), 0));
  const auto second = queues.dequeue(FileClass::kText);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->packet.key.src_port, 2);
}

// A drained queue holds no heap: once the consumer finds a class empty,
// its lanes' chunks are released, so a long-running server whose output
// went idle keeps nothing at its burst-time peak.
TEST(OutputQueues, DrainedQueueKeepsNoBuffers) {
  OutputQueues queues(0);
  const std::size_t before = testhooks::live_bytes();
  {
    std::vector<QueuedPacket> batch;
    for (std::uint16_t i = 0; i < 3000; ++i) {
      batch.push_back(
          QueuedPacket{packet_of(i), static_cast<FileClass>(i % 3)});
    }
    ASSERT_EQ(queues.enqueue_burst(std::span<QueuedPacket>(batch)), 3000u);
    for (const FileClass c :
         {FileClass::kText, FileClass::kBinary, FileClass::kEncrypted}) {
      std::size_t popped = 0;
      while (queues.dequeue(c).has_value()) ++popped;
      EXPECT_EQ(popped, 1000u);
    }
  }
  EXPECT_EQ(testhooks::live_bytes(), before)
      << "a drained OutputQueues still holds batch buffers";
}

}  // namespace
}  // namespace iustitia::core
