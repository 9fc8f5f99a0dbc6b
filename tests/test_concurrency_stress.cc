// Concurrency stress tests: shard owners drive ShardedIustitia from their
// own threads, and many threads hammer OutputQueues.  These are the
// tests the tsan preset exists for (tools/ci.sh runs them under
// -fsanitize=thread); under the default build they still verify that
// concurrent operation loses no packets and keeps counters consistent.
#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "appproto/trace_headers.h"
#include "core/output_queues.h"
#include "core/trainer.h"
#include "net/trace_gen.h"

namespace iustitia::core {
namespace {

std::function<FlowNatureModel()> model_factory() {
  return [] {
    datagen::CorpusOptions corpus_options;
    corpus_options.files_per_class = 12;
    corpus_options.min_size = 2048;
    corpus_options.max_size = 4096;
    corpus_options.seed = 170;
    const auto corpus = datagen::build_corpus(corpus_options);
    TrainerOptions options;
    options.backend = Backend::kCart;
    options.widths = entropy::cart_preferred_widths();
    options.method = TrainingMethod::kFirstBytes;
    options.buffer_size = 32;
    return train_model(corpus, options);
  };
}

TEST(ConcurrencyStress, QueuesBalanceUnderProducersAndConsumers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 2000;
  static constexpr datagen::FileClass kLabels[] = {
      datagen::FileClass::kText, datagen::FileClass::kBinary,
      datagen::FileClass::kEncrypted};
  OutputQueues queues(/*capacity=*/64);  // small: forces real drops

  std::atomic<bool> producing{true};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&queues, &producing, &consumed] {
      // Bank scenario priority: encrypted > binary > text.
      const datagen::FileClass order[] = {datagen::FileClass::kEncrypted,
                                          datagen::FileClass::kBinary,
                                          datagen::FileClass::kText};
      while (true) {
        const auto packet = queues.dequeue_priority(order);
        if (packet.has_value()) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else if (!producing.load(std::memory_order_acquire)) {
          return;  // producers done and all three queues were empty
        }
      }
    });
  }

  std::vector<std::thread> producers;
  for (std::size_t prod = 0; prod < kProducers; ++prod) {
    producers.emplace_back([&queues, prod] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        net::Packet packet;
        packet.payload.assign(16, static_cast<std::uint8_t>(i));
        queues.enqueue(kLabels[(prod + i) % 3], std::move(packet));
      }
    });
  }
  for (auto& t : producers) t.join();
  producing.store(false, std::memory_order_release);
  for (auto& t : consumers) t.join();

  // Drain whatever the consumers had not reached before they observed the
  // producers-done flag.
  std::uint64_t drained = consumed.load();
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  for (const datagen::FileClass label : kLabels) {
    while (queues.dequeue(label).has_value()) ++drained;
    accepted += queues.enqueued(label);
    dropped += queues.dropped(label);
    EXPECT_EQ(queues.depth(label), 0u);
  }
  // Every produced packet was either accepted (and later dequeued exactly
  // once) or counted as a drop — nothing lost, nothing duplicated.
  EXPECT_EQ(accepted + dropped, kProducers * kPerProducer);
  EXPECT_EQ(drained, accepted);
  EXPECT_GT(dropped, 0u) << "capacity 64 should have forced drops";
}

// Per-shard single-owner drive, one thread per shard, with the aggregates
// read after the owners join: the pattern DESIGN.md documents for RSS
// deployment.  TSan-visible if shards share state internally.
TEST(ConcurrencyStress, SteeredShardDriveThenPostJoinAggregation) {
  const std::size_t shard_count = 4;
  EngineOptions options;
  options.buffer_size = 32;
  ShardedIustitia sharded(model_factory(), options, shard_count);

  net::TraceOptions trace_options;
  trace_options.header_source = appproto::standard_header_source();
  trace_options.target_packets = 8000;
  trace_options.seed = 172;
  const net::Trace trace = net::generate_trace(trace_options);
  std::vector<std::vector<const net::Packet*>> by_shard(shard_count);
  for (const net::Packet& p : trace.packets) {
    by_shard[sharded.shard_of(p.key)].push_back(&p);
  }

  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < shard_count; ++s) {
    threads.emplace_back([&sharded, &by_shard, s] {
      // The steering guarantees no other thread touches this shard.
      for (const net::Packet* p : by_shard[s]) sharded.shard(s).on_packet(*p);
    });
  }
  for (auto& t : threads) t.join();
  sharded.flush_all();
  EXPECT_EQ(sharded.total_stats().packets, trace.packets.size());
}

}  // namespace
}  // namespace iustitia::core
