// Tests for the flow-sharded engine: steering determinism, equivalence
// with the single engine, and actual multi-threaded operation.
#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "appproto/trace_headers.h"
#include "core/trainer.h"
#include "net/trace_gen.h"

namespace iustitia::core {
namespace {

std::function<FlowNatureModel()> model_factory() {
  return [] {
    datagen::CorpusOptions corpus_options;
    corpus_options.files_per_class = 15;
    corpus_options.min_size = 2048;
    corpus_options.max_size = 4096;
    corpus_options.seed = 90;
    const auto corpus = datagen::build_corpus(corpus_options);
    TrainerOptions options;
    options.backend = Backend::kCart;
    options.widths = entropy::cart_preferred_widths();
    options.method = TrainingMethod::kFirstBytes;
    options.buffer_size = 32;
    return train_model(corpus, options);
  };
}

net::Trace small_trace() {
  net::TraceOptions options;
  options.header_source = appproto::standard_header_source();
  options.target_packets = 10000;
  options.seed = 91;
  return net::generate_trace(options);
}

TEST(ShardedIustitia, RejectsZeroShards) {
  EXPECT_THROW(ShardedIustitia(model_factory(), EngineOptions{}, 0),
               std::invalid_argument);
}

TEST(ShardedIustitia, SteeringIsDeterministicAndCoversShards) {
  ShardedIustitia sharded(model_factory(), EngineOptions{}, 4);
  const net::Trace trace = small_trace();
  std::vector<std::size_t> per_shard(4, 0);
  for (const auto& [key, truth] : trace.truth) {
    const std::size_t s = sharded.shard_of(key);
    ASSERT_EQ(s, sharded.shard_of(key));  // stable
    ASSERT_LT(s, 4u);
    ++per_shard[s];
  }
  // The hash spreads flows roughly evenly: no shard starves.
  for (const std::size_t n : per_shard) {
    EXPECT_GT(n, trace.truth.size() / 16);
  }
}

TEST(ShardedIustitia, MatchesSingleEngineResults) {
  EngineOptions options;
  options.buffer_size = 32;
  Iustitia single(model_factory()(), options);
  ShardedIustitia sharded(model_factory(), options, 4);

  const net::Trace trace = small_trace();
  for (const net::Packet& p : trace.packets) {
    single.on_packet(p);
    sharded.shard(sharded.shard_of(p.key)).on_packet(p);
  }
  single.flush_all();
  sharded.flush_all();

  // Same flows classified, same labels per flow (models are identical and
  // packets per flow arrive in the same order within a shard).
  EXPECT_EQ(sharded.total_flows_classified(),
            single.stats().flows_classified);
  for (const FlowDelayRecord& record : single.delays()) {
    const auto label =
        sharded.shard(sharded.shard_of(record.key)).label_of(record.key);
    const auto single_label = single.label_of(record.key);
    if (single_label.has_value() && label.has_value()) {
      EXPECT_EQ(*label, *single_label);
    }
  }
}

TEST(ShardedIustitia, TotalStatsSumEveryCounter) {
  EngineOptions options;
  options.buffer_size = 32;
  ShardedIustitia sharded(model_factory(), options, 2);
  // Overload stage 2 on every shard: only ~1 new flow in 4 is admitted.
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    sharded.shard(s).set_admission_permille(250);
  }
  const net::Trace trace = small_trace();
  for (const net::Packet& p : trace.packets) {
    sharded.shard(sharded.shard_of(p.key)).on_packet(p);
  }
  sharded.flush_all();

  EngineStats sum;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const EngineStats& shard = sharded.shard(s).stats();
    sum.packets += shard.packets;
    sum.packets_shed += shard.packets_shed;
    sum.flows_released += shard.flows_released;
  }
  const EngineStats total = sharded.total_stats();
  EXPECT_EQ(total.packets, trace.packets.size());
  EXPECT_EQ(total.packets, sum.packets);
  EXPECT_GT(total.packets_shed, 0u);
  EXPECT_EQ(total.packets_shed, sum.packets_shed);
  EXPECT_EQ(total.flows_released, sum.flows_released);
}

TEST(ShardedIustitia, RunsFromMultipleThreads) {
  const std::size_t shard_count = 4;
  EngineOptions options;
  options.buffer_size = 32;
  ShardedIustitia sharded(model_factory(), options, shard_count);

  // Pre-partition packets by shard (what NIC steering would do), then
  // drive each shard from its own thread.
  const net::Trace trace = small_trace();
  std::vector<std::vector<const net::Packet*>> partitions(shard_count);
  for (const net::Packet& p : trace.packets) {
    partitions[sharded.shard_of(p.key)].push_back(&p);
  }
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < shard_count; ++s) {
    threads.emplace_back([&sharded, &partitions, s] {
      for (const net::Packet* p : partitions[s]) {
        sharded.shard(s).on_packet(*p);
      }
      sharded.shard(s).flush_all();
    });
  }
  for (auto& t : threads) t.join();

  const EngineStats total = sharded.total_stats();
  EXPECT_EQ(total.packets, trace.packets.size());
  EXPECT_GT(total.flows_classified, 0u);

  // Ground-truth accuracy survives sharding.
  std::size_t correct = 0, scored = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    for (const FlowDelayRecord& record : sharded.shard(s).delays()) {
      const auto it = trace.truth.find(record.key);
      if (it == trace.truth.end()) continue;
      ++scored;
      correct += (record.label == it->second.nature);
    }
  }
  ASSERT_GT(scored, 0u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(scored), 0.6);
}

}  // namespace
}  // namespace iustitia::core
