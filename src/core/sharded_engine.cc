#include "core/sharded_engine.h"

#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace iustitia::core {

ShardedIustitia::ShardedIustitia(
    const std::function<FlowNatureModel()>& model_factory,
    const EngineOptions& options, std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedIustitia: shards must be > 0");
  }
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    EngineOptions shard_options = options;
    shard_options.seed = options.seed + i;  // independent random-skip streams
    shards_.push_back(
        std::make_unique<Iustitia>(model_factory(), shard_options));
  }
}

ShardedIustitia::ShardedIustitia(
    std::shared_ptr<const FlowNatureModel> model, const EngineOptions& options,
    std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedIustitia: shards must be > 0");
  }
  if (model == nullptr) {
    throw std::invalid_argument("ShardedIustitia: model must be non-null");
  }
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    EngineOptions shard_options = options;
    shard_options.seed = options.seed + i;  // independent random-skip streams
    shards_.push_back(std::make_unique<Iustitia>(model, shard_options));
  }
}

// Per-packet on the dispatch side: one hash, one modulo, nothing else.
// analyze: hotpath
std::size_t ShardedIustitia::shard_of(
    const net::FlowKey& key) const noexcept {
  return net::FlowKeyHash{}(key) % shards_.size();
}

Iustitia& ShardedIustitia::shard(std::size_t index) {
  CHECK_LT(index, shards_.size());
  return *shards_[index];
}

const Iustitia& ShardedIustitia::shard(std::size_t index) const {
  CHECK_LT(index, shards_.size());
  return *shards_[index];
}

EngineStats ShardedIustitia::total_stats() const {
  EngineStats total;
  for (const auto& shard : shards_) {
    const EngineStats& s = shard->stats();
    total.packets += s.packets;
    total.data_packets += s.data_packets;
    total.flows_classified += s.flows_classified;
    total.flows_timed_out += s.flows_timed_out;
    total.packets_shed += s.packets_shed;
    total.flows_released += s.flows_released;
    for (std::size_t c = 0; c < total.queue_packets.size(); ++c) {
      total.queue_packets[c] += s.queue_packets[c];
    }
  }
  return total;
}

std::size_t ShardedIustitia::total_cdb_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->cdb().size();
  }
  return total;
}

std::size_t ShardedIustitia::total_flows_classified() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->stats().flows_classified;
  }
  return total;
}

std::size_t ShardedIustitia::flush_all() {
  std::size_t flushed = 0;
  for (const auto& shard : shards_) {
    flushed += shard->flush_all();
  }
  return flushed;
}

}  // namespace iustitia::core
