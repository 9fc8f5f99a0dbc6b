#include "core/sharded_engine.h"

#include <stdexcept>
#include <utility>

#include "util/check.h"
#include "util/rt_guard.h"

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
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<Iustitia>(model_factory(), shard_options);
    shards_.push_back(std::move(shard));
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
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<Iustitia>(model, shard_options);
    shards_.push_back(std::move(shard));
  }
}

// Per-packet on the dispatch side: one hash, one modulo, nothing else.
// analyze: hotpath
std::size_t ShardedIustitia::shard_of(
    const net::FlowKey& key) const noexcept {
  return net::FlowKeyHash{}(key) % shards_.size();
}

// Cross-thread classify entry.  The per-shard lock is the accepted cost
// of external callers; the runtime's single-owner workers bypass it via
// shard().
// analyze: hotpath
PacketAction ShardedIustitia::on_packet(const net::Packet& packet) {
  Shard& shard = *shards_[shard_of(packet.key)];
  util::rt::AllowScope allow(util::rt::kBlock);  // analyze: hotpath-allow(may-block)
  util::MutexLock lock(shard.mu);
  return shard.engine->on_packet(packet);
}

// Single-owner escape hatch: the caller guarantees no concurrent access to
// this shard, so the lock is deliberately skipped (and the analysis told so).
Iustitia& ShardedIustitia::shard(std::size_t index)
    IUSTITIA_NO_THREAD_SAFETY_ANALYSIS {
  CHECK_LT(index, shards_.size());
  return *shards_[index]->engine;
}

const Iustitia& ShardedIustitia::shard(std::size_t index) const
    IUSTITIA_NO_THREAD_SAFETY_ANALYSIS {
  CHECK_LT(index, shards_.size());
  return *shards_[index]->engine;
}

EngineStats ShardedIustitia::total_stats() const {
  EngineStats total;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    const EngineStats& s = shard->engine->stats();
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
    util::MutexLock lock(shard->mu);
    total += shard->engine->cdb().size();
  }
  return total;
}

std::size_t ShardedIustitia::total_flows_classified() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    total += shard->engine->stats().flows_classified;
  }
  return total;
}

std::size_t ShardedIustitia::flush_all() {
  std::size_t flushed = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    flushed += shard->engine->flush_all();
  }
  return flushed;
}

}  // namespace iustitia::core
