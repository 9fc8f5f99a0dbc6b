// Flow-sharded engine for multi-core deployment.
//
// A single Iustitia engine is single-threaded by design (per-flow state,
// no locks on the fast path).  To keep up with multi-gigabit links, the
// standard scaling move — and what RSS-style NIC steering gives for free —
// is to shard flows across engines by a hash of the 5-tuple: every packet
// of a flow always lands on the same engine, so no state is shared and no
// synchronization is needed.  ShardedIustitia packages that pattern:
// shard_of() implements the steering function, and each shard is an
// independent engine the caller may drive from its own thread.
//
// Thread safety: none inside; each shard has exactly one owner at a time.
// A caller drives shard(shard_of(key)).on_packet from the one thread that
// owns that shard (the runtime's pinned worker, or a single thread
// driving every shard), so nothing here takes a lock.  The aggregate
// accessors and flush_all() read or write every shard: call them from a
// single thread, or after the shard owners have joined.
#ifndef IUSTITIA_CORE_SHARDED_ENGINE_H_
#define IUSTITIA_CORE_SHARDED_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/engine.h"

namespace iustitia::core {

class ShardedIustitia {
 public:
  // Builds `shards` engines, each with its own copy of the model.  The
  // factory is invoked once per shard so models are never shared across
  // threads.  Throws std::invalid_argument when shards == 0.
  ShardedIustitia(const std::function<FlowNatureModel()>& model_factory,
                  const EngineOptions& options, std::size_t shards);

  // Shared-model form: every shard holds the same immutable model (the
  // control plane's ModelRegistry publishes replacements; each shard still
  // keeps its own extractor copy inside its engine).  Throws
  // std::invalid_argument when shards == 0.
  ShardedIustitia(std::shared_ptr<const FlowNatureModel> model,
                  const EngineOptions& options, std::size_t shards);

  // Deterministic steering: same flow -> same shard (uses the flow-key
  // hash, mixing both directions independently like the paper's CDB).
  std::size_t shard_of(const net::FlowKey& key) const noexcept;

  std::size_t shard_count() const noexcept { return shards_.size(); }

  // One shard's engine, for its owner: configuration, the per-thread RSS
  // drive of exactly this shard, post-join inspection.
  Iustitia& shard(std::size_t index);
  const Iustitia& shard(std::size_t index) const;

  // Aggregated statistics across shards.  Post-join reads: every shard
  // owner has joined, or the caller drives all shards itself.
  EngineStats total_stats() const;
  std::size_t total_cdb_size() const;
  std::size_t total_flows_classified() const;

  // Flushes every shard's pending flows; same ownership rule as the
  // aggregates.
  std::size_t flush_all();

 private:
  std::vector<std::unique_ptr<Iustitia>> shards_;
};

}  // namespace iustitia::core

#endif  // IUSTITIA_CORE_SHARDED_ENGINE_H_
