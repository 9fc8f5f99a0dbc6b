// The online Iustitia engine: the full left-hand pipeline of Fig. 1.
//
// Per packet: hash the header to a 160-bit flow ID, make one probe of the
// shard's flow table (core/cdb.h), and either forward the packet to the
// output queue of its known class, or buffer its payload until b bytes
// are available, then extract the entropy vector, classify, turn the
// flow's slot into its CDB record, and forward.  Implements FIN/RST
// removal, inactivity purging, application-layer header skipping
// (threshold T with optional signature-based stripping), buffer timeouts,
// and the three-component delay accounting of Section 4.5
// (tau_hash + tau_CDBsearch + tau_b).
//
// Single owner: one thread drives an engine (the runtime gives each
// shard's engine to one worker); nothing on the packet path locks.
#ifndef IUSTITIA_CORE_ENGINE_H_
#define IUSTITIA_CORE_ENGINE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cdb.h"
#include "core/config.h"
#include "core/feature_extractor.h"
#include "core/flow_model.h"
#include "net/packet.h"

namespace iustitia::core {

// What the engine did with one packet.
enum class PacketAction {
  kForwarded,        // flow already classified; sent to its output queue
  kBuffered,         // flow pending; payload added to its buffer
  kClassifiedNow,    // this packet completed the buffer; flow classified
  kIgnored,          // no payload and flow unknown (e.g. bare SYN/ACK)
  kShed,             // unknown flow refused by admission sampling
                     // (overload stage 2; see runtime/overload.h)
};

// Per-classified-flow delay record (Fig. 10).  One is kept per
// classification, so the layout is packed: 56 bytes.
struct FlowDelayRecord {
  net::FlowKey key;
  datagen::FileClass label = datagen::FileClass::kText;
  std::uint32_t buffered_bytes = 0;   // bytes actually classified on
  double classified_at = 0.0;         // trace time of classification
  double tau_b = 0.0;                 // buffer-fill time in trace seconds
  std::uint32_t packets_to_fill = 0;  // c: data packets needed to fill b
  float hash_micros = 0.0f;     // measured SHA-1 time (once per flow)
  float cdb_micros = 0.0f;      // measured CDB search time (once per flow)
  float extract_micros = 0.0f;  // entropy extraction + inference time
};
static_assert(sizeof(FlowDelayRecord) == 56, "delay records stay packed");

// Engine-lifetime counters.
struct EngineStats {
  std::uint64_t packets = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t flows_classified = 0;
  std::uint64_t flows_timed_out = 0;   // classified on partial buffer
  std::uint64_t packets_shed = 0;      // refused by admission sampling
  // Pending flows dropped unclassified because they carried no payload
  // (SYN-only or scan traffic): at the idle timeout, or at flush_all.
  std::uint64_t flows_released = 0;
  std::array<std::uint64_t, 3> queue_packets{};  // per-class forwarded
};

class Iustitia {
 public:
  // The model must match the engine's buffer_size in training regime for
  // best accuracy (see core/trainer.h), but any model works mechanically.
  Iustitia(FlowNatureModel model, const EngineOptions& options);

  // Shared-model form: several shards (and the control plane's registry)
  // hold the same immutable model; the engine keeps its own extractor
  // copy so extraction state never crosses threads.
  Iustitia(std::shared_ptr<const FlowNatureModel> model,
           const EngineOptions& options);

  // Hot-swaps the model (RCU cold path; see core/model_registry.h).  The
  // CDB and pending flows are untouched: already-labelled flows keep
  // their labels, in-flight buffers classify under the new model.
  void install_model(std::shared_ptr<const FlowNatureModel> model);

  const FlowNatureModel& model() const noexcept { return *model_; }

  // Processes one packet.  Packets are expected in timestamp order; a
  // stamp out of order is tolerated (see flush_idle).
  PacketAction on_packet(const net::Packet& packet);

  // As above, and additionally reports the nature the packet was routed
  // under when the returned action is kForwarded or kClassifiedNow
  // (*label_out is left untouched otherwise).  This is the flow-splitter
  // hook: the serving runtime fans the packet out to its per-nature
  // output queue without paying a second CDB probe.
  PacketAction on_packet(const net::Packet& packet,
                         datagen::FileClass* label_out);

  // Classifies every pending flow that has been idle for the configured
  // timeout, and releases idle ones that carry no payload
  // (EngineStats::flows_released).  Called automatically every 1024
  // miss-path packets; call manually for deterministic experiments.
  // With packets in time order it visits only the idle flows; flows
  // stamped ahead of a later packet are all visited.  Returns flows
  // classified.
  std::size_t flush_idle(double now);

  // Classifies all pending flows regardless of idleness (end of trace)
  // and frees the pending-flow pool.
  std::size_t flush_all();

  // Label recorded for a flow, if any.
  std::optional<datagen::FileClass> label_of(const net::FlowKey& key);

  const EngineStats& stats() const noexcept { return stats_; }
  const ClassificationDatabase& cdb() const noexcept { return cdb_; }
  ClassificationDatabase& cdb() noexcept { return cdb_; }
  const std::vector<FlowDelayRecord>& delays() const noexcept {
    return delays_;
  }
  std::size_t pending_flows() const noexcept { return pending_count_; }
  const EngineOptions& options() const noexcept { return options_; }

  // Bytes of buffering state currently held by pending flows (the
  // per-new-flow space cost discussed with Table 3).
  std::size_t pending_buffer_bytes() const noexcept;

  // Degraded-mode controls, driven by the runtime's overload ladder
  // (runtime/overload.h).  Owner-thread only, like on_packet: per-shard
  // engines are single-owner, so plain stores suffice.
  //
  // Caps the per-flow byte budget below the configured buffer_size
  // (0 restores the configured budget).  Flows classified while capped
  // use at most this many bytes — the paper's Fig. 4 cost curve keeps
  // accuracy serviceable down to b=32.
  void set_buffer_cap(std::size_t bytes) noexcept { buffer_cap_ = bytes; }
  std::size_t buffer_cap() const noexcept { return buffer_cap_; }

  // New-flow admission probability in permille (1000 = admit all).
  // Existing pending/classified flows are unaffected; refused packets
  // return PacketAction::kShed.  Deterministic per flow id, so one flow
  // is either fully admitted or fully shed while the setting holds.
  void set_admission_permille(std::uint32_t permille) noexcept {
    admission_permille_ = permille > 1000 ? 1000 : permille;
  }
  std::uint32_t admission_permille() const noexcept {
    return admission_permille_;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  // Which intrusive list a live pool entry is on:
  //   kActive  active_, sorted by last_packet_at, oldest first, so
  //            flush_idle stops at the first flow that is not idle.  A
  //            packet moves its flow to the tail; packets normally arrive
  //            in time order, which keeps the list sorted.
  //   kAhead   ahead_, flows stamped later than a packet that came after
  //            them (the capture's clock stepped back, or one flow's stamp
  //            jumped ahead).  They leave active_'s tail to keep it sorted,
  //            and flush_idle scans ahead_ whole.
  //   kParked  parked_, idle flows whose payload ends exactly at their
  //            header skip, which wait for more bytes or for flush_all.
  enum class Queue : std::uint8_t { kActive, kAhead, kParked };

  // Buffering state of one pending flow.  Entries live in pool_, indexed
  // by the pending slot of the flow's table entry, and are reused; a
  // released entry hands its buffer back to the heap.
  struct PendingFlow {
    net::FlowKey key;
    net::FlowId id;                  // finds the flow's slot from the list
    std::vector<std::uint8_t> raw;   // bytes as received (pre-skip)
    std::size_t skip = 0;            // resolved header-skip offset
    std::size_t random_skip = 0;     // extra per-flow skip (Section 4.6)
    bool skip_resolved = false;
    double first_data_at = 0.0;
    double last_packet_at = 0.0;
    std::uint32_t data_packets = 0;
    float hash_micros = 0.0f;        // one tau_hash sample per flow
    float cdb_micros = 0.0f;         // one tau_CDBsearch sample per flow
    Queue queue = Queue::kActive;    // the list a live entry is on
    std::uint32_t prev = kNil;       // list links; `next` also links the
    std::uint32_t next = kNil;       // free list
  };

  struct FlowList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  FlowList& list_of(Queue queue) noexcept {
    return queue == Queue::kActive  ? active_
           : queue == Queue::kAhead ? ahead_
                                    : parked_;
  }

  // Tries to resolve the header-skip offset from the flow's bytes so far;
  // returns true when resolved.
  bool resolve_skip(PendingFlow& flow, std::span<const std::uint8_t> bytes);

  // Buffer target met? (bytes beyond the skip >= the effective byte
  // budget)
  bool buffer_full(const PendingFlow& flow,
                   std::span<const std::uint8_t> bytes) const noexcept;

  // Configured buffer_size, clamped by the degraded-mode cap.
  std::size_t effective_buffer_size() const noexcept {
    return buffer_cap_ == 0 ? options_.buffer_size
                            : std::min(buffer_cap_, options_.buffer_size);
  }

  // Classifies `flow` on `bytes` (its buffer, or the one packet that
  // filled it) and records the label at `slot`: the flow's pending slot,
  // or the empty slot a brand-new flow would take.
  datagen::FileClass classify_flow(const PendingFlow& flow,
                                   std::span<const std::uint8_t> bytes,
                                   FlowSlot* slot, double now,
                                   bool timed_out);

  // Pool entry for a new flow (reused or appended), and its release.
  std::uint32_t acquire_pending(const net::FlowKey& key,
                                const net::FlowId& id, double now);
  void release_pending(std::uint32_t index) noexcept;
  void link_tail(FlowList& list, std::uint32_t index) noexcept;
  void unlink(FlowList& list, std::uint32_t index) noexcept;
  // Puts a flow on `queue`, and for kActive first moves every flow at
  // active_'s tail stamped later than it over to ahead_.
  void enqueue(std::uint32_t index, Queue queue) noexcept;

  // Ends the wait of a flow idle past the timeout at `now`: releases it
  // when it carries no payload, classifies it on what it has, or parks it
  // when its payload ends exactly at the header skip.  Returns true when
  // it classified.
  bool expire(std::uint32_t index, double now);

  std::shared_ptr<const FlowNatureModel> model_;
  FeatureExtractor extractor_;  // per-engine copy; owns mutable Rng state
  EngineOptions options_;
  ClassificationDatabase cdb_;  // the flow table: records + pending slots
  std::vector<PendingFlow> pool_;
  std::uint32_t free_head_ = kNil;
  FlowList active_;
  FlowList ahead_;
  FlowList parked_;
  std::size_t pending_count_ = 0;
  std::vector<FlowDelayRecord> delays_;
  EngineStats stats_;
  std::uint64_t packets_since_flush_ = 0;
  util::Rng rng_;  // per-flow random skip (Section 4.6 defense)
  // Degraded-mode state (owner-thread writes via the setters above).
  std::size_t buffer_cap_ = 0;              // 0 = configured budget
  std::uint32_t admission_permille_ = 1000;  // 1000 = admit every flow
};

}  // namespace iustitia::core

#endif  // IUSTITIA_CORE_ENGINE_H_
