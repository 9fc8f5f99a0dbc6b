#include "core/engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "appproto/header_stripper.h"
#include "util/check.h"
#include "util/rt_guard.h"
#include "util/timer.h"

namespace iustitia::core {

namespace {

// Bound on how long we wait for an incomplete-but-recognized application
// header before giving up and classifying from the threshold.
constexpr std::size_t kMaxHeaderWait = 8192;

std::shared_ptr<const FlowNatureModel> require_model(
    std::shared_ptr<const FlowNatureModel> model) {
  CHECK(model != nullptr) << "engine needs a non-null model";
  return model;
}

}  // namespace

Iustitia::Iustitia(FlowNatureModel model, const EngineOptions& options)
    : Iustitia(std::make_shared<const FlowNatureModel>(std::move(model)),
               options) {}

Iustitia::Iustitia(std::shared_ptr<const FlowNatureModel> model,
                   const EngineOptions& options)
    : model_(require_model(std::move(model))),
      extractor_(model_->extractor()),
      options_(options),
      cdb_(options.cdb),
      rng_(options.seed) {
  CHECK_GT(options_.buffer_size, std::size_t{0})
      << "engine needs at least one buffered byte to classify on";
  CHECK_GT(options_.buffer_timeout_seconds, 0.0);
}

void Iustitia::install_model(std::shared_ptr<const FlowNatureModel> model) {
  model_ = require_model(std::move(model));
  extractor_ = model_->extractor();
}

bool Iustitia::resolve_skip(PendingFlow& flow,
                            std::span<const std::uint8_t> bytes) {
  if (flow.skip_resolved) return true;
  // No payload yet (e.g. only a SYN seen): detection must wait, otherwise
  // an empty prefix would resolve to "no known header" prematurely.
  if (bytes.empty()) return false;
  if (options_.strip_known_headers) {
    const appproto::HeaderDetection det = appproto::detect_header(bytes);
    if (det.protocol != appproto::AppProtocol::kNone) {
      if (det.header_complete) {
        flow.skip = det.header_length + flow.random_skip;
        flow.skip_resolved = true;
        return true;
      }
      // Recognized protocol but delimiter not seen yet: wait for more
      // payload (bounded).
      if (bytes.size() < kMaxHeaderWait) return false;
      flow.skip = det.header_length + flow.random_skip;
      flow.skip_resolved = true;
      return true;
    }
  }
  // Unknown header: skip the configured threshold T.
  flow.skip = options_.header_threshold + flow.random_skip;
  flow.skip_resolved = true;
  return true;
}

bool Iustitia::buffer_full(const PendingFlow& flow,
                           std::span<const std::uint8_t> bytes) const noexcept {
  return flow.skip_resolved &&
         bytes.size() >= flow.skip + effective_buffer_size();
}

PacketAction Iustitia::on_packet(const net::Packet& packet) {
  return on_packet(packet, nullptr);
}

// Real-time contract: the steady state is the CDB-hit return below — one
// hash, one table probe, counter bumps, no heap, no lock, no clock.
// Everything after the "Not a record" comment is the per-flow
// setup/classification cold branch, documented by one AllowScope.
// analyze: hotpath
PacketAction Iustitia::on_packet(const net::Packet& packet,
                                 datagen::FileClass* label_out) {
  ++stats_.packets;
  if (packet.is_data()) ++stats_.data_packets;
  const double now = packet.timestamp;

  const net::FlowId id = net::flow_id(packet.key);
  FlowSlot* slot = cdb_.probe(id, now);

  if (slot->state == FlowSlot::State::kRecord) {
    const datagen::FileClass known = slot->file_class();
    DCHECK_LT(static_cast<std::size_t>(known), stats_.queue_packets.size());
    ++stats_.queue_packets[static_cast<std::size_t>(known)];
    if (packet.flags.fin || packet.flags.rst) cdb_.close_record(slot);
    if (label_out != nullptr) *label_out = known;
    return PacketAction::kForwarded;
  }

  // Not a record: a pending flow or an unknown one.  This pays for the
  // flow's bookkeeping — pool entry, payload buffering, table growth and
  // (once b bytes are in) feature extraction + model classification.
  // That is the engine's documented cold branch; it covers the rest of
  // the function.
  util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block, may-throw, unresolved-call)

  const bool fresh = slot->state == FlowSlot::State::kEmpty;
  std::uint32_t index = kNil;
  if (fresh) {
    // Overload stage 2 (sample-admission): a brand-new flow is admitted
    // with probability admission_permille/1000, decided by a stable hash
    // of its id so the same flow is consistently admitted or shed.  Flows
    // that already have a pending buffer keep classifying.
    if (admission_permille_ < 1000 &&
        id.prefix64() % 1000 >= admission_permille_) {
      ++stats_.packets_shed;
      return PacketAction::kShed;
    }
    index = acquire_pending(packet.key, id, now);
    // tau_hash / tau_CDBsearch (Fig. 1, Table 3): sampled once per flow,
    // on the packet that creates its entry, by replaying the hash and a
    // read-only probe under a split stopwatch.  flow_id is pure and
    // find() is the non-counting twin of the probe above, so the replays
    // cost what the live calls cost, and the hit lane stays clock-free.
    util::SplitStopwatch tau;
    const net::FlowId rehash = net::flow_id(packet.key);
    tau.mark();
    const bool absent = cdb_.find(rehash)->state == FlowSlot::State::kEmpty;
    pool_[index].cdb_micros = static_cast<float>(tau.second_micros());
    pool_[index].hash_micros = static_cast<float>(tau.first_micros());
    DCHECK(absent) << "probe and replay disagree on an unknown flow";
  } else {
    index = slot->pending;
    unlink(list_of(pool_[index].queue), index);
  }
  PendingFlow& flow = pool_[index];
  flow.last_packet_at = now;

  PacketAction action = PacketAction::kIgnored;
  std::span<const std::uint8_t> bytes(flow.raw);
  bool borrowed = false;  // bytes is the packet's payload, not flow.raw
  if (packet.is_data()) {
    if (flow.data_packets == 0) flow.first_data_at = now;
    ++flow.data_packets;
    const std::size_t want = options_.header_threshold + flow.random_skip +
                             effective_buffer_size() + kMaxHeaderWait;
    const std::size_t room =
        flow.raw.size() < want ? want - flow.raw.size() : 0;
    const std::size_t take = std::min(room, packet.payload.size());
    if (flow.raw.empty()) {
      // Nothing buffered yet: work on the packet's own bytes, copying them
      // only if the flow stays pending.  With b = 32 one packet usually
      // resolves the skip and fills the window (c = 1).
      bytes = std::span<const std::uint8_t>(packet.payload).first(take);
      borrowed = true;
    } else {
      flow.raw.insert(flow.raw.end(), packet.payload.begin(),
                      packet.payload.begin() + static_cast<std::ptrdiff_t>(take));
      bytes = flow.raw;
    }
    action = PacketAction::kBuffered;
  }

  bool classify = false;
  bool timed_out = false;
  if (resolve_skip(flow, bytes) && buffer_full(flow, bytes)) {
    classify = true;
  } else if ((packet.flags.fin || packet.flags.rst) &&
             bytes.size() > flow.skip) {
    // Flow ended before the buffer filled: classify on what we have.
    flow.skip_resolved = true;
    classify = true;
    timed_out = true;
  }

  if (classify) {
    const datagen::FileClass label =
        classify_flow(flow, bytes, slot, now, timed_out);
    if (label_out != nullptr) *label_out = label;
    release_pending(index);
    action = PacketAction::kClassifiedNow;
  } else {
    if (borrowed) flow.raw.assign(bytes.begin(), bytes.end());
    if (fresh) cdb_.insert_pending(slot, id, index);
    enqueue(index, Queue::kActive);
  }

  if (++packets_since_flush_ >= 1024) {
    packets_since_flush_ = 0;
    flush_idle(now);
  }
  return action;
}

datagen::FileClass Iustitia::classify_flow(const PendingFlow& flow,
                                           std::span<const std::uint8_t> bytes,
                                           FlowSlot* slot, double now,
                                           bool timed_out) {
  const std::size_t available =
      bytes.size() > flow.skip ? bytes.size() - flow.skip : 0;
  const std::size_t take = std::min(available, effective_buffer_size());
  DCHECK_LE(flow.skip + take, bytes.size())
      << "classification window must stay inside the buffered bytes";
  // Extraction runs on the engine's own extractor copy (mutable Rng);
  // inference runs on the shared immutable model — the split that makes
  // one model safely shareable across shards and hot-swappable.
  ExtractionResult extraction =
      extractor_.extract(bytes.subspan(flow.skip, take));
  const datagen::FileClass label = model_->classify_features(extraction.features);

  cdb_.insert_at(slot, flow.id, label, now);
  cdb_.maybe_purge(now);

  FlowDelayRecord record;
  record.key = flow.key;
  record.label = label;
  record.buffered_bytes = static_cast<std::uint32_t>(take);
  record.classified_at = now;
  record.tau_b = flow.data_packets > 0 ? now - flow.first_data_at : 0.0;
  record.packets_to_fill = flow.data_packets;
  record.hash_micros = flow.hash_micros;
  record.cdb_micros = flow.cdb_micros;
  record.extract_micros = static_cast<float>(extraction.micros);
  delays_.push_back(record);

  ++stats_.flows_classified;
  if (timed_out) ++stats_.flows_timed_out;
  DCHECK_LT(static_cast<std::size_t>(label), stats_.queue_packets.size());
  ++stats_.queue_packets[static_cast<std::size_t>(label)];
  return label;
}

std::uint32_t Iustitia::acquire_pending(const net::FlowKey& key,
                                        const net::FlowId& id, double now) {
  std::uint32_t index = free_head_;
  if (index != kNil) {
    free_head_ = pool_[index].next;
  } else {
    CHECK_LT(pool_.size(), std::size_t{kNil}) << "pending-flow pool is full";
    index = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  PendingFlow& flow = pool_[index];
  flow.key = key;
  flow.id = id;
  flow.skip = 0;
  flow.random_skip = 0;
  if (options_.random_skip_max > 0) {
    flow.random_skip = static_cast<std::size_t>(
        rng_.next_below(options_.random_skip_max + 1));
  }
  flow.skip_resolved = false;
  flow.first_data_at = 0.0;
  flow.last_packet_at = now;
  flow.data_packets = 0;
  flow.prev = kNil;
  flow.next = kNil;
  ++pending_count_;
  return index;
}

void Iustitia::release_pending(std::uint32_t index) noexcept {
  PendingFlow& flow = pool_[index];
  // A free entry holds no buffer: a burst of pending flows must not stay
  // resident after it classifies.
  std::vector<std::uint8_t>().swap(flow.raw);
  flow.next = free_head_;
  free_head_ = index;
  --pending_count_;
}

void Iustitia::link_tail(FlowList& list, std::uint32_t index) noexcept {
  PendingFlow& flow = pool_[index];
  flow.prev = list.tail;
  flow.next = kNil;
  if (list.tail != kNil) {
    pool_[list.tail].next = index;
  } else {
    list.head = index;
  }
  list.tail = index;
}

void Iustitia::unlink(FlowList& list, std::uint32_t index) noexcept {
  const PendingFlow& flow = pool_[index];
  if (flow.prev != kNil) {
    pool_[flow.prev].next = flow.next;
  } else {
    list.head = flow.next;
  }
  if (flow.next != kNil) {
    pool_[flow.next].prev = flow.prev;
  } else {
    list.tail = flow.prev;
  }
}

void Iustitia::enqueue(std::uint32_t index, Queue queue) noexcept {
  if (queue == Queue::kActive) {
    const double at = pool_[index].last_packet_at;
    while (active_.tail != kNil && pool_[active_.tail].last_packet_at > at) {
      const std::uint32_t later = active_.tail;
      unlink(active_, later);
      pool_[later].queue = Queue::kAhead;
      link_tail(ahead_, later);
    }
  }
  pool_[index].queue = queue;
  link_tail(list_of(queue), index);
}

bool Iustitia::expire(std::uint32_t index, double now) {
  PendingFlow& flow = pool_[index];
  unlink(list_of(flow.queue), index);
  if (flow.raw.empty()) {
    // No payload after a whole timeout (SYN-only or scan traffic):
    // release the flow instead of holding it until flush_all.
    cdb_.erase_pending(cdb_.find(flow.id));
    ++stats_.flows_released;
    release_pending(index);
    return false;
  }
  flow.skip_resolved = true;
  if (flow.skip > flow.raw.size()) flow.skip = 0;  // header never came
  if (flow.raw.size() > flow.skip) {
    classify_flow(flow, flow.raw, cdb_.find(flow.id), now,
                  /*timed_out=*/true);
    release_pending(index);
    return true;
  }
  // The payload ends exactly at the skip: the flow waits for more bytes,
  // or for flush_all, which classifies it from offset 0.
  enqueue(index, Queue::kParked);
  return false;
}

std::size_t Iustitia::flush_idle(double now) {
  // The reclassification defense (Section 4.6) is time-driven, so it needs
  // purge opportunities even when no new flows are being inserted.
  if (options_.cdb.reclassify_after_seconds > 0.0) {
    cdb_.purge(now);
  }
  const double timeout = options_.buffer_timeout_seconds;
  std::size_t flushed = 0;
  // active_ is sorted, so its idle flows are a prefix.
  while (active_.head != kNil &&
         now - pool_[active_.head].last_packet_at >= timeout) {
    flushed += expire(active_.head, now) ? 1 : 0;
  }
  for (std::uint32_t index = ahead_.head; index != kNil;) {
    const std::uint32_t next = pool_[index].next;
    if (now - pool_[index].last_packet_at >= timeout) {
      flushed += expire(index, now) ? 1 : 0;
    }
    index = next;
  }
  return flushed;
}

std::size_t Iustitia::flush_all() {
  std::size_t flushed = 0;
  for (FlowList* list : {&parked_, &ahead_, &active_}) {
    while (list->head != kNil) {
      const std::uint32_t index = list->head;
      PendingFlow& flow = pool_[index];
      unlink(*list, index);
      flow.skip_resolved = true;
      if (flow.skip >= flow.raw.size()) flow.skip = 0;
      FlowSlot* slot = cdb_.find(flow.id);
      if (flow.raw.size() > flow.skip) {
        classify_flow(flow, flow.raw, slot, flow.last_packet_at,
                      /*timed_out=*/true);
        ++flushed;
      } else {
        cdb_.erase_pending(slot);  // never carried payload
        ++stats_.flows_released;
      }
      release_pending(index);
    }
  }
  // Nothing is pending any more: hand the pool itself back.
  std::vector<PendingFlow>().swap(pool_);
  free_head_ = kNil;
  return flushed;
}

std::optional<datagen::FileClass> Iustitia::label_of(const net::FlowKey& key) {
  return cdb_.peek(net::flow_id(key));
}

std::size_t Iustitia::pending_buffer_bytes() const noexcept {
  // Free entries hold no buffer, so the whole pool counts live flows only.
  std::size_t total = 0;
  for (const PendingFlow& flow : pool_) total += flow.raw.capacity();
  return total;
}

}  // namespace iustitia::core
