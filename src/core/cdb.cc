#include "core/cdb.h"

#include <utility>

#include "util/check.h"
#include "util/failpoint.h"

namespace iustitia::core {

namespace {

// First allocation: 1024 slots (48 KB), doubled whenever an insert would
// lift the load above 3/4.
constexpr std::size_t kInitialSlots = 1024;

bool over_load(std::size_t occupied, std::size_t slots) noexcept {
  return occupied * 4 > slots * 3;
}

}  // namespace

ClassificationDatabase::ClassificationDatabase(const CdbOptions& options)
    : options_(options) {
  CHECK_GT(options_.inactivity_coefficient, 0.0)
      << "CDB inactivity rule needs a positive n";
  CHECK_GT(options_.default_lambda, 0.0)
      << "single-packet flows need a positive default lambda'";
  CHECK_GE(options_.reclassify_after_seconds, 0.0);
}

std::size_t ClassificationDatabase::index_of(
    const net::FlowId& id) const noexcept {
  std::size_t i = bucket(id);
  while (slots_[i].state != FlowSlot::State::kEmpty && !(slots_[i].id == id)) {
    i = (i + 1) & mask_;
  }
  return i;
}

const FlowSlot* ClassificationDatabase::find(
    const net::FlowId& id) const noexcept {
  return slots_.empty() ? &vacant_ : &slots_[index_of(id)];
}

FlowSlot* ClassificationDatabase::find(const net::FlowId& id) noexcept {
  return slots_.empty() ? &vacant_ : &slots_[index_of(id)];
}

// The CDB-hit lane: one probe, timing refresh, two counter stores.
FlowSlot* ClassificationDatabase::probe(const net::FlowId& id,
                                        double now) noexcept {
  add(kLookups, 1);
  FlowSlot* slot = find(id);
  if (slot->state == FlowSlot::State::kRecord) {
    add(kHits, 1);
    slot->timing.lambda = now - slot->timing.last_arrival;
    slot->timing.last_arrival = now;
    slot->referenced = true;
  }
  return slot;
}

std::optional<datagen::FileClass> ClassificationDatabase::lookup(
    const net::FlowId& id, double now) {
  const FlowSlot* slot = probe(id, now);
  if (slot->state != FlowSlot::State::kRecord) return std::nullopt;
  return slot->file_class();
}

std::optional<datagen::FileClass> ClassificationDatabase::peek(
    const net::FlowId& id) const {
  const FlowSlot* slot = find(id);
  if (slot->state != FlowSlot::State::kRecord) return std::nullopt;
  return slot->file_class();
}

bool ClassificationDatabase::insert(const net::FlowId& id,
                                    datagen::FileClass label, double now) {
  FlowSlot* at = find(id);
  DCHECK(at->state != FlowSlot::State::kPending)
      << "pending flows belong to the owning engine";
  return insert_at(at, id, label, now);
}

void ClassificationDatabase::insert_pending(FlowSlot* at,
                                            const net::FlowId& id,
                                            std::uint32_t pending) {
  DCHECK(at->state == FlowSlot::State::kEmpty);
  at = claim(at, id);
  at->state = FlowSlot::State::kPending;
  at->pending = pending;
}

FlowSlot* ClassificationDatabase::claim(FlowSlot* at, const net::FlowId& id) {
  if (over_load(occupied_ + 1, slots_.size())) {
    grow();
    at = find(id);
  }
  at->id = id;
  ++occupied_;
  return at;
}

bool ClassificationDatabase::insert_at(FlowSlot* at, const net::FlowId& id,
                                       datagen::FileClass label, double now) {
  // Fault injection: an armed cdb.insert point (error/alloc-fail)
  // simulates the record allocation failing — the flow is just not
  // cached, which is the designed degradation.
  const util::FailpointAction injected = FAILPOINT("cdb.insert");
  if (injected == util::FailpointAction::kError ||
      injected == util::FailpointAction::kAllocFail) {
    add(kInsertFailures, 1);
    if (at->state == FlowSlot::State::kPending) erase_pending(at);
    return false;
  }
  add(kInserts, 1);
  ++inserts_since_purge_;
  if (at->state != FlowSlot::State::kRecord) {
    // A new record.  Eviction and growth both move slots, so the target
    // is found again after either.
    if (options_.max_records > 0 && load(kRecords) >= options_.max_records) {
      while (load(kRecords) >= options_.max_records) evict_one();
      at = find(id);
    }
    if (at->state == FlowSlot::State::kEmpty) at = claim(at, id);
    add(kRecords, 1);
  }
  at->state = FlowSlot::State::kRecord;
  at->label = static_cast<std::uint8_t>(label);
  at->referenced = false;
  at->timing.last_arrival = now;
  at->timing.lambda = options_.default_lambda;
  at->timing.created_at = now;
  return true;
}

void ClassificationDatabase::remove_on_close(const net::FlowId& id) {
  FlowSlot* slot = find(id);
  if (slot->state == FlowSlot::State::kRecord) close_record(slot);
}

void ClassificationDatabase::close_record(FlowSlot* record) noexcept {
  if (!options_.fin_rst_removal_enabled) return;
  erase_at(static_cast<std::size_t>(record - slots_.data()));
  add(kFinRstRemovals, 1);
}

void ClassificationDatabase::erase_pending(FlowSlot* slot) noexcept {
  DCHECK(slot->state == FlowSlot::State::kPending);
  erase_at(static_cast<std::size_t>(slot - slots_.data()));
}

void ClassificationDatabase::erase_at(std::size_t hole) noexcept {
  if (slots_[hole].state == FlowSlot::State::kRecord) {
    counters_[kRecords].store(load(kRecords) - 1, std::memory_order_relaxed);
  }
  --occupied_;
  // Backward shift: walk the rest of the probe run and move back every
  // slot whose home bucket does not lie in (hole, j], so each stays
  // reachable from its home without tombstones.
  for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
    const FlowSlot& slot = slots_[j];
    if (slot.state == FlowSlot::State::kEmpty) break;
    const std::size_t home = bucket(slot.id);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slot;
      hole = j;
    }
  }
  slots_[hole].state = FlowSlot::State::kEmpty;
}

void ClassificationDatabase::grow() {
  std::vector<FlowSlot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, FlowSlot{});
  mask_ = slots_.size() - 1;
  hand_ = 0;
  for (const FlowSlot& slot : old) {
    if (slot.state == FlowSlot::State::kEmpty) continue;
    std::size_t i = bucket(slot.id);
    while (slots_[i].state != FlowSlot::State::kEmpty) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

void ClassificationDatabase::evict_one() noexcept {
  // CLOCK: a referenced record loses its bit and is passed over; the
  // first unreferenced record under the hand goes.  At least one record
  // exists (the ceiling is positive), so this ends within two laps.
  for (;; hand_ = (hand_ + 1) & mask_) {
    FlowSlot& slot = slots_[hand_];
    if (slot.state != FlowSlot::State::kRecord) continue;
    if (slot.referenced) {
      slot.referenced = false;
      continue;
    }
    // The hand stays put: the slot shifted into this index is next.
    erase_at(hand_);
    add(kForcedEvictions, 1);
    return;
  }
}

void ClassificationDatabase::maybe_purge(double now) {
  if (!options_.inactivity_purge_enabled) return;
  if (inserts_since_purge_ < options_.purge_trigger_flows) return;
  purge(now);
  inserts_since_purge_ = 0;
}

std::size_t ClassificationDatabase::purge(double now) {
  if (!options_.inactivity_purge_enabled) return 0;
  add(kPurgeRuns, 1);
  if (slots_.empty()) return 0;
  // One sweep over the slots, starting just past an empty one: no probe
  // run crosses the start, so the backward shift of an erase only moves
  // slots to indices the sweep has not passed yet.  After an erase the
  // same index is examined again.
  const std::size_t records_before = load(kRecords);
  std::size_t start = 0;
  while (slots_[start].state != FlowSlot::State::kEmpty) ++start;
  std::size_t inactive = 0;
  std::size_t stale = 0;
  for (std::size_t step = 1; step <= slots_.size();) {
    const std::size_t i = (start + step) & mask_;
    const FlowSlot& slot = slots_[i];
    if (slot.state == FlowSlot::State::kRecord) {
      if (now - slot.timing.last_arrival >
          options_.inactivity_coefficient * slot.timing.lambda) {
        erase_at(i);
        ++inactive;
        continue;
      }
      if (options_.reclassify_after_seconds > 0.0 &&
          now - slot.timing.created_at > options_.reclassify_after_seconds) {
        // Section 4.6: force periodic reclassification of long-lived flows.
        erase_at(i);
        ++stale;
        continue;
      }
    }
    ++step;
  }
  add(kInactivityRemovals, inactive);
  add(kReclassificationRemovals, stale);
  DCHECK_EQ(records_before, load(kRecords) + inactive + stale)
      << "purge must account for every removed record";
  return inactive + stale;
}

CdbStats ClassificationDatabase::stats() const noexcept {
  CdbStats s;
  s.lookups = load(kLookups);
  s.hits = load(kHits);
  s.inserts = load(kInserts);
  s.fin_rst_removals = load(kFinRstRemovals);
  s.inactivity_removals = load(kInactivityRemovals);
  s.reclassification_removals = load(kReclassificationRemovals);
  s.purge_runs = load(kPurgeRuns);
  s.forced_evictions = load(kForcedEvictions);
  s.insert_failures = load(kInsertFailures);
  return s;
}

}  // namespace iustitia::core
