// Classification Database (CDB), paper Fig. 1 and Section 4.5, kept as
// the shard's one flow table.
//
// Maps 160-bit flow IDs to nature labels.  Each record stores the label,
// the last packet arrival time, lambda' (the inter-arrival gap of the
// flow's last two packets) and its classification time; the paper
// charges 194 bits per record (160-bit SHA-1 + 32-bit lambda' + 2-bit
// label), a slot here is 48 bytes.  Records leave the table three ways:
// explicit FIN/RST removal, the inactivity rule
// t_now - t_last > n * lambda', and never (when purging is disabled, the
// Fig. 8 baseline).  On top of the heuristics, CdbOptions::max_records
// is a hard ceiling: an insert that would exceed it first force-evicts
// one record chosen by CLOCK (accounted separately as forced_evictions),
// so resident memory is bounded even when the purge heuristics lose
// (DESIGN.md §12).  Every hit sets the record's reference bit; the
// eviction hand sweeps the slots, clearing set bits, and evicts the
// first record whose bit is already clear, so a record hit since the
// hand last passed it survives that sweep.
//
// Layout: one open-addressing table keyed by the flow id — linear
// probing from bucket id.prefix64() (SHA-1 output is already uniform),
// backward-shift deletion (no tombstones), load kept at or below 3/4,
// allocated on the first insert.  The same table holds the owning
// engine's pending flows (core/engine.h): a pending slot carries an index
// into the engine's pool of buffering state, and classification turns
// that slot into a record in place, so one probe per packet serves both.
// Pending slots are invisible to the CDB API: lookup, peek, size, purge
// and eviction see records only.
//
// Thread safety: single owner.  Everything except size() and stats()
// must run on the thread that owns the table; those two read
// single-writer relaxed atomics and may be called from any thread (the
// runtime's snapshot() scrapes them while workers run).
#ifndef IUSTITIA_CORE_CDB_H_
#define IUSTITIA_CORE_CDB_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.h"
#include "datagen/corpus.h"
#include "net/flow.h"

namespace iustitia::core {

// Lifetime counters for the CDB experiments.
struct CdbStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t fin_rst_removals = 0;
  std::uint64_t inactivity_removals = 0;
  std::uint64_t reclassification_removals = 0;
  std::uint64_t purge_runs = 0;
  // Hard-ceiling evictions (max_records), separate from the heuristic
  // removal counters above so operators can see when the heuristics are
  // losing to the ceiling.
  std::uint64_t forced_evictions = 0;
  // Inserts refused by fault injection (FAILPOINT("cdb.insert")).
  std::uint64_t insert_failures = 0;
};

// One table slot: empty, a pending flow, or a classified record.
struct FlowSlot {
  enum class State : std::uint8_t { kEmpty, kPending, kRecord };

  // Timing state of a record (Section 4.5).
  struct Timing {
    double last_arrival;  // t_last
    double lambda;        // lambda': gap between the last two packets
    double created_at;    // classification time (reclassification rule)
  };

  net::FlowId id;
  State state;
  std::uint8_t label;  // datagen::FileClass of a record
  bool referenced;     // CLOCK reference bit of a record
  union {
    Timing timing;          // kRecord
    std::uint32_t pending;  // kPending: the owning engine's pool index
  };

  datagen::FileClass file_class() const noexcept {
    return static_cast<datagen::FileClass>(label);
  }
};
static_assert(sizeof(FlowSlot) == 48, "a flow-table slot is 48 bytes");

class ClassificationDatabase {
 public:
  // CHECK-validates the options: inactivity_coefficient and default_lambda
  // must be positive, reclassify_after_seconds non-negative.  Allocates
  // nothing: the table appears with the first insert.
  explicit ClassificationDatabase(const CdbOptions& options = {});

  // Looks up a flow; on a hit refreshes t_last and lambda'.
  std::optional<datagen::FileClass> lookup(const net::FlowId& id, double now);

  // Read-only lookup that does not touch timing state (for inspection).
  std::optional<datagen::FileClass> peek(const net::FlowId& id) const;

  // Inserts (or overwrites) a freshly classified flow, force-evicting one
  // record first when the max_records ceiling is reached.  Returns false
  // when the insert was refused (injected allocation failure) — the flow
  // is simply not cached and will be reclassified on its next packets.
  bool insert(const net::FlowId& id, datagen::FileClass label, double now);

  // FIN/RST handler: removes the flow if present (no-op when disabled).
  void remove_on_close(const net::FlowId& id);

  // Called once per classification by the engine; runs the inactivity
  // purge when the insert counter crosses the configured trigger.
  void maybe_purge(double now);

  // Unconditional inactivity purge; returns records removed.
  std::size_t purge(double now);

  // Classified records held (pending flows excluded).  Any thread.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(load(kRecords));
  }

  // Memory footprint using the paper's 194-bit record accounting.
  std::uint64_t memory_bits() const noexcept { return size() * 194; }

  // Bytes the table itself occupies (every slot, empty ones included).
  std::size_t table_bytes() const noexcept {
    return slots_.size() * sizeof(FlowSlot);
  }

  // Snapshot of the lifetime counters.  Any thread; mid-run the counters
  // may be skewed against each other, each is a real value.
  CdbStats stats() const noexcept;
  const CdbOptions& options() const noexcept { return options_; }

  // ---- Flow-table API of the owning engine ---------------------------
  // Slot pointers stay valid until the next insert into an empty slot,
  // erase, purge or forced eviction.

  // The engine's one probe per packet: counts a lookup and returns the
  // slot holding `id` — on a record also refreshing t_last and lambda',
  // setting the reference bit and counting a hit, as lookup() does — or
  // the empty slot where `id` would go.
  FlowSlot* probe(const net::FlowId& id, double now) noexcept;

  // As probe(), counting and refreshing nothing.
  FlowSlot* find(const net::FlowId& id) noexcept;
  const FlowSlot* find(const net::FlowId& id) const noexcept;

  // Puts a pending flow with pool index `pending` into the empty slot
  // `at` that probe()/find() returned for `id`.  May grow the table.
  void insert_pending(FlowSlot* at, const net::FlowId& id,
                      std::uint32_t pending);

  // insert() at a slot probe()/find() returned for `id`: the empty slot,
  // the flow's pending slot (which becomes the record in place), or its
  // record (overwrite).  A refused insert releases a pending slot.
  bool insert_at(FlowSlot* at, const net::FlowId& id,
                 datagen::FileClass label, double now);

  // remove_on_close() for a record probe() returned.
  void close_record(FlowSlot* record) noexcept;

  // Drops a pending slot whose flow the engine released unclassified.
  void erase_pending(FlowSlot* slot) noexcept;

 private:
  // Single-writer counters; kRecords is size().
  enum Counter : std::size_t {
    kLookups,
    kHits,
    kInserts,
    kFinRstRemovals,
    kInactivityRemovals,
    kReclassificationRemovals,
    kPurgeRuns,
    kForcedEvictions,
    kInsertFailures,
    kRecords,
    kCounterCount,
  };

  // Only the owning thread writes, so an update is a relaxed load plus a
  // relaxed store: no locked read-modify-write on the packet path.
  void add(Counter c, std::uint64_t n) noexcept {
    counters_[c].store(counters_[c].load(std::memory_order_relaxed) + n,
                       std::memory_order_relaxed);
  }
  std::uint64_t load(Counter c) const noexcept {
    return counters_[c].load(std::memory_order_relaxed);
  }

  std::size_t bucket(const net::FlowId& id) const noexcept {
    return static_cast<std::size_t>(id.prefix64()) & mask_;
  }
  // Index of the slot holding `id`, or of the empty slot where it would
  // go.  The table must exist.
  std::size_t index_of(const net::FlowId& id) const noexcept;
  // Takes the empty slot `at` that find() returned for `id`, growing the
  // table first when one more slot would pass the load limit.
  FlowSlot* claim(FlowSlot* at, const net::FlowId& id);
  // Empties slot `index` and shifts the rest of its probe run back.
  void erase_at(std::size_t index) noexcept;
  // Doubles the table (first call allocates it) and reinserts every slot.
  void grow();
  // Evicts one record by CLOCK, counting a forced eviction.
  void evict_one() noexcept;

  const CdbOptions options_;  // immutable after construction
  std::vector<FlowSlot> slots_;  // power-of-two size, or empty
  std::size_t mask_ = 0;
  std::size_t occupied_ = 0;  // records + pending slots
  std::size_t hand_ = 0;      // CLOCK eviction hand
  std::size_t inserts_since_purge_ = 0;
  // What probe() returns before the table exists; never written.
  FlowSlot vacant_{};
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};  // analyze: atomic(relaxed-counter)
};

}  // namespace iustitia::core

#endif  // IUSTITIA_CORE_CDB_H_
