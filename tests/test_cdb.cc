// Tests for the Classification Database: lookup/refresh semantics, FIN/RST
// removal, and the n*lambda inactivity purge of Section 4.5.
#include "core/cdb.h"

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/sha1.h"

namespace iustitia::core {
namespace {

using datagen::FileClass;

net::FlowId id_of(int n) { return util::sha1("flow-" + std::to_string(n)); }

TEST(Cdb, MissThenInsertThenHit) {
  ClassificationDatabase cdb;
  EXPECT_EQ(cdb.lookup(id_of(1), 0.0), std::nullopt);
  cdb.insert(id_of(1), FileClass::kBinary, 0.0);
  EXPECT_EQ(cdb.lookup(id_of(1), 0.1), FileClass::kBinary);
  EXPECT_EQ(cdb.size(), 1u);
  EXPECT_EQ(cdb.stats().lookups, 2u);
  EXPECT_EQ(cdb.stats().hits, 1u);
  EXPECT_EQ(cdb.stats().inserts, 1u);
}

TEST(Cdb, PeekDoesNotRefreshTiming) {
  CdbOptions options;
  options.inactivity_coefficient = 2.0;
  options.default_lambda = 0.5;
  ClassificationDatabase cdb(options);
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  // Many peeks later, the record still purges based on the insert time.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cdb.peek(id_of(1)), FileClass::kText);
  }
  EXPECT_EQ(cdb.purge(10.0), 1u);
  EXPECT_EQ(cdb.peek(id_of(1)), std::nullopt);
}

TEST(Cdb, LookupRefreshesLambdaFromObservedGap) {
  CdbOptions options;
  options.inactivity_coefficient = 4.0;
  options.default_lambda = 0.5;
  ClassificationDatabase cdb(options);
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  // Packet at t=2.0: lambda' becomes 2.0; obsolete only after t > 2 + 8.
  EXPECT_TRUE(cdb.lookup(id_of(1), 2.0).has_value());
  EXPECT_EQ(cdb.purge(9.9), 0u);
  EXPECT_EQ(cdb.purge(10.1), 1u);
}

TEST(Cdb, DefaultLambdaUsedForSinglePacketFlows) {
  CdbOptions options;
  options.inactivity_coefficient = 4.0;
  options.default_lambda = 0.5;  // n * lambda = 2.0 seconds
  ClassificationDatabase cdb(options);
  cdb.insert(id_of(1), FileClass::kEncrypted, 0.0);
  EXPECT_EQ(cdb.purge(1.9), 0u);
  EXPECT_EQ(cdb.purge(2.1), 1u);
}

TEST(Cdb, FinRstRemoval) {
  ClassificationDatabase cdb;
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  cdb.insert(id_of(2), FileClass::kBinary, 0.0);
  cdb.remove_on_close(id_of(1));
  EXPECT_EQ(cdb.size(), 1u);
  EXPECT_EQ(cdb.stats().fin_rst_removals, 1u);
  // Removing an absent flow is a no-op.
  cdb.remove_on_close(id_of(99));
  EXPECT_EQ(cdb.stats().fin_rst_removals, 1u);
}

TEST(Cdb, FinRstRemovalCanBeDisabled) {
  CdbOptions options;
  options.fin_rst_removal_enabled = false;
  ClassificationDatabase cdb(options);
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  cdb.remove_on_close(id_of(1));
  EXPECT_EQ(cdb.size(), 1u);
}

TEST(Cdb, InactivityPurgeCanBeDisabled) {
  CdbOptions options;
  options.inactivity_purge_enabled = false;
  ClassificationDatabase cdb(options);
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  EXPECT_EQ(cdb.purge(1e9), 0u);
  EXPECT_EQ(cdb.size(), 1u);
}

TEST(Cdb, MaybePurgeHonorsTriggerThreshold) {
  CdbOptions options;
  options.purge_trigger_flows = 10;
  options.inactivity_coefficient = 1.0;
  options.default_lambda = 0.001;  // everything old is purgeable
  ClassificationDatabase cdb(options);
  for (int i = 0; i < 9; ++i) {
    cdb.insert(id_of(i), FileClass::kText, 0.0);
    cdb.maybe_purge(100.0);
  }
  EXPECT_EQ(cdb.stats().purge_runs, 0u);  // below trigger
  cdb.insert(id_of(9), FileClass::kText, 100.0);
  cdb.maybe_purge(100.0);
  EXPECT_EQ(cdb.stats().purge_runs, 1u);
  EXPECT_EQ(cdb.size(), 1u);  // only the fresh flow survives
}

TEST(Cdb, MemoryBitsUsePaperRecordSize) {
  ClassificationDatabase cdb;
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  cdb.insert(id_of(2), FileClass::kText, 0.0);
  EXPECT_EQ(cdb.memory_bits(), 2u * 194u);
}

TEST(Cdb, OverwriteKeepsSingleRecord) {
  ClassificationDatabase cdb;
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  cdb.insert(id_of(1), FileClass::kEncrypted, 1.0);
  EXPECT_EQ(cdb.size(), 1u);
  EXPECT_EQ(cdb.peek(id_of(1)), FileClass::kEncrypted);
}

TEST(Cdb, ReclassificationRuleDeletesOldRecords) {
  CdbOptions options;
  options.reclassify_after_seconds = 10.0;
  options.inactivity_coefficient = 1000.0;  // inactivity never triggers here
  options.default_lambda = 1000.0;
  ClassificationDatabase cdb(options);
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  // Keep the flow active so only the reclassification rule can remove it.
  cdb.lookup(id_of(1), 5.0);
  EXPECT_EQ(cdb.purge(9.0), 0u);
  EXPECT_EQ(cdb.purge(10.5), 1u);
  EXPECT_EQ(cdb.stats().reclassification_removals, 1u);
  EXPECT_EQ(cdb.stats().inactivity_removals, 0u);
}

TEST(Cdb, ReclassificationDisabledByDefault) {
  CdbOptions options;
  options.inactivity_coefficient = 1000.0;
  options.default_lambda = 1000.0;
  ClassificationDatabase cdb(options);
  cdb.insert(id_of(1), FileClass::kText, 0.0);
  cdb.lookup(id_of(1), 1.0);  // lambda' = 1.0 -> obsolete only after t=1001
  EXPECT_EQ(cdb.purge(500.0), 0u);  // old record, but no reclassify rule
}

TEST(Cdb, PurgeCountsInStats) {
  CdbOptions options;
  options.inactivity_coefficient = 1.0;
  options.default_lambda = 0.1;
  ClassificationDatabase cdb(options);
  for (int i = 0; i < 5; ++i) cdb.insert(id_of(i), FileClass::kBinary, 0.0);
  EXPECT_EQ(cdb.purge(1.0), 5u);
  EXPECT_EQ(cdb.stats().inactivity_removals, 5u);
  EXPECT_EQ(cdb.size(), 0u);
}

// CLOCK ceiling contract: the bound holds after every insert, each
// insert beyond it forces exactly one eviction, and the record being
// inserted is never its own insert's victim.
TEST(Cdb, HardCeilingBoundsRecordsUnderClockEviction) {
  CdbOptions options;
  options.max_records = 4;
  ClassificationDatabase cdb(options);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(cdb.insert(id_of(i), FileClass::kBinary, 0.1 * i));
    EXPECT_LE(cdb.size(), 4u);
    EXPECT_EQ(cdb.peek(id_of(i)), FileClass::kBinary) << i;
  }
  EXPECT_EQ(cdb.size(), 4u);
  EXPECT_EQ(cdb.stats().forced_evictions, 2u);
  int resident = 0;
  for (int i = 0; i < 6; ++i) resident += cdb.peek(id_of(i)).has_value();
  EXPECT_EQ(resident, 4);
}

// CLOCK's recency contract: a record hit since the hand last passed it
// survives the sweep; the unreferenced records go first.
TEST(Cdb, ClockEvictionSparesRecentlyHitRecords) {
  CdbOptions options;
  options.max_records = 8;
  ClassificationDatabase cdb(options);
  for (int i = 0; i < 8; ++i) cdb.insert(id_of(i), FileClass::kText, 0.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cdb.lookup(id_of(i), 1.0), FileClass::kText);
  }
  for (int i = 8; i < 12; ++i) cdb.insert(id_of(i), FileClass::kText, 2.0);
  EXPECT_EQ(cdb.size(), 8u);
  EXPECT_EQ(cdb.stats().forced_evictions, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cdb.peek(id_of(i)), FileClass::kText) << "hit record " << i;
  }
}

// Property soak: under a random mix of inserts, overwrites, FIN/RST
// removals, and inactivity purges the resident size never exceeds the
// ceiling, and at the end every departure is accounted for exactly:
//   new records = resident + fin/rst + inactivity + forced evictions.
TEST(Cdb, CeilingPropertyHoldsUnderRandomizedChurn) {
  CdbOptions options;
  options.max_records = 16;
  options.inactivity_coefficient = 3.0;
  options.default_lambda = 0.5;
  ClassificationDatabase cdb(options);

  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> flow_pick(0, 63);
  std::uniform_int_distribution<int> op_pick(0, 9);
  std::uint64_t new_records = 0;
  double now = 0.0;
  for (int step = 0; step < 2000; ++step) {
    now += 0.05;
    const net::FlowId id = id_of(flow_pick(rng));
    const int op = op_pick(rng);
    if (op < 7) {
      if (!cdb.peek(id).has_value()) ++new_records;
      EXPECT_TRUE(cdb.insert(id, FileClass::kBinary, now));
    } else if (op < 9) {
      cdb.remove_on_close(id);
    } else {
      cdb.purge(now);
    }
    ASSERT_LE(cdb.size(), 16u) << "step " << step;
  }
  const CdbStats stats = cdb.stats();
  EXPECT_GT(stats.forced_evictions, 0u);
  EXPECT_EQ(new_records,
            cdb.size() + stats.fin_rst_removals +
                stats.inactivity_removals + stats.forced_evictions);
}

// The flat table against a std::map reference model: thousands of ids
// through table growth, overwrites, lookups, FIN/RST erases and purge
// sweeps, whose backward shifts move the surviving slots.  After every
// purge each id must read back exactly as the reference says.
TEST(Cdb, TableMatchesReferenceModelUnderChurn) {
  CdbOptions options;
  options.inactivity_coefficient = 2.0;
  options.default_lambda = 0.3;
  options.reclassify_after_seconds = 3.0;
  ClassificationDatabase cdb(options);
  struct Ref {
    FileClass label;
    double last;
    double lambda;
    double created;
  };
  constexpr int kFlows = 3000;
  std::vector<net::FlowId> ids;
  for (int i = 0; i < kFlows; ++i) ids.push_back(id_of(i));
  std::map<int, Ref> ref;

  std::mt19937 rng(20261016);
  std::uniform_int_distribution<int> flow_pick(0, kFlows - 1);
  std::uniform_int_distribution<int> op_pick(0, 99);
  double now = 0.0;
  int purges = 0;
  for (int step = 0; step < 30000; ++step) {
    now += 0.001;
    const int n = flow_pick(rng);
    const int op = op_pick(rng);
    if (op < 50) {
      const auto label = static_cast<FileClass>(n % 3);
      ASSERT_TRUE(cdb.insert(ids[n], label, now));
      ref[n] = {label, now, options.default_lambda, now};
    } else if (op < 80) {
      const std::optional<FileClass> got = cdb.lookup(ids[n], now);
      const auto it = ref.find(n);
      ASSERT_EQ(got.has_value(), it != ref.end()) << "step " << step;
      if (it != ref.end()) {
        ASSERT_EQ(*got, it->second.label);
        it->second.lambda = now - it->second.last;
        it->second.last = now;
      }
    } else if (op < 99) {
      cdb.remove_on_close(ids[n]);
      ref.erase(n);
    } else {
      std::size_t removed = 0;
      for (auto it = ref.begin(); it != ref.end();) {
        const Ref& r = it->second;
        if (now - r.last > options.inactivity_coefficient * r.lambda ||
            now - r.created > options.reclassify_after_seconds) {
          it = ref.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(cdb.purge(now), removed) << "step " << step;
      ++purges;
      for (int i = 0; i < kFlows; ++i) {
        const auto it = ref.find(i);
        const std::optional<FileClass> want =
            it == ref.end() ? std::nullopt
                            : std::optional<FileClass>(it->second.label);
        ASSERT_EQ(cdb.peek(ids[i]), want) << "flow " << i << " step " << step;
      }
    }
    ASSERT_EQ(cdb.size(), ref.size()) << "step " << step;
  }
  EXPECT_GT(purges, 100);
  EXPECT_GT(cdb.stats().inactivity_removals, 0u);
  EXPECT_GT(cdb.stats().reclassification_removals, 0u);
}

}  // namespace
}  // namespace iustitia::core
