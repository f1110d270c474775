// Consistency contract of the filter registry (core/registry.h): one
// table is the single source of truth behind CreateFilter (factory),
// CreateFilterForTag (snapshot tag dispatch), and sharded snapshot
// recovery. These tests pin the invariants the old per-call-site if-chains
// could silently drift on: every factory name builds a filter whose
// Name() is its canonical tag, every registered tag loads, snapshot-only
// tags stay out of the factory, and aliases resolve without minting a
// second tag.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/filter_io.h"
#include "core/registry.h"

namespace bbf {
namespace {

TEST(Registry, FactoryNamesAreSortedRegisteredAndFactoryVisible) {
  const auto names = KnownFilterNames();
  ASSERT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "duplicate factory name";
  for (std::string_view name : names) {
    const FilterEntry* entry = FindFilterEntry(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_TRUE(entry->in_factory) << name;
  }
}

TEST(Registry, EveryFactoryFilterReportsItsCanonicalTag) {
  for (std::string_view name : KnownFilterNames()) {
    const auto f = CreateFilter(name, 1000, 0.01);
    ASSERT_NE(f, nullptr) << name;
    const FilterEntry* entry = FindFilterEntry(name);
    ASSERT_NE(entry, nullptr) << name;
    // Name() must equal the canonical tag — LoadFilterSnapshot routes
    // frames by this exact string, and rejects a mismatched load.
    EXPECT_EQ(f->Name(), entry->tag) << name;
  }
}

TEST(Registry, NoOrphanTags) {
  // Every registered tag (factory-visible or snapshot-only) must build
  // through the tag dispatcher, and the built filter must claim the same
  // tag back — otherwise a snapshot written today could never load.
  for (std::string_view tag : RegisteredFilterTags()) {
    const auto f = CreateFilterForTag(tag, 1000);
    ASSERT_NE(f, nullptr) << tag;
    EXPECT_EQ(f->Name(), tag) << tag;
  }
}

TEST(Registry, EveryTagRoundTripsThroughSnapshotIo) {
  for (std::string_view tag : RegisteredFilterTags()) {
    const auto f = CreateFilterForTag(tag, 1000);
    ASSERT_NE(f, nullptr) << tag;
    // Static families reject inserts (empty build stands in until Load);
    // everyone else takes the keys. Either way the frame must round-trip.
    for (uint64_t k = 1; k <= 64; ++k) f->Insert(k);
    std::ostringstream os;
    ASSERT_TRUE(f->Save(os)) << tag;
    std::istringstream is(os.str());
    const auto loaded = LoadFilterSnapshot(is);
    ASSERT_NE(loaded, nullptr) << tag;
    EXPECT_EQ(loaded->Name(), tag) << tag;
    EXPECT_EQ(loaded->NumKeys(), f->NumKeys()) << tag;
  }
}

TEST(Registry, SnapshotOnlyTagsAreNotFactoryVisible) {
  // Families whose parameters don't fit (n, fpr) — static filters want
  // the key set up front, spectral wants a bits budget — load from
  // snapshots but are rejected by the factory.
  for (std::string_view tag : {"xor", "ribbon", "spectral-bloom"}) {
    const FilterEntry* entry = FindFilterEntry(tag);
    ASSERT_NE(entry, nullptr) << tag;
    EXPECT_FALSE(entry->in_factory) << tag;
    EXPECT_EQ(CreateFilter(tag, 1000, 0.01), nullptr) << tag;
    EXPECT_NE(CreateFilterForTag(tag, 1000), nullptr) << tag;
  }
  const auto names = KnownFilterNames();
  for (std::string_view tag : {"xor", "ribbon", "spectral-bloom"}) {
    EXPECT_EQ(std::count(names.begin(), names.end(), tag), 0) << tag;
  }
}

TEST(Registry, AliasResolvesToCanonicalEntryWithoutMintingATag) {
  // "dleft" is a factory-visible alias of "dleft-counting": same entry,
  // same built family, and no "dleft" snapshot tag exists.
  const FilterEntry* alias = FindFilterEntry("dleft");
  const FilterEntry* canon = FindFilterEntry("dleft-counting");
  ASSERT_NE(alias, nullptr);
  ASSERT_NE(canon, nullptr);
  EXPECT_EQ(alias, canon);
  const auto f = CreateFilter("dleft", 1000, 0.01);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->Name(), "dleft-counting");
  const auto tags = RegisteredFilterTags();
  EXPECT_EQ(std::count(tags.begin(), tags.end(), "dleft"), 0);
  const auto names = KnownFilterNames();
  EXPECT_EQ(std::count(names.begin(), names.end(), "dleft"), 1);
}

TEST(Registry, UnknownNamesStayUnknownEverywhere) {
  EXPECT_EQ(FindFilterEntry("no-such-filter"), nullptr);
  EXPECT_EQ(CreateFilter("no-such-filter", 100, 0.01), nullptr);
  EXPECT_EQ(CreateFilterForTag("no-such-filter", 100), nullptr);
}

// --- Capability metadata (FilterCaps) ---------------------------------------
// The caps bits are contract: the Tuner's migration decision table picks
// target families by supports_erase/supports_adapt/build_cost, so a row
// that drifts from the family's real behavior silently mis-routes
// migrations. Pin the declared table, then verify each bit behaviorally.

struct CapsRow {
  std::string_view tag;
  bool supports_erase;
  bool supports_adapt;
  BuildCostClass build_cost;
};

TEST(RegistryCaps, DeclaredCapsTableIsPinned) {
  // One row per canonical tag. A new family must add a row here (and the
  // size check below makes forgetting impossible).
  static constexpr CapsRow kRows[] = {
      {"adaptive-cuckoo", true, true, BuildCostClass::kExpensive},
      {"adaptive-quotient", true, true, BuildCostClass::kExpensive},
      {"blocked-bloom", false, false, BuildCostClass::kCheap},
      {"bloom", false, false, BuildCostClass::kCheap},
      {"chained-quotient", true, false, BuildCostClass::kModerate},
      {"counting-bloom", true, false, BuildCostClass::kCheap},
      {"counting-quotient", true, false, BuildCostClass::kModerate},
      {"cuckoo", true, false, BuildCostClass::kModerate},
      {"dleft-counting", true, false, BuildCostClass::kModerate},
      {"expanding-quotient", true, false, BuildCostClass::kModerate},
      {"memento", false, false, BuildCostClass::kModerate},
      {"prefix", false, false, BuildCostClass::kModerate},
      {"quotient", true, false, BuildCostClass::kModerate},
      {"ribbon", false, false, BuildCostClass::kExpensive},
      {"ring", true, false, BuildCostClass::kModerate},
      {"rsqf", false, false, BuildCostClass::kModerate},
      {"scalable-bloom", false, false, BuildCostClass::kCheap},
      {"spectral-bloom", false, false, BuildCostClass::kCheap},
      {"taffy", true, false, BuildCostClass::kModerate},
      {"vector-quotient", true, false, BuildCostClass::kModerate},
      {"xor", false, false, BuildCostClass::kExpensive},
  };
  const auto tags = RegisteredFilterTags();
  ASSERT_EQ(tags.size(), std::size(kRows))
      << "a family was registered without a caps row in this table";
  for (const CapsRow& row : kRows) {
    const FilterEntry* entry = FindFilterEntry(row.tag);
    ASSERT_NE(entry, nullptr) << row.tag;
    EXPECT_EQ(entry->caps.supports_erase, row.supports_erase) << row.tag;
    EXPECT_EQ(entry->caps.supports_adapt, row.supports_adapt) << row.tag;
    EXPECT_EQ(entry->caps.build_cost, row.build_cost) << row.tag;
  }
}

TEST(RegistryCaps, DeclaredEraseMatchesBehaviorForEveryFamily) {
  for (std::string_view tag : RegisteredFilterTags()) {
    const FilterEntry* entry = FindFilterEntry(tag);
    ASSERT_NE(entry, nullptr) << tag;
    const auto f = CreateFilterForTag(tag, 1000);
    ASSERT_NE(f, nullptr) << tag;
    size_t inserted = 0;
    for (uint64_t k = 1; k <= 128; ++k) inserted += f->Insert(k);
    if (inserted == 0) {
      // Static families reject inserts before their build; a family that
      // cannot insert cannot honestly claim erase either.
      EXPECT_FALSE(entry->caps.supports_erase) << tag;
      continue;
    }
    // Erase of a just-inserted key must succeed exactly when the registry
    // says it does — a bit-set family returns false (no-op), an
    // erase-capable family returns true.
    EXPECT_EQ(f->Erase(uint64_t{1}), entry->caps.supports_erase) << tag;
  }
}

TEST(RegistryCaps, DeclaredAdaptMatchesAdaptiveHookForEveryFamily) {
  for (std::string_view tag : RegisteredFilterTags()) {
    const FilterEntry* entry = FindFilterEntry(tag);
    ASSERT_NE(entry, nullptr) << tag;
    const auto f = CreateFilterForTag(tag, 1000);
    ASSERT_NE(f, nullptr) << tag;
    const bool has_hook = dynamic_cast<AdaptiveHook*>(f.get()) != nullptr;
    EXPECT_EQ(has_hook, entry->caps.supports_adapt)
        << tag << ": declared supports_adapt must match AdaptiveHook";
  }
}

TEST(RegistryCaps, AdaptiveFamiliesAreFactoryReachableForMigration) {
  // The Tuner migrates shards by CreateFilter(to_family, ...): every
  // supports_adapt family must therefore be factory-visible, or the
  // repeated-FP policy could choose an unbuildable target.
  size_t adaptive = 0;
  for (std::string_view tag : RegisteredFilterTags()) {
    const FilterEntry* entry = FindFilterEntry(tag);
    if (!entry->caps.supports_adapt) continue;
    ++adaptive;
    EXPECT_TRUE(entry->in_factory) << tag;
    EXPECT_NE(CreateFilter(tag, 1000, 0.01), nullptr) << tag;
  }
  EXPECT_GE(adaptive, 2u);  // adaptive-cuckoo and adaptive-quotient.
}

TEST(Registry, FactoryFiltersSurviveFactoryToSnapshotToLoadToQuery) {
  // End-to-end: build via the factory, fill, snapshot, reload via the tag
  // dispatcher, and verify no key was lost — the exact path sharded
  // snapshot recovery takes per shard.
  for (std::string_view name : KnownFilterNames()) {
    const auto f = CreateFilter(name, 500, 0.01);
    ASSERT_NE(f, nullptr) << name;
    for (uint64_t k = 1; k <= 200; ++k) ASSERT_TRUE(f->Insert(k)) << name;
    std::ostringstream os;
    ASSERT_TRUE(f->Save(os)) << name;
    std::istringstream is(os.str());
    const auto loaded = LoadFilterSnapshot(is);
    ASSERT_NE(loaded, nullptr) << name;
    for (uint64_t k = 1; k <= 200; ++k) {
      ASSERT_TRUE(loaded->Contains(k)) << name << " lost key " << k;
    }
  }
}

}  // namespace
}  // namespace bbf
