// Factory-driven save/load property test: every filter family with
// snapshot support round-trips through the framed format (DESIGN.md §8)
// and answers queries identically afterwards — scalar and batch paths,
// point filters, static filters, range filters, and maplets.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/filter_io.h"
#include "core/metrics_sink.h"
#include "core/registry.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_maplet.h"
#include "maplet/maplet.h"
#include "quotient/quotient_maplet.h"
#include "range/memento.h"
#include "range/prefix_bloom_range.h"
#include "range/range_filter.h"
#include "staticf/bloomier_filter.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

std::vector<std::string_view> DynamicSnapshotTags() {
  std::vector<std::string_view> tags;
  for (std::string_view name : KnownFilterNames()) {
    tags.push_back(name == "dleft" ? "dleft-counting" : name);
  }
  tags.push_back("spectral-bloom");
  return tags;
}

std::string SaveToString(const Filter& f) {
  std::ostringstream ss;
  EXPECT_TRUE(f.Save(ss));
  return std::move(ss).str();
}

TEST(SnapshotRoundtrip, EveryFamilyAnswersIdenticallyAfterReload) {
  uint64_t tag_index = 0;
  for (std::string_view tag : DynamicSnapshotTags()) {
    SCOPED_TRACE(std::string(tag));
    std::unique_ptr<Filter> f = CreateFilterForTag(tag, 5000);
    ASSERT_NE(f, nullptr);
    SplitMix64 rng(0x90 + tag_index);
    std::vector<uint64_t> inserted;
    for (int i = 0; i < 2000; ++i) {
      const uint64_t key = rng.Next();
      if (f->Insert(key)) inserted.push_back(key);
    }
    ASSERT_FALSE(inserted.empty());

    const std::string blob = SaveToString(*f);
    std::istringstream is(blob);
    std::unique_ptr<Filter> g = LoadFilterSnapshot(is);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->Name(), tag);
    EXPECT_EQ(g->NumKeys(), f->NumKeys());
    EXPECT_EQ(g->SpaceBits(), f->SpaceBits());

    // No false negatives across the round trip.
    for (uint64_t key : inserted) ASSERT_TRUE(g->Contains(key)) << key;

    // Exact answer parity — positives and negatives alike — on a mixed
    // probe set, through both the scalar and the batch path.
    std::vector<uint64_t> probes = inserted;
    for (int i = 0; i < 2000; ++i) probes.push_back(rng.Next());
    std::vector<uint8_t> batch_f(probes.size());
    std::vector<uint8_t> batch_g(probes.size());
    f->ContainsMany(probes, batch_f.data());
    g->ContainsMany(probes, batch_g.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(f->Contains(probes[i]), g->Contains(probes[i]))
          << "probe " << i;
      ASSERT_EQ(batch_f[i], batch_g[i]) << "batch probe " << i;
      ASSERT_EQ(batch_g[i] != 0, g->Contains(probes[i]))
          << "batch/scalar divergence " << i;
    }
    ++tag_index;
  }
}

TEST(SnapshotRoundtrip, CountingFamiliesPreserveCounts) {
  for (std::string_view tag :
       {"counting-bloom", "counting-quotient", "spectral-bloom"}) {
    SCOPED_TRACE(std::string(tag));
    std::unique_ptr<Filter> f = CreateFilterForTag(tag, 2000);
    ASSERT_NE(f, nullptr);
    SplitMix64 rng(0x11);
    std::vector<uint64_t> keys(300);
    for (uint64_t& k : keys) k = rng.Next();
    for (size_t i = 0; i < keys.size(); ++i) {
      for (size_t c = 0; c <= i % 4; ++c) f->Insert(keys[i]);
    }
    const std::string blob = SaveToString(*f);
    std::istringstream is(blob);
    std::unique_ptr<Filter> g = LoadFilterSnapshot(is);
    ASSERT_NE(g, nullptr);
    for (uint64_t k : keys) EXPECT_EQ(g->Count(k), f->Count(k));
  }
}

TEST(SnapshotRoundtrip, StaticFamiliesRoundTrip) {
  SplitMix64 rng(0x22);
  std::vector<uint64_t> keys(1500);
  for (uint64_t& k : keys) k = rng.Next();

  const XorFilter xf(keys, 12);
  const RibbonFilter rf(keys, 12);
  const Filter* filters[] = {&xf, &rf};
  for (const Filter* f : filters) {
    SCOPED_TRACE(std::string(f->Name()));
    const std::string blob = SaveToString(*f);
    std::istringstream is(blob);
    std::unique_ptr<Filter> g = LoadFilterSnapshot(is);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->Name(), f->Name());
    EXPECT_EQ(g->NumKeys(), f->NumKeys());
    EXPECT_EQ(g->SpaceBits(), f->SpaceBits());
    for (uint64_t k : keys) ASSERT_TRUE(g->Contains(k));
    for (int i = 0; i < 2000; ++i) {
      const uint64_t probe = rng.Next();
      ASSERT_EQ(f->Contains(probe), g->Contains(probe));
    }
  }
}

TEST(SnapshotRoundtrip, RangeFilterRoundTrips) {
  SplitMix64 rng(0x33);
  std::vector<uint64_t> keys(1000);
  for (uint64_t& k : keys) k = rng.Next();
  const PrefixBloomRangeFilter f(keys, 16, 10.0);

  std::ostringstream ss;
  ASSERT_TRUE(f.Save(ss));
  PrefixBloomRangeFilter g({}, 8, 8.0);
  std::istringstream is(std::move(ss).str());
  ASSERT_TRUE(g.Load(is));
  EXPECT_EQ(g.SpaceBits(), f.SpaceBits());
  for (int i = 0; i < 2000; ++i) {
    const uint64_t lo = rng.Next();
    const uint64_t span = rng.NextBelow(uint64_t{1} << 50);
    const uint64_t hi = lo + span < lo ? ~uint64_t{0} : lo + span;
    ASSERT_EQ(f.MayContainRange(lo, hi), g.MayContainRange(lo, hi));
  }
  for (uint64_t k : keys) ASSERT_TRUE(g.MayContain(k));
}

TEST(SnapshotRoundtrip, MementoRangeAnswersSurviveReload) {
  SplitMix64 rng(0x55);
  std::vector<uint64_t> keys(2000);
  for (uint64_t& k : keys) k = rng.Next();
  MementoFilter f = MementoFilter::ForCapacity(keys.size(), 0.01);
  for (uint64_t k : keys) ASSERT_TRUE(f.AddKey(k));

  // Direct reload into a differently-shaped instance.
  std::ostringstream ss;
  ASSERT_TRUE(f.Save(ss));
  const std::string blob = std::move(ss).str();
  MementoFilter g(/*q_bits=*/6, /*r_bits=*/4);
  {
    std::istringstream is(blob);
    ASSERT_TRUE(g.Load(is));
  }
  EXPECT_EQ(g.NumKeys(), f.NumKeys());
  EXPECT_EQ(g.SpaceBits(), f.SpaceBits());

  // The factory path must also resurrect it, and the resurrected Filter
  // must still expose the range surface through the RangeFilter base.
  std::istringstream is(blob);
  std::unique_ptr<Filter> h = LoadFilterSnapshot(is);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Name(), "memento");
  auto* h_range = dynamic_cast<RangeFilter*>(h.get());
  ASSERT_NE(h_range, nullptr);

  // Exact range-answer parity — positives and negatives — across both
  // reload paths, short windows and multi-prefix spans alike.
  for (uint64_t k : keys) {
    ASSERT_TRUE(g.MayContainRange(k, k)) << k;
    ASSERT_TRUE(h_range->MayContainRange(k, k)) << k;
  }
  for (int i = 0; i < 4000; ++i) {
    const uint64_t lo = rng.Next();
    const uint64_t span = rng.NextBelow(uint64_t{1} << 12);
    const uint64_t hi = lo + span < lo ? ~uint64_t{0} : lo + span;
    const bool want = f.MayContainRange(lo, hi);
    ASSERT_EQ(want, g.MayContainRange(lo, hi)) << lo << ".." << hi;
    ASSERT_EQ(want, h_range->MayContainRange(lo, hi)) << lo << ".." << hi;
  }
}

TEST(SnapshotRoundtrip, MapletsRoundTrip) {
  struct Case {
    std::unique_ptr<Maplet> original;
    std::unique_ptr<Maplet> reloaded;
  };
  Case cases[] = {
      {std::make_unique<QuotientMaplet>(
           QuotientMaplet::ForCapacity(2000, 0.01, 8)),
       std::make_unique<QuotientMaplet>(
           QuotientMaplet::ForCapacity(16, 0.5, 4))},
      {std::make_unique<CuckooMaplet>(2000, 12, 8),
       std::make_unique<CuckooMaplet>(16, 4, 4)},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(std::string(c.original->Name()));
    SplitMix64 rng(0x44);
    std::vector<uint64_t> keys(800);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng.Next();
      ASSERT_TRUE(c.original->Insert(keys[i], i % 251));
    }
    std::ostringstream ss;
    ASSERT_TRUE(c.original->Save(ss));
    std::istringstream is(std::move(ss).str());
    ASSERT_TRUE(c.reloaded->Load(is));
    EXPECT_EQ(c.reloaded->SpaceBits(), c.original->SpaceBits());
    for (uint64_t k : keys) {
      EXPECT_EQ(c.reloaded->Lookup(k), c.original->Lookup(k));
    }
    for (int i = 0; i < 1000; ++i) {
      const uint64_t probe = rng.Next();
      EXPECT_EQ(c.reloaded->Lookup(probe), c.original->Lookup(probe));
    }
  }
}

TEST(SnapshotRoundtrip, MapletRejectsWrongFamily) {
  QuotientMaplet qm = QuotientMaplet::ForCapacity(100, 0.01, 8);
  qm.Insert(1, 2);
  std::ostringstream ss;
  ASSERT_TRUE(qm.Save(ss));
  CuckooMaplet cm(100, 12, 8);
  std::istringstream is(std::move(ss).str());
  EXPECT_FALSE(cm.Load(is));
}

// Counts the run-scan events quotient probes report.
class ProbeCounter : public MetricsSink {
 public:
  void OnKickChain(uint64_t) override {}
  void OnProbeLength(uint64_t) override { ++probes; }
  void OnExpansion() override {}
  void OnAdapt() override {}
  uint64_t probes = 0;
};

TEST(SnapshotRoundtrip, LoadKeepsTheMetricsSinkAttached) {
  // ShardedFilter attaches its sink to each generation before loading it;
  // the load's commit must keep it, or a reloaded shard goes dark.
  const auto quotient = [](uint64_t capacity) {
    return CreateFilter("quotient", capacity, 0.01);
  };
  ShardedFilter saved(4000, 4, quotient);
  const std::vector<uint64_t> keys = GenerateDistinctKeys(2000, 0x51);
  for (uint64_t k : keys) ASSERT_TRUE(saved.Insert(k));
  std::stringstream snapshot;
  ASSERT_TRUE(saved.Save(snapshot));

  ShardedFilter loaded(4000, 4, quotient);
  ProbeCounter sink;
  loaded.AttachMetricsSink(&sink);
  ShardedFilter::LoadReport report;
  ASSERT_TRUE(loaded.LoadWithReport(snapshot, &report));
  ASSERT_TRUE(report.AllHealthy());
  for (uint64_t k : keys) ASSERT_TRUE(loaded.Contains(k));
  // One run scan per lookup, each from a loaded generation.
  EXPECT_EQ(sink.probes, keys.size());
}

ShardedFilter::ShardFactory FamilyFactory(std::string name) {
  return [name = std::move(name)](uint64_t capacity) {
    return CreateFilter(name, capacity, 0.01);
  };
}

// A sharded snapshot's bytes are pinned: the directory (v3: factory tag,
// capacities, per-generation tags and lengths) and every generation's
// frame, from a fixed op stream on a tracked 4-shard quotient filter
// whose shards chain a second generation, with shard 2 migrated to
// cuckoo. The constants were computed with a library whose Save built a
// throwaway filter to learn the factory tag.
TEST(SnapshotRoundtrip, ShardedSnapshotBytesArePinned) {
  ShardedFilter f(2000, 4, FamilyFactory("quotient"), {},
                  ShardedFilter::kDefaultJournalCap);
  SplitMix64 rng(0x5a);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t key = rng.Next();
    if (f.Insert(key)) keys.push_back(key);
  }
  for (size_t i = 0; i < keys.size(); i += 3) f.Erase(keys[i]);
  ASSERT_TRUE(f.MigrateShard(2, FamilyFactory("cuckoo")).ok);
  const auto stats = f.Stats();
  EXPECT_EQ(stats[2].family, "cuckoo");
  EXPECT_EQ(stats[0].generations, 2u);
  const std::string bytes = SaveToString(f);
  EXPECT_EQ(bytes.size(), 15643u);
  EXPECT_EQ(HashBytes(bytes), 0xa3c036e7eb0083efull);
}

// A sharded save builds no filter, and a load builds one per generation
// it loads: the directory's factory tag is checked against the tag the
// loading filter recorded when it was built, and each healthy shard
// starts from an empty shard rather than a factory-built one.
TEST(SnapshotRoundtrip, ShardedSaveAndLoadBuildOnlyTheLoadedGenerations) {
  uint64_t built = 0;
  const ShardedFilter::ShardFactory counting = [&built](uint64_t capacity) {
    ++built;
    return CreateFilter("quotient", capacity, 0.01);
  };
  ShardedFilter saved(16000, 16, counting);
  for (uint64_t k : GenerateDistinctKeys(8000, 0x52)) {
    ASSERT_TRUE(saved.Insert(k));
  }
  uint64_t generations = 0;
  for (const auto& s : saved.Stats()) generations += s.generations;

  built = 0;
  std::stringstream snapshot;
  ASSERT_TRUE(saved.Save(snapshot));
  EXPECT_EQ(built, 0u);

  ShardedFilter loaded(16000, 16, counting);
  built = 0;
  ShardedFilter::LoadReport report;
  ASSERT_TRUE(loaded.LoadWithReport(snapshot, &report));
  ASSERT_TRUE(report.AllHealthy());
  EXPECT_EQ(built, generations);
  EXPECT_EQ(loaded.NumKeys(), saved.NumKeys());
}

TEST(SnapshotRoundtrip, BloomierMapletReportsUnsupported) {
  BloomierFilter bloomier({{1, 2}, {3, 4}}, 8);
  std::ostringstream ss;
  EXPECT_FALSE(bloomier.Save(ss));
  EXPECT_TRUE(ss.str().empty());  // No partial frame written.
}

}  // namespace
}  // namespace bbf
