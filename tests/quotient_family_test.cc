// Cross-family tests for the slot engines — the quotient engines
// (QuotientTable and RsqfTable), the cuckoo bucket engine (CuckooTable) —
// and every family built on them.
//
// QuotientFamilyPin replays one fixed op stream through each family and
// compares the saved payload bytes, the query answers and the run-scan
// lengths reported through MetricsSink::OnProbeLength against constants.
// A refactor of the slot engines must reproduce all three exactly: the
// payload bytes are what LSM manifests and sharded snapshots store, and
// the probe lengths are what the obs layer exports.
//
// CuckooFamilyPin does the same for the cuckoo families: a stream that
// saturates a small table — kick chains, a full stash, unwound inserts —
// then erases, counts and looks up, pinning the saved frame, every answer
// and, for the filter, the kick-chain lengths reported through
// MetricsSink::OnKickChain.
//
// DeleteHazard is the duplicate-fingerprint delete property (insert A:X,
// insert B:X, erase A — B must survive) over every erasing family on the
// engines' erase paths, the chained quotient filter and the two cuckoo
// filters, alone and sharded, with the erases interleaved with the
// inserts or after them all, sized so fingerprints collide often.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/filter.h"
#include "core/filter_io.h"
#include "core/metrics_sink.h"
#include "core/registry.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "cuckoo/cuckoo_maplet.h"
#include "expandable/taffy_filter.h"
#include "quotient/expanding_quotient_filter.h"
#include "quotient/expanding_quotient_maplet.h"
#include "quotient/quotient_filter.h"
#include "quotient/quotient_maplet.h"
#include "quotient/rsqf.h"
#include "range/memento.h"
#include "util/hash.h"
#include "util/random.h"
#include "test_seed.h"
#include "workload/generators.h"

namespace bbf {
namespace {

// Sums the structural events a family reports.
class CountingSink : public MetricsSink {
 public:
  void OnKickChain(uint64_t k) override { kicks += k; }
  void OnProbeLength(uint64_t slots) override { probe_slots += slots; }
  void OnExpansion() override { ++expansions; }
  void OnAdapt() override {}

  uint64_t kicks = 0;
  uint64_t probe_slots = 0;
  uint64_t expansions = 0;
};

// What one family's replay produced.
struct Pin {
  uint64_t payload_hash = 0;  // HashBytes of the saved payload.
  uint64_t answer_hash = 0;   // Fold of every query answer, in order.
  uint64_t probe_slots = 0;   // Sum of OnProbeLength over the queries.
  uint64_t expansions = 0;    // OnExpansion events over the whole replay.
  uint64_t kicks = 0;         // Sum of OnKickChain over the whole replay.
};

uint64_t Fold(uint64_t acc, uint64_t v) { return Hash64(acc ^ v, 0x9E37); }

uint64_t PayloadHash(const Filter& f) {
  std::ostringstream os;
  EXPECT_TRUE(f.SavePayload(os));
  return HashBytes(os.str());
}

uint64_t PayloadHash(const QuotientMaplet& m) {
  std::ostringstream os;
  EXPECT_TRUE(m.SavePayload(os));
  return HashBytes(os.str());
}

constexpr uint64_t kStreamSeed = 0x51C0'7E57;

// The op stream: `n` distinct keys, every third one inserted twice, and
// every fifth one erased again after all inserts.
struct Stream {
  explicit Stream(uint64_t n) : keys(GenerateDistinctKeys(n, kStreamSeed)) {
    queries = keys;
    const auto negatives = GenerateNegativeKeys(keys, 2 * n, kStreamSeed + 1);
    queries.insert(queries.end(), negatives.begin(), negatives.end());
  }
  std::vector<uint64_t> keys;
  std::vector<uint64_t> queries;  // Every key, then 2n non-keys.
};

// Replays the stream through a Filter: inserts, repeats, erases (when
// `erase`), then the membership queries.
Pin ReplayFilter(Filter& f, const Stream& s, bool erase) {
  CountingSink sink;
  f.AttachMetricsSink(&sink);
  for (size_t i = 0; i < s.keys.size(); ++i) {
    EXPECT_TRUE(f.Insert(s.keys[i])) << f.Name() << " key " << i;
    if (i % 3 == 0) {
      EXPECT_TRUE(f.Insert(s.keys[i])) << f.Name() << " key " << i;
    }
  }
  if (erase) {
    for (size_t i = 0; i < s.keys.size(); i += 5) {
      EXPECT_TRUE(f.Erase(s.keys[i])) << f.Name() << " key " << i;
    }
  }
  const uint64_t probes_before_queries = sink.probe_slots;
  Pin pin;
  for (uint64_t q : s.queries) {
    pin.answer_hash = Fold(pin.answer_hash, f.Contains(q) ? 1 : 0);
  }
  pin.probe_slots = sink.probe_slots - probes_before_queries;
  pin.expansions = sink.expansions;
  pin.kicks = sink.kicks;
  pin.payload_hash = PayloadHash(f);
  f.AttachMetricsSink(nullptr);
  return pin;
}

void ExpectPin(const char* name, const Pin& got, const Pin& want) {
  EXPECT_EQ(got.payload_hash, want.payload_hash) << name;
  EXPECT_EQ(got.answer_hash, want.answer_hash) << name;
  EXPECT_EQ(got.probe_slots, want.probe_slots) << name;
  EXPECT_EQ(got.expansions, want.expansions) << name;
  EXPECT_EQ(got.kicks, want.kicks) << name;
  if (::testing::Test::HasFailure()) {
    std::printf("  {%s: 0x%016llxull, 0x%016llxull, %llu, %llu, %llu}\n",
                name, static_cast<unsigned long long>(got.payload_hash),
                static_cast<unsigned long long>(got.answer_hash),
                static_cast<unsigned long long>(got.probe_slots),
                static_cast<unsigned long long>(got.expansions),
                static_cast<unsigned long long>(got.kicks));
  }
}

TEST(QuotientFamilyPin, QuotientFilter) {
  const Stream s(600);
  QuotientFilter f(10, 8);
  ExpectPin("quotient", ReplayFilter(f, s, /*erase=*/true),
            {0x97fee54d5b0b9ac9ull, 0xfef0a6415b97c673ull, 1418, 0});
}

TEST(QuotientFamilyPin, CountingQuotientFilter) {
  // Hot keys repeat up to 150 times, so with 6-bit remainders their
  // counters grow a second digit slot — and lose it again on erase.
  const Stream s(500);
  CountingQuotientFilter f(10, 6);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t c = 0; c < 20 * i + 10; ++c) ASSERT_TRUE(f.Insert(s.keys[i]));
  }
  for (size_t i = 0; i < 8; i += 2) {
    for (size_t c = 0; c < 10 * i + 5; ++c) ASSERT_TRUE(f.Erase(s.keys[i]));
  }
  Pin pin = ReplayFilter(f, s, /*erase=*/true);
  for (uint64_t q : s.queries) {
    pin.answer_hash = Fold(pin.answer_hash, f.Count(q));
  }
  ExpectPin("counting-quotient", pin,
            {0x04b6cb5a1fd44385ull, 0x78746d023de2cd9cull, 0, 0});
}

TEST(QuotientFamilyPin, ExpandingQuotientFilter) {
  // 2^8 slots at 0.94 load: doubles at ~240, ~481 and ~962 entries.
  const Stream s(800);
  ExpandingQuotientFilter f(8, 12);
  const Pin pin = ReplayFilter(f, s, /*erase=*/true);
  EXPECT_GE(f.expansions(), 2);
  ExpectPin("expanding-quotient", pin,
            {0xa60f6cdb49ac3dd0ull, 0x0cc607b9771ee017ull, 0, 3});
}

TEST(QuotientFamilyPin, TaffyFilter) {
  // 2^6 slots at 0.90 load: five doublings over ~1060 entries.
  const Stream s(800);
  TaffyFilter f(6, 10);
  const Pin pin = ReplayFilter(f, s, /*erase=*/true);
  EXPECT_GE(f.expansions(), 2);
  ExpectPin("taffy", pin, {0xbf225aa070701f36ull, 0x5c53c413ebbe9a6bull, 0, 5});
}

TEST(QuotientFamilyPin, Rsqf) {
  const Stream s(500);
  Rsqf f(10, 8);
  ExpectPin("rsqf", ReplayFilter(f, s, /*erase=*/false),
            {0x78dc9745238480c9ull, 0xc79b97000b12b0fdull, 1359, 0});
}

TEST(QuotientFamilyPin, MementoFilter) {
  // 2^6 quotients: five doublings; the range queries probe boundary and
  // interior prefixes of every key.
  const Stream s(800);
  MementoFilter f(6, 14, 8);
  Pin pin = ReplayFilter(f, s, /*erase=*/false);
  EXPECT_GE(f.expansions(), 2u);
  CountingSink sink;
  f.AttachMetricsSink(&sink);
  for (uint64_t k : s.keys) {
    pin.answer_hash =
        Fold(pin.answer_hash, f.MayContainRange(k + 1, k + 3000) ? 1 : 0);
  }
  pin.probe_slots += sink.probe_slots;
  f.AttachMetricsSink(nullptr);
  ExpectPin("memento", pin,
            {0x395a8095a33b5609ull, 0xd9915546d45359c3ull, 7216, 5});
}

// The maplets are not Filters: their pins fold every Lookup result (values
// in storage order, so the order of colliding entries is pinned too).
TEST(QuotientFamilyPin, QuotientMaplet) {
  const Stream s(300);
  QuotientMaplet m(9, 7, 6);
  for (size_t i = 0; i < s.keys.size(); ++i) {
    ASSERT_TRUE(m.Insert(s.keys[i], i & 63));
    if (i % 3 == 0) {
      ASSERT_TRUE(m.Insert(s.keys[i], (i + 7) & 63));
    }
  }
  for (size_t i = 0; i < s.keys.size(); i += 5) {
    ASSERT_TRUE(m.Erase(s.keys[i], i & 63));
  }
  Pin pin;
  for (uint64_t q : s.queries) {
    for (uint64_t v : m.Lookup(q)) pin.answer_hash = Fold(pin.answer_hash, v);
    pin.answer_hash = Fold(pin.answer_hash, ~uint64_t{0});
  }
  pin.payload_hash = PayloadHash(m);
  ExpectPin("quotient-maplet", pin,
            {0xf109da33c97a8dc8ull, 0x97cb2f2a1ea7bb1full, 0, 0});
}

TEST(QuotientFamilyPin, ExpandingQuotientMaplet) {
  // No snapshot format: the space, size and lookups stand in for bytes.
  const Stream s(700);
  ExpandingQuotientMaplet m(7, 14, 8);
  for (size_t i = 0; i < s.keys.size(); ++i) {
    ASSERT_TRUE(m.Insert(s.keys[i], i & 255));
    if (i % 3 == 0) {
      ASSERT_TRUE(m.Insert(s.keys[i], (i + 7) & 255));
    }
  }
  for (size_t i = 0; i < s.keys.size(); i += 5) {
    ASSERT_TRUE(m.Erase(s.keys[i], i & 255));
  }
  EXPECT_GE(m.expansions(), 2);
  Pin pin;
  for (uint64_t q : s.queries) {
    for (uint64_t v : m.Lookup(q)) pin.answer_hash = Fold(pin.answer_hash, v);
    pin.answer_hash = Fold(pin.answer_hash, ~uint64_t{0});
  }
  pin.payload_hash = Fold(Fold(m.SpaceBits(), m.NumEntries()), m.r_bits());
  pin.expansions = m.expansions();
  ExpectPin("expanding-quotient-maplet", pin,
            {0x73999213f1330696ull, 0xce19458cfc9c1be8ull, 0, 3});
}

// The cuckoo pins overfill a 128-cell table (sized for 64 keys) with 300
// keys, every third inserted twice: kick chains, a stash filled to its 8
// entries, then inserts that dead-end and unwind. Every fifth key is then
// erased, and the answers fold every insert and erase result, then each
// query's Contains and Count, then the batch lookup.
constexpr uint64_t kCuckooPinKeys = 300;

Pin ReplayCuckooFilter(int fingerprint_bits) {
  const Stream s(kCuckooPinKeys);
  CuckooFilter f(64, fingerprint_bits);
  CountingSink sink;
  f.AttachMetricsSink(&sink);
  Pin pin;
  uint64_t rejected = 0;
  const size_t half = s.keys.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    const bool ok = f.Insert(s.keys[i]);
    rejected += !ok;
    pin.answer_hash = Fold(pin.answer_hash, ok);
    if (i % 3 == 0) {
      pin.answer_hash = Fold(pin.answer_hash, f.Insert(s.keys[i]));
    }
  }
  // The rest through the batch path's tile pipeline.
  const std::vector<uint64_t> rest(s.keys.begin() + half, s.keys.end());
  const size_t placed = f.InsertMany(rest);
  rejected += rest.size() - placed;
  pin.answer_hash = Fold(pin.answer_hash, placed);
  EXPECT_EQ(f.stash_size(), CuckooFilter::kMaxStash);
  EXPECT_GT(rejected, 0u);
  for (size_t i = 0; i < s.keys.size(); i += 5) {
    pin.answer_hash = Fold(pin.answer_hash, f.Erase(s.keys[i]));
  }
  for (uint64_t q : s.queries) {
    pin.answer_hash = Fold(pin.answer_hash, f.Contains(q));
    pin.answer_hash = Fold(pin.answer_hash, f.Count(q));
  }
  std::vector<uint8_t> hits(s.queries.size());
  f.ContainsMany(s.queries, hits.data());
  for (uint8_t h : hits) pin.answer_hash = Fold(pin.answer_hash, h);
  pin.answer_hash = Fold(pin.answer_hash, f.NumKeys());
  f.AttachMetricsSink(nullptr);
  pin.kicks = sink.kicks;
  std::ostringstream os;
  EXPECT_TRUE(f.Save(os));
  pin.payload_hash = HashBytes(os.str());
  return pin;
}

Pin ReplayCuckooMaplet(int fingerprint_bits) {
  const Stream s(kCuckooPinKeys);
  CuckooMaplet m(64, fingerprint_bits, 6);
  Pin pin;
  uint64_t rejected = 0;
  for (size_t i = 0; i < s.keys.size(); ++i) {
    const bool ok = m.Insert(s.keys[i], i & 63);
    rejected += !ok;
    pin.answer_hash = Fold(pin.answer_hash, ok);
    if (i % 3 == 0) {
      pin.answer_hash =
          Fold(pin.answer_hash, m.Insert(s.keys[i], (i + 7) & 63));
    }
  }
  EXPECT_GT(rejected, 0u);
  for (size_t i = 0; i < s.keys.size(); i += 5) {
    pin.answer_hash = Fold(pin.answer_hash, m.Erase(s.keys[i], i & 63));
  }
  for (uint64_t q : s.queries) {
    for (uint64_t v : m.Lookup(q)) pin.answer_hash = Fold(pin.answer_hash, v);
    pin.answer_hash = Fold(pin.answer_hash, ~uint64_t{0});
  }
  std::ostringstream os;
  EXPECT_TRUE(m.Save(os));
  pin.payload_hash = HashBytes(os.str());
  return pin;
}

// 12-bit fingerprints take the packed bucket kernel, 20-bit ones the
// per-slot scan.
TEST(CuckooFamilyPin, CuckooFilter12) {
  ExpectPin("cuckoo-12", ReplayCuckooFilter(12),
            {0x54e7a62ac3b79e36ull, 0xfe106defa3a0008cull, 0, 0, 112124});
}

TEST(CuckooFamilyPin, CuckooFilter20) {
  ExpectPin("cuckoo-20", ReplayCuckooFilter(20),
            {0x505edaa34a36416full, 0xc726d2f0c3b81fc0ull, 0, 0, 111635});
}

TEST(CuckooFamilyPin, CuckooMaplet12) {
  ExpectPin("cuckoo-maplet-12", ReplayCuckooMaplet(12),
            {0xa4c75f45cd6f3ed0ull, 0x65ff90d07d1048a8ull, 0, 0, 0});
}

TEST(CuckooFamilyPin, CuckooMaplet20) {
  ExpectPin("cuckoo-maplet-20", ReplayCuckooMaplet(20),
            {0xcbdc948a1aef49e5ull, 0xe34d5e667cf2b51cull, 0, 0, 0});
}

// FamilyTablePin pins what each row of the family table builds: a mistyped
// geometry or seed in one row changes that row's saved frame. Each filter
// takes a fixed key set where the family accepts inserts, then answers
// every query; the pin holds the insert and Contains answers and the
// framed snapshot bytes.
constexpr uint64_t kFamilyPinKeys = 8000;

Pin ReplayBuiltFilter(Filter& f) {
  const Stream s(kFamilyPinKeys);
  Pin pin;
  for (uint64_t k : s.keys) pin.answer_hash = Fold(pin.answer_hash, f.Insert(k));
  for (uint64_t q : s.queries) {
    pin.answer_hash = Fold(pin.answer_hash, f.Contains(q));
  }
  std::ostringstream os;
  EXPECT_TRUE(f.Save(os));
  pin.payload_hash = HashBytes(os.str());
  return pin;
}

struct FamilyPinRow {
  const char* name;
  uint64_t payload_hash;
  uint64_t answer_hash;
};

TEST(FamilyTablePin, EveryFactoryName) {
  static constexpr FamilyPinRow kRows[] = {
      {"adaptive-cuckoo", 0xb7144f3a92e39b65ull, 0xb427fce76696cd64ull},
      {"adaptive-quotient", 0x48ad2da7fa86c4f8ull, 0x213172a23bd2a441ull},
      {"blocked-bloom", 0xcbc89d2b2cbcbfecull, 0x4bbf8ff9a9a5c6fcull},
      {"bloom", 0x66c8e6c8b48fe83full, 0x89eb1fbea0b1b7c8ull},
      {"chained-quotient", 0xa125fe2a29187749ull, 0xaf272b3e83afe191ull},
      {"counting-bloom", 0xa1efd00f923c4503ull, 0x087cbcf0e4186a4bull},
      {"counting-quotient", 0x4df54e7cef892dc2ull, 0x556c6ae153a0edd4ull},
      {"cuckoo", 0xdc2dd2e7dc03828aull, 0x1c50c55b39a6c136ull},
      {"dleft", 0x48c561e267aeefe2ull, 0xbc971cd5f890fe15ull},
      {"dleft-counting", 0x48c561e267aeefe2ull, 0xbc971cd5f890fe15ull},
      {"expanding-quotient", 0xa4604d250aac94d9ull, 0x00945b36fa208fa9ull},
      {"memento", 0x932578597cfc4c6full, 0x67fc21ba32893589ull},
      {"prefix", 0x7ae1c03e14b5c117ull, 0xc163c7b1db295df2ull},
      {"quotient", 0x6f1de28f46bc3022ull, 0xcca851b79cfd0df8ull},
      {"ring", 0x2c03b9a6f1cc3a63ull, 0x67fc21ba32893589ull},
      {"rsqf", 0xdc0426d09ce67a21ull, 0xe32c6dab34e8a988ull},
      {"scalable-bloom", 0x350a2fd87e16fc1cull, 0x53d7d5ccf9b9af71ull},
      {"taffy", 0xfdcbc4f073535fd5ull, 0x99ccd914e61b9576ull},
      {"vector-quotient", 0xfc095baa2ea9bedeull, 0x734fba1b4fdf9f92ull},
  };
  ASSERT_EQ(KnownFilterNames().size(), std::size(kRows));
  for (const FamilyPinRow& row : kRows) {
    const std::unique_ptr<Filter> f = CreateFilter(row.name, 10'000, 0.01);
    ASSERT_NE(f, nullptr) << row.name;
    ExpectPin(row.name, ReplayBuiltFilter(*f),
              {row.payload_hash, row.answer_hash});
  }
}

TEST(FamilyTablePin, EveryTag) {
  static constexpr FamilyPinRow kRows[] = {
      {"adaptive-cuckoo", 0xb7144f3a92e39b65ull, 0xb427fce76696cd64ull},
      {"adaptive-quotient", 0x48ad2da7fa86c4f8ull, 0x213172a23bd2a441ull},
      {"blocked-bloom", 0xcbc89d2b2cbcbfecull, 0x4bbf8ff9a9a5c6fcull},
      {"bloom", 0x66c8e6c8b48fe83full, 0x89eb1fbea0b1b7c8ull},
      {"chained-quotient", 0xa125fe2a29187749ull, 0xaf272b3e83afe191ull},
      {"counting-bloom", 0xa1efd00f923c4503ull, 0x087cbcf0e4186a4bull},
      {"counting-quotient", 0x4df54e7cef892dc2ull, 0x556c6ae153a0edd4ull},
      {"cuckoo", 0xdc2dd2e7dc03828aull, 0x1c50c55b39a6c136ull},
      {"dleft-counting", 0x48c561e267aeefe2ull, 0xbc971cd5f890fe15ull},
      {"expanding-quotient", 0xa4604d250aac94d9ull, 0x00945b36fa208fa9ull},
      {"memento", 0x932578597cfc4c6full, 0x67fc21ba32893589ull},
      {"prefix", 0x7ae1c03e14b5c117ull, 0xc163c7b1db295df2ull},
      {"quotient", 0x6f1de28f46bc3022ull, 0xcca851b79cfd0df8ull},
      {"ribbon", 0x94326c9150e282adull, 0xf580530c6f8ca9a4ull},
      {"ring", 0x2c03b9a6f1cc3a63ull, 0x67fc21ba32893589ull},
      {"rsqf", 0xdc0426d09ce67a21ull, 0xe32c6dab34e8a988ull},
      {"scalable-bloom", 0x350a2fd87e16fc1cull, 0x53d7d5ccf9b9af71ull},
      {"spectral-bloom", 0xc07778263c8f9d3bull, 0xd5cb23482325c7a7ull},
      {"taffy", 0xfdcbc4f073535fd5ull, 0x99ccd914e61b9576ull},
      {"vector-quotient", 0xfc095baa2ea9bedeull, 0x734fba1b4fdf9f92ull},
      {"xor", 0x118ddd388a3cb9ebull, 0xe252d9adf54842efull},
  };
  ASSERT_EQ(RegisteredFilterTags().size(), std::size(kRows));
  for (const FamilyPinRow& row : kRows) {
    const std::unique_ptr<Filter> f = CreateFilterForTag(row.name, 10'000);
    ASSERT_NE(f, nullptr) << row.name;
    ExpectPin(row.name, ReplayBuiltFilter(*f),
              {row.payload_hash, row.answer_hash});
  }
}


// --- Duplicate-fingerprint delete hazard ------------------------------------

constexpr uint64_t kHazardKeys = 2000;

// Inserts every key and erases a seeded half of them: interleaved (one
// erase after every second insert, the rest at the end) or all after the
// inserts. `insert(k)` and `erase(k)` must succeed; returns the keys that
// stay.
template <typename Insert, typename Erase>
std::vector<uint64_t> InsertAndEraseHalf(uint64_t seed, Insert&& insert,
                                         Erase&& erase,
                                         bool interleaved = true) {
  const std::vector<uint64_t> keys = GenerateDistinctKeys(kHazardKeys, seed);
  SplitMix64 rng(seed ^ 0xE7A5E);
  std::unordered_set<uint64_t> victims;
  while (victims.size() < keys.size() / 2) {
    victims.insert(keys[rng.NextBelow(keys.size())]);
  }
  std::vector<uint64_t> pending;  // Inserted victims not yet erased.
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(insert(keys[i])) << "insert " << i;
    if (victims.contains(keys[i])) pending.push_back(keys[i]);
    if (interleaved && i % 2 == 1 && !pending.empty()) {
      const size_t j = rng.NextBelow(pending.size());
      EXPECT_TRUE(erase(pending[j])) << "erase " << pending[j];
      pending[j] = pending.back();
      pending.pop_back();
    }
  }
  for (uint64_t k : pending) EXPECT_TRUE(erase(k)) << "erase " << k;
  std::vector<uint64_t> kept;
  for (uint64_t k : keys) {
    if (!victims.contains(k)) kept.push_back(k);
  }
  return kept;
}

// ctest registers each case under a dump of GetParam()'s 24 raw bytes, so a
// HazardCase holds no pointer (its bytes move with ASLR) and no padding: a
// fixed family id stands in for the name. The ids keep the names the cases
// were first registered under; a family added later takes any unused id.
struct HazardFamily {
  uint64_t id;
  const char* name;
};
constexpr HazardFamily kHazardFamilies[] = {
    {0x18, "quotient"},
    {0x04, "counting-quotient"},
    {0xA016, "taffy"},
    {0x1C, "expanding-quotient"},
    {0xC4, "chained-quotient"},
    {0xCF, "cuckoo"},
    {0xAC, "adaptive-cuckoo"},
};

const char* HazardFamilyName(uint64_t id) {
  for (const HazardFamily& f : kHazardFamilies) {
    if (f.id == id) return f.name;
  }
  return nullptr;
}

struct HazardCase {
  uint64_t family_id;  // A kHazardFamilies id.
  double fpr;
  uint64_t sharded;  // Nonzero: inside a 4-shard ShardedFilter.
};
static_assert(sizeof(HazardCase) == 24, "no padding bytes in a case name");

class DeleteHazard : public ::testing::TestWithParam<HazardCase> {
 protected:
  void ExpectNoKeptKeyLost(bool interleaved) {
    const HazardCase& c = GetParam();
    const uint64_t seed = TestSeed(0xDE1E7E);
    BBF_ANNOUNCE_SEED(seed);
    const char* family = HazardFamilyName(c.family_id);
    ASSERT_NE(family, nullptr);
    auto make = [&](uint64_t n) { return CreateFilter(family, n, c.fpr); };
    std::unique_ptr<Filter> f =
        c.sharded ? std::make_unique<ShardedFilter>(kHazardKeys, 4, make)
                  : make(kHazardKeys);
    ASSERT_NE(f, nullptr);
    const std::vector<uint64_t> kept = InsertAndEraseHalf(
        seed, [&](uint64_t k) { return f->Insert(k); },
        [&](uint64_t k) { return f->Erase(k); }, interleaved);
    uint64_t lost = 0;
    for (uint64_t k : kept) lost += !f->Contains(k);
    EXPECT_EQ(lost, 0u) << "of " << kept.size() << " remaining keys";
  }
};

TEST_P(DeleteHazard, ErasingHalfLosesNoRemainingKey) {
  ExpectNoKeptKeyLost(/*interleaved=*/true);
}

TEST_P(DeleteHazard, ErasingHalfAfterAllInsertsLosesNoRemainingKey) {
  ExpectNoKeptKeyLost(/*interleaved=*/false);
}

std::vector<HazardCase> HazardCases() {
  std::vector<HazardCase> cases;
  for (const HazardFamily& family : kHazardFamilies) {
    for (double fpr : {0.25, 0.05}) {
      for (uint64_t sharded : {0, 1}) {
        cases.push_back({family.id, fpr, sharded});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Families, DeleteHazard, ::testing::ValuesIn(HazardCases()),
    [](const ::testing::TestParamInfo<HazardCase>& info) {
      std::string name = HazardFamilyName(info.param.family_id);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      name += info.param.fpr > 0.1 ? "_fpr25" : "_fpr5";
      return name + (info.param.sharded ? "_sharded" : "");
    });

// The maplets erase one (key, value) association; a twin key with the same
// fingerprint must keep its own value.
template <typename Maplet>
void ExpectMapletKeepsTwins(Maplet& m, uint64_t seed) {
  const std::vector<uint64_t> kept = InsertAndEraseHalf(
      seed, [&](uint64_t k) { return m.Insert(k, k & 255); },
      [&](uint64_t k) { return m.Erase(k, k & 255); });
  uint64_t lost = 0;
  for (uint64_t k : kept) {
    bool found = false;
    for (uint64_t v : m.Lookup(k)) found |= v == (k & 255);
    lost += !found;
  }
  EXPECT_EQ(lost, 0u) << "of " << kept.size() << " remaining keys";
}

TEST(DeleteHazardMaplet, QuotientMapletErasesByKeyAndValue) {
  const uint64_t seed = TestSeed(0xDE1E7F);
  BBF_ANNOUNCE_SEED(seed);
  for (double fpr : {0.25, 0.05}) {
    SCOPED_TRACE(fpr);
    QuotientMaplet m = QuotientMaplet::ForCapacity(kHazardKeys, fpr, 8);
    ExpectMapletKeepsTwins(m, seed);
  }
}

TEST(DeleteHazardMaplet, ExpandingQuotientMapletErasesByKeyAndValue) {
  // Starts at 2^8 slots; the ~1,100-entry peak doubles it three times,
  // ending at the remainder width of fpr 0.25 (2 bits) or 0.05 (5 bits).
  const uint64_t seed = TestSeed(0xDE1E80);
  BBF_ANNOUNCE_SEED(seed);
  for (int final_r_bits : {2, 5}) {
    SCOPED_TRACE(final_r_bits);
    ExpandingQuotientMaplet m(8, final_r_bits + 3, 8);
    ExpectMapletKeepsTwins(m, seed);
    EXPECT_EQ(m.expansions(), 3);
  }
}

TEST(DeleteHazardMaplet, CuckooMapletErasesByKeyAndValue) {
  // 5- and 8-bit fingerprints take the packed bucket kernel, 20-bit ones
  // the per-slot scan; at 5 bits twins share buckets and fingerprints often.
  const uint64_t seed = TestSeed(0xDE1E81);
  BBF_ANNOUNCE_SEED(seed);
  for (int fingerprint_bits : {5, 8, 20}) {
    SCOPED_TRACE(fingerprint_bits);
    CuckooMaplet m(kHazardKeys, fingerprint_bits, 8);
    ExpectMapletKeepsTwins(m, seed);
  }
}

}  // namespace
}  // namespace bbf
