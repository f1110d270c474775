// Additional property and failure-injection tests across modules:
// boundary values, exhaustion paths, and differential checks against
// reference implementations.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "test_seed.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "expandable/taffy_filter.h"
#include "quotient/quotient_filter.h"
#include "range/surf.h"
#include "util/bit_vector.h"
#include "util/elias_fano.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

// --- Elias-Fano extremes ----------------------------------------------------

TEST(EliasFanoEdge, HandlesHugeValues) {
  const std::vector<uint64_t> v = {0, 1, (uint64_t{1} << 62),
                                   (uint64_t{1} << 62) + 1,
                                   ~uint64_t{0} - 1};
  EliasFano ef(v);
  for (size_t i = 0; i < v.size(); ++i) ASSERT_EQ(ef.Get(i), v[i]);
  EXPECT_EQ(*ef.NextGeq(2), 2u);  // Index of 1<<62.
  EXPECT_EQ(ef.Get(*ef.NextGeq(~uint64_t{0} - 1)), ~uint64_t{0} - 1);
  EXPECT_FALSE(ef.NextGeq(~uint64_t{0}).has_value());
}

TEST(EliasFanoEdge, AllEqualElements) {
  const std::vector<uint64_t> v(100, 42);
  EliasFano ef(v);
  for (size_t i = 0; i < v.size(); ++i) ASSERT_EQ(ef.Get(i), 42u);
  EXPECT_EQ(*ef.NextGeq(42), 0u);
  EXPECT_EQ(*ef.NextGeq(0), 0u);
  EXPECT_FALSE(ef.NextGeq(43).has_value());
  EXPECT_TRUE(ef.ContainsInRange(42, 42));
  EXPECT_FALSE(ef.ContainsInRange(43, 100));
}

TEST(BitVectorEdge, SixtyFourBitFieldAtWordBoundary) {
  BitVector bv(256);
  const uint64_t v = 0xDEADBEEFCAFEBABEull;
  bv.SetBits(64, 64, v);
  EXPECT_EQ(bv.GetBits(64, 64), v);
  bv.SetBits(60, 64, v);  // Straddles two words.
  EXPECT_EQ(bv.GetBits(60, 64), v);
}

// --- Taffy void-fingerprint exhaustion ---------------------------------------

TEST(TaffyExhaustion, VoidFingerprintsNeverFalseNegative) {
  // 4-bit fingerprints die after 4 doublings; entries become void and get
  // duplicated into both children. Membership must survive regardless.
  TaffyFilter f(4, 4);
  const uint64_t seed = TestSeed(111);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(4000, seed);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  EXPECT_GE(f.expansions(), 6);
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k)) << k;
  EXPECT_TRUE(f.table().CheckInvariants());
}

TEST(TaffyExhaustion, FprDegradesGracefullyNotCatastrophically) {
  TaffyFilter f(4, 4);
  const uint64_t seed = TestSeed(112);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(4000, seed);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 20000, seed + 1);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  // Old generations are void (FPR ~ their density); fresh keys still have
  // fingerprints, so the filter is degraded but not all-positive.
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.9);
}

// --- Serialization fuzz -------------------------------------------------------

TEST(SerializationFuzz, EveryTruncationPointRejectsOrRoundTrips) {
  QuotientFilter f(8, 6);
  for (uint64_t k = 0; k < 150; ++k) f.Insert(k * 977);
  std::stringstream ss;
  f.Save(ss);
  const std::string data = ss.str();
  // Truncate at many points: Load must fail cleanly (no crash, false).
  for (size_t cut = 0; cut + 1 < data.size(); cut += 13) {
    std::stringstream broken(data.substr(0, cut));
    QuotientFilter g(6, 4);
    EXPECT_FALSE(g.Load(broken)) << "cut at " << cut;
  }
  // And the intact stream still round-trips afterwards.
  std::stringstream ok(data);
  QuotientFilter g(6, 4);
  ASSERT_TRUE(g.Load(ok));
  for (uint64_t k = 0; k < 150; ++k) ASSERT_TRUE(g.Contains(k * 977));
}

// --- SuRF string ranges vs reference ----------------------------------------

TEST(SurfStrings, RangeQueriesNeverMissAgainstReference) {
  // Random variable-length strings, including prefix-of-each-other pairs.
  const uint64_t seed = TestSeed(114);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  std::set<std::string> key_set;
  while (key_set.size() < 3000) {
    std::string s;
    const int len = 1 + static_cast<int>(rng.NextBelow(10));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBelow(6)));
    }
    key_set.insert(s);
    if (rng.NextBelow(3) == 0 && s.size() > 1) {
      key_set.insert(s.substr(0, s.size() - 1));  // Deliberate prefixes.
    }
  }
  const std::vector<std::string> keys(key_set.begin(), key_set.end());
  SurfFilter f(keys, SurfFilter::SuffixMode::kReal, 8);
  // Point queries: every key present.
  for (const auto& k : keys) ASSERT_TRUE(f.MayContainKey(k)) << k;
  // Random ranges: no false negatives vs std::set.
  for (int q = 0; q < 5000; ++q) {
    std::string lo;
    std::string hi;
    const int len = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < len; ++i) {
      lo.push_back(static_cast<char>('a' + rng.NextBelow(6)));
      hi.push_back(static_cast<char>('a' + rng.NextBelow(6)));
    }
    if (hi < lo) std::swap(lo, hi);
    const auto it = key_set.lower_bound(lo);
    const bool truly_nonempty = it != key_set.end() && *it <= hi;
    if (truly_nonempty) {
      ASSERT_TRUE(f.MayContainStringRange(lo, hi))
          << "[" << lo << "," << hi << "]";
    }
  }
}

TEST(SurfStrings, EmptyRangesUsuallyRejected) {
  const uint64_t seed = TestSeed(115);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  std::set<std::string> key_set;
  while (key_set.size() < 3000) {
    std::string s = "key";
    for (int i = 0; i < 8; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBelow(26)));
    }
    key_set.insert(s);
  }
  const std::vector<std::string> keys(key_set.begin(), key_set.end());
  SurfFilter f(keys, SurfFilter::SuffixMode::kReal, 8);
  uint64_t fp = 0;
  uint64_t total = 0;
  for (int q = 0; q < 5000; ++q) {
    std::string lo = "key";
    for (int i = 0; i < 8; ++i) {
      lo.push_back(static_cast<char>('a' + rng.NextBelow(26)));
    }
    std::string hi = lo;
    hi.back() = static_cast<char>(hi.back() + 1);
    const auto it = key_set.lower_bound(lo);
    if (it != key_set.end() && *it <= hi) continue;
    ++total;
    fp += f.MayContainStringRange(lo, hi);
  }
  ASSERT_GT(total, 4000u);
  EXPECT_LT(static_cast<double>(fp) / total, 0.1);
}

// --- Batch/scalar parity ------------------------------------------------------

// Every family with a batch override must satisfy two contracts:
//  * ContainsMany agrees bit-for-bit with a loop of Contains on mixed
//    positive/negative queries (at any sub-batch size, including the
//    tile-remainder path);
//  * InsertMany leaves the filter in a state observationally equal to
//    sequential Inserts and returns the same success count.
void CheckBatchParity(
    const std::function<std::unique_ptr<Filter>()>& make, uint64_t n,
    uint64_t default_seed) {
  const uint64_t seed = TestSeed(default_seed);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(n, seed);
  const auto negatives = GenerateNegativeKeys(keys, n, seed + 1);
  std::vector<uint64_t> queries;
  queries.reserve(2 * n);
  for (size_t i = 0; i < keys.size(); ++i) {
    queries.push_back(keys[i]);
    queries.push_back(negatives[i]);
  }

  auto scalar = make();
  size_t scalar_inserted = 0;
  for (uint64_t k : keys) scalar_inserted += scalar->Insert(k);

  auto batched = make();
  EXPECT_EQ(batched->InsertMany(keys), scalar_inserted);
  EXPECT_EQ(batched->NumKeys(), scalar->NumKeys());

  // Bit-for-bit lookup parity on the sequentially built filter.
  std::vector<uint8_t> out(queries.size(), 2);
  scalar->ContainsMany(queries, out.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_LE(out[i], 1u);
    ASSERT_EQ(out[i] == 1, scalar->Contains(queries[i])) << "query " << i;
  }
  // Odd sub-batch sizes exercise the partial-tile path.
  for (size_t batch : {size_t{1}, size_t{7}, size_t{33}}) {
    std::vector<uint8_t> chunked(queries.size(), 2);
    for (size_t base = 0; base < queries.size(); base += batch) {
      const size_t len = std::min(batch, queries.size() - base);
      scalar->ContainsMany({queries.data() + base, len},
                           chunked.data() + base);
    }
    ASSERT_EQ(chunked, out) << "batch size " << batch;
  }
  // Empty batches are a no-op.
  scalar->ContainsMany(std::span<const uint64_t>{}, nullptr);
  EXPECT_EQ(scalar->InsertMany(std::span<const uint64_t>{}), 0u);

  // The batch-built filter answers exactly like the scalar-built one.
  std::vector<uint8_t> out_batched(queries.size(), 2);
  batched->ContainsMany(queries, out_batched.data());
  ASSERT_EQ(out_batched, out);
  // No false negatives through the batch path.
  for (size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(out[2 * i], 1u);
}

TEST(BatchParity, BloomFilter) {
  CheckBatchParity([] { return std::make_unique<BloomFilter>(5000, 10.0); },
                   5000, 300);
}

TEST(BatchParity, BlockedBloomFilter) {
  CheckBatchParity(
      [] { return std::make_unique<BlockedBloomFilter>(5000, 10.0); }, 5000,
      310);
}

TEST(BatchParity, CuckooFilter) {
  CheckBatchParity([] { return std::make_unique<CuckooFilter>(5000, 12); },
                   5000, 320);
}

TEST(BatchParity, QuotientFilter) {
  CheckBatchParity([] { return std::make_unique<QuotientFilter>(13, 9); },
                   5000, 330);
}

TEST(BatchParity, ShardedFilter) {
  CheckBatchParity(
      [] {
        return std::make_unique<ShardedFilter>(
            5000, 8, [](uint64_t cap) -> std::unique_ptr<Filter> {
              return std::make_unique<QuotientFilter>(
                  QuotientFilter::ForCapacity(cap, 0.01));
            });
      },
      5000, 340);
}

TEST(BatchParity, QuotientFullFilterReturnPath) {
  // 2^6 slots at 0.94 max load: sequential Inserts start returning false
  // partway through; InsertMany must report the identical count and state.
  const uint64_t seed = TestSeed(350);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(100, seed);
  QuotientFilter scalar(6, 8);
  size_t scalar_inserted = 0;
  for (uint64_t k : keys) scalar_inserted += scalar.Insert(k);
  ASSERT_LT(scalar_inserted, keys.size());  // The full path triggered.
  ASSERT_GT(scalar_inserted, 0u);

  QuotientFilter batched(6, 8);
  EXPECT_EQ(batched.InsertMany(keys), scalar_inserted);
  EXPECT_EQ(batched.NumKeys(), scalar.NumKeys());
  for (uint64_t k : keys) ASSERT_EQ(batched.Contains(k), scalar.Contains(k));
  ASSERT_TRUE(batched.table().CheckInvariants());
}

TEST(BatchParity, CuckooFullFilterReturnPath) {
  // A tiny table driven far past capacity: kicks fail, the stash fills,
  // and Insert starts refusing. Batch inserts replay the same sequence
  // (same kick RNG), so counts and membership match exactly.
  const uint64_t seed = TestSeed(360);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(300, seed);
  CuckooFilter scalar(64, 8);
  size_t scalar_inserted = 0;
  for (uint64_t k : keys) scalar_inserted += scalar.Insert(k);
  ASSERT_LT(scalar_inserted, keys.size());

  CuckooFilter batched(64, 8);
  EXPECT_EQ(batched.InsertMany(keys), scalar_inserted);
  EXPECT_EQ(batched.NumKeys(), scalar.NumKeys());
  for (uint64_t k : keys) ASSERT_EQ(batched.Contains(k), scalar.Contains(k));
}

// --- Sharded batch paths against a per-key twin ------------------------------

// ShardedFilter's four batch paths share one grouping helper. Fed the
// same keys, a filter driven through them and a twin driven key by key
// must agree on every answer and outcome, on every shard's counters and
// on every saved byte, whatever scratch the batch takes: the per-key
// passthrough below 2 keys per shard, stack scratch up to 1,024 keys,
// heap scratch beyond, and a heap start array past 128 shards. Shards
// chain up to two generations, then refuse keys. With `tracked`, both
// filters are built with a journal cap, so migration journaling and FPR
// tracking run as in a serving filter; without, the InsertMany fast path
// runs while a sub-batch fits under the threshold.
// The erase phase runs EraseMany against per-key Erase; each batch mixes
// inserted and never-inserted keys and ends in a repeat of its first.
void CheckShardedBatchTwin(uint64_t expected, int num_shards, uint64_t n,
                           const std::vector<size_t>& batches, bool tracked,
                           uint64_t default_seed) {
  const uint64_t seed = TestSeed(default_seed);
  BBF_ANNOUNCE_SEED(seed);
  SaturationConfig sat;
  sat.max_generations = 2;
  auto make = [&] {
    return std::make_unique<ShardedFilter>(
        expected, num_shards,
        [](uint64_t cap) -> std::unique_ptr<Filter> {
          return std::make_unique<QuotientFilter>(
              QuotientFilter::ForCapacity(cap, 0.05));
        },
        sat, tracked ? ShardedFilter::kDefaultJournalCap : 0);
  };
  const auto batched = make();
  const auto twin = make();
  std::vector<HashedKey> keys;
  for (uint64_t k : GenerateDistinctKeys(n, seed)) keys.emplace_back(k);
  std::vector<HashedKey> queries;
  for (uint64_t k : GenerateNegativeKeys(GenerateDistinctKeys(n, seed), n,
                                         seed + 1)) {
    queries.emplace_back(k);
  }
  queries.insert(queries.end(), keys.begin(), keys.end());

  // Inserts alternate between InsertManyWithStatus and InsertMany.
  size_t b = 0;
  for (size_t off = 0; off < keys.size(); ++b) {
    const std::span<const HashedKey> batch(
        keys.data() + off, std::min(batches[b % batches.size()],
                                    keys.size() - off));
    off += batch.size();
    if (b % 2 == 0) {
      std::vector<InsertOutcome> got(batch.size());
      batched->InsertManyWithStatus(batch, got.data());
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(got[i], twin->InsertWithStatus(batch[i]))
            << "batch " << b << " key " << i;
      }
    } else {
      size_t want = 0;
      for (HashedKey key : batch) want += twin->Insert(key);
      ASSERT_EQ(batched->InsertMany(batch), want) << "batch " << b;
    }
  }
  for (size_t off = 0; off < queries.size(); ++b) {
    const std::span<const HashedKey> batch(
        queries.data() + off, std::min(batches[b % batches.size()],
                                       queries.size() - off));
    off += batch.size();
    std::vector<uint8_t> got(batch.size(), 2);
    batched->ContainsMany(batch, got.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(got[i], twin->Contains(batch[i]) ? 1 : 0)
          << "batch " << b << " query " << i;
    }
  }

  // A third of the keys, each beside a never-inserted one (the negatives
  // lead `queries`).
  std::vector<HashedKey> erasable;
  for (size_t i = 0; i < n / 3; ++i) {
    erasable.push_back(keys[i]);
    erasable.push_back(queries[i]);
  }
  uint64_t erased = 0;
  for (size_t off = 0; off < erasable.size(); ++b) {
    const size_t size = batches[b % batches.size()];
    const size_t fresh = std::min(std::max<size_t>(size - 1, 1),
                                  erasable.size() - off);
    std::vector<HashedKey> batch(erasable.begin() + off,
                                 erasable.begin() + off + fresh);
    off += fresh;
    if (size > 1) batch.push_back(batch.front());
    std::vector<uint8_t> got(batch.size(), 2);
    batched->EraseMany(batch, got.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(got[i], twin->Erase(batch[i]) ? 1 : 0)
          << "batch " << b << " erase " << i;
      erased += got[i];
    }
  }
  EXPECT_GT(erased, 0u) << "no erase found its key";
  EXPECT_LT(erased, erasable.size()) << "every erase found a key";

  const auto got = batched->Stats();
  const auto want = twin->Stats();
  ASSERT_EQ(got.size(), want.size());
  uint64_t expanded = 0;
  uint64_t rejected = 0;
  for (size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].num_keys, want[s].num_keys) << "shard " << s;
    EXPECT_EQ(got[s].accepted, want[s].accepted) << "shard " << s;
    EXPECT_EQ(got[s].expanded, want[s].expanded) << "shard " << s;
    EXPECT_EQ(got[s].rejected, want[s].rejected) << "shard " << s;
    EXPECT_EQ(got[s].generations, want[s].generations) << "shard " << s;
    expanded += got[s].expanded;
    rejected += got[s].rejected;
  }
  EXPECT_GT(expanded, 0u) << "no shard chained a generation";
  EXPECT_GT(rejected, 0u) << "no shard refused a key";
  std::ostringstream got_bytes;
  std::ostringstream want_bytes;
  ASSERT_TRUE(batched->Save(got_bytes));
  ASSERT_TRUE(twin->Save(want_bytes));
  EXPECT_TRUE(got_bytes.str() == want_bytes.str()) << "saved bytes differ";
}

TEST(BatchParity, ShardedBatchPathsMatchPerKeyTwin) {
  // 4 shards: passthrough below 8 keys, stack scratch to 1,024, heap past.
  for (bool tracked : {true, false}) {
    SCOPED_TRACE(tracked ? "tracked" : "untracked");
    CheckShardedBatchTwin(2000, 4, 12000,
                          {1, 5, 7, 8, 100, 1024, 1025, 2000}, tracked, 370);
  }
}

TEST(BatchParity, ShardedBatchPathsMatchPerKeyTwinPast128Shards) {
  // 200 shards: passthrough below 400 keys; every grouped batch puts its
  // start array on the heap, and batches past 1,024 keys the rest too.
  CheckShardedBatchTwin(20000, 200, 160000, {1, 399, 400, 1024, 1025, 3000},
                        /*tracked=*/true, 380);
}

TEST(ShardRouting, EveryInsertPathRoutesByValueModuloShards) {
  // Power-of-two counts route by mask, others by `%`: each insert path,
  // and EraseMany, must find every key in shard value() % n. The batch
  // twin test above compares paths that share one router, so it cannot
  // see this.
  const uint64_t seed = TestSeed(390);
  BBF_ANNOUNCE_SEED(seed);
  const auto raw = GenerateDistinctKeys(9000, seed);
  std::vector<HashedKey> keys(raw.begin(), raw.end());
  for (int n : {1, 2, 3, 16, 200}) {
    SCOPED_TRACE("shards " + std::to_string(n));
    ShardedFilter f(40000, n, [](uint64_t cap) -> std::unique_ptr<Filter> {
      return std::make_unique<QuotientFilter>(
          QuotientFilter::ForCapacity(cap, 0.01));
    });
    std::vector<uint64_t> want(n, 0);
    const auto check = [&](size_t begin, size_t end, const char* path,
                           bool erased = false) {
      for (size_t i = begin; i < end; ++i) {
        uint64_t& count = want[keys[i].value() % n];
        count = erased ? count - 1 : count + 1;
      }
      const auto stats = f.Stats();
      ASSERT_EQ(stats.size(), static_cast<size_t>(n));
      for (int s = 0; s < n; ++s) {
        ASSERT_EQ(stats[s].num_keys, want[s]) << path << ", shard " << s;
      }
    };
    // Thirds of the keys per path; the batches are grouped (at least 2
    // keys per shard), on stack scratch (1,000) and on the heap (2,000).
    for (size_t i = 0; i < 3000; ++i) ASSERT_TRUE(f.Insert(keys[i]));
    check(0, 3000, "Insert");
    const std::span<const HashedKey> all(keys);
    ASSERT_EQ(f.InsertMany(all.subspan(3000, 1000)), 1000u);
    ASSERT_EQ(f.InsertMany(all.subspan(4000, 2000)), 2000u);
    check(3000, 6000, "InsertMany");
    std::vector<InsertOutcome> out(3000);
    f.InsertManyWithStatus(all.subspan(6000, 1000), out.data());
    f.InsertManyWithStatus(all.subspan(7000, 2000), out.data() + 1000);
    for (size_t i = 0; i < 3000; ++i) {
      ASSERT_EQ(out[i], InsertOutcome::kAccepted) << "key " << i;
    }
    check(6000, 9000, "InsertManyWithStatus");
    // A third of the keys leave again, on stack and on heap scratch.
    std::vector<uint8_t> done(3000, 2);
    f.EraseMany(all.subspan(0, 1000), done.data());
    f.EraseMany(all.subspan(1000, 2000), done.data() + 1000);
    for (size_t i = 0; i < 3000; ++i) {
      ASSERT_EQ(done[i], 1) << "key " << i;
    }
    check(0, 3000, "EraseMany", /*erased=*/true);
  }
}

// --- Quotient filter: full differential sweep at several loads ---------------

class QfLoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(QfLoadSweep, MembershipExactUpToTargetLoad) {
  const double target = GetParam();
  QuotientFilter f(12, 10);
  const uint64_t seed = TestSeed(116);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(
      static_cast<uint64_t>(target * (1u << 12)), seed);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  EXPECT_NEAR(f.LoadFactor(), target, 0.01);
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
  ASSERT_TRUE(f.table().CheckInvariants());
  // Delete everything; the table must return to pristine.
  for (uint64_t k : keys) ASSERT_TRUE(f.Erase(k));
  EXPECT_EQ(f.table().num_used_slots(), 0u);
  ASSERT_TRUE(f.table().CheckInvariants());
}

TEST_P(QfLoadSweep, BatchLookupMatchesScalarAtTargetLoad) {
  // ContainsMany always runs its prefetching tile loop, so at high load
  // its tiles walk long clusters, some wrapping past the last slot.
  const double target = GetParam();
  QuotientFilter f(12, 10);
  const uint64_t seed = TestSeed(117);
  BBF_ANNOUNCE_SEED(seed);
  const uint64_t n = static_cast<uint64_t>(target * (1u << 12));
  const auto keys = GenerateDistinctKeys(n, seed);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  std::vector<HashedKey> queries(keys.begin(), keys.end());
  for (uint64_t k : GenerateNegativeKeys(keys, n, seed + 1)) {
    queries.emplace_back(k);
  }
  std::vector<uint8_t> want(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    want[i] = f.Contains(queries[i]) ? 1 : 0;
    if (i < n) {
      ASSERT_EQ(want[i], 1) << "inserted key " << i;
    }
  }
  // One full batch, then 33-key sub-batches: a 32-key tile and a 1-key
  // tail each.
  std::vector<uint8_t> got(queries.size(), 2);
  f.ContainsMany(queries, got.data());
  EXPECT_EQ(got, want);
  std::fill(got.begin(), got.end(), 2);
  const std::span<const HashedKey> all(queries);
  for (size_t base = 0; base < all.size(); base += 33) {
    f.ContainsMany(all.subspan(base, std::min<size_t>(33, all.size() - base)),
                   got.data() + base);
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Loads, QfLoadSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace bbf
