// Fault-injection suite for the snapshot layer (DESIGN.md §8): replays
// every snapshot under bit flips, truncations at frame boundaries, torn
// writes, and hostile length fields, asserting Load always fails cleanly —
// no crash, no unbounded allocation, no false negatives afterwards — and
// that ShardedFilter quarantines corrupt shards instead of dying.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/adaptive_quotient_filter.h"
#include "apps/lsm/run.h"
#include "bloom/dleft_filter.h"
#include "core/filter_io.h"
#include "core/key.h"
#include "core/registry.h"
#include "core/sharded_filter.h"
#include "cuckoo/adaptive_cuckoo_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "cuckoo/cuckoo_maplet.h"
#include "expandable/chained_filter.h"
#include "fault_injection.h"
#include "quotient/expanding_quotient_filter.h"
#include "quotient/prefix_filter.h"
#include "quotient/quotient_filter.h"
#include "quotient/quotient_maplet.h"
#include "quotient/rsqf.h"
#include "quotient/vector_quotient_filter.h"
#include "range/memento.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"
#include "util/bit_vector.h"
#include "util/compact_vector.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/serialize.h"

namespace bbf {
namespace {

std::vector<std::string_view> DynamicSnapshotTags() {
  std::vector<std::string_view> tags;
  for (std::string_view name : KnownFilterNames()) {
    // Factory names match frame tags except dleft.
    tags.push_back(name == "dleft" ? "dleft-counting" : name);
  }
  tags.push_back("spectral-bloom");
  return tags;
}

std::vector<uint64_t> InsertSome(Filter* f, uint64_t seed, int n) {
  SplitMix64 rng(seed);
  std::vector<uint64_t> inserted;
  for (int i = 0; i < n; ++i) {
    const uint64_t key = rng.Next();
    if (f->Insert(key)) inserted.push_back(key);
  }
  return inserted;
}

std::string SaveToString(const Filter& f) {
  std::ostringstream ss;
  EXPECT_TRUE(f.Save(ss));
  return std::move(ss).str();
}

uint64_t ReadLittleU64(const std::string& blob, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(blob[offset + i]))
         << (8 * i);
  }
  return v;
}

// Byte offset one past the first frame in `blob` (where ShardedFilter's
// per-shard frames begin).
size_t FirstFrameEnd(const std::string& blob) {
  const uint64_t tag_len = ReadLittleU64(blob, 16);
  const size_t payload_len_off = 24 + static_cast<size_t>(tag_len);
  const uint64_t payload_len = ReadLittleU64(blob, payload_len_off);
  return payload_len_off + 16 + static_cast<size_t>(payload_len);
}

TEST(FaultInjection, EveryFamilyRejectsCorruptSnapshotsCleanly) {
  uint64_t tag_index = 0;
  for (std::string_view tag : DynamicSnapshotTags()) {
    SCOPED_TRACE(std::string(tag));
    std::unique_ptr<Filter> f = CreateFilterForTag(tag, 4000);
    ASSERT_NE(f, nullptr);
    const std::vector<uint64_t> keys = InsertSome(f.get(), 77 + tag_index, 1500);
    ASSERT_FALSE(keys.empty());
    const std::string blob = SaveToString(*f);
    ASSERT_FALSE(blob.empty());

    const auto corruptions = fault::AllCorruptions(blob, 0x5EED + tag_index);
    const auto accepted = fault::ReplayExpectingRejection(
        corruptions, [&f](const std::string& b) {
          std::istringstream is(b);
          return f->Load(is);
        });
    EXPECT_TRUE(accepted.empty())
        << accepted.size() << " corruptions accepted, first: "
        << (accepted.empty() ? "" : accepted.front());

    // A rejected load must leave the filter untouched: every key inserted
    // before the fault barrage is still present (no false negatives).
    EXPECT_EQ(f->NumKeys(), keys.size());
    for (uint64_t key : keys) ASSERT_TRUE(f->Contains(key)) << key;
    ++tag_index;
  }
}

TEST(FaultInjection, StaticFamiliesRejectCorruptSnapshots) {
  SplitMix64 rng(0xABC);
  std::vector<uint64_t> keys(1000);
  for (uint64_t& k : keys) k = rng.Next();

  const XorFilter xf(keys, 12);
  const RibbonFilter rf(keys, 12);
  const Filter* filters[] = {&xf, &rf};
  for (const Filter* f : filters) {
    SCOPED_TRACE(std::string(f->Name()));
    const std::string blob = SaveToString(*f);
    const auto accepted = fault::ReplayExpectingRejection(
        fault::AllCorruptions(blob, 0x17), [&](const std::string& b) {
          std::istringstream is(b);
          return LoadFilterSnapshot(is) != nullptr;
        });
    EXPECT_TRUE(accepted.empty())
        << accepted.size() << " corruptions accepted, first: "
        << (accepted.empty() ? "" : accepted.front());
  }
}

// The Memento frame rides two loader paths: Filter::Load on a live
// instance (already in the every-family barrage above via the registry)
// and the LSM's range-filter resurrection, which instantiates from the
// frame tag alone. Both must reject every corruption of a real snapshot —
// bit flips, truncations at each frame boundary, torn writes, hostile
// length fields — and a rejected load must leave a live filter's range
// answers intact.
TEST(FaultInjection, MementoRangeLoaderRejectsCorruptSnapshots) {
  SplitMix64 rng(0xDEF);
  std::vector<uint64_t> keys(2000);
  for (uint64_t& k : keys) k = rng.Next();
  MementoFilter f = MementoFilter::ForCapacity(keys.size(), 0.01);
  for (uint64_t k : keys) ASSERT_TRUE(f.AddKey(k));
  std::ostringstream ss;
  ASSERT_TRUE(f.Save(ss));
  const std::string blob = std::move(ss).str();

  const auto corruptions = fault::AllCorruptions(blob, 0x5EED);
  const auto accepted_direct = fault::ReplayExpectingRejection(
      corruptions, [&f](const std::string& b) {
        std::istringstream is(b);
        return f.Load(is);
      });
  EXPECT_TRUE(accepted_direct.empty())
      << accepted_direct.size() << " corruptions accepted by Load, first: "
      << (accepted_direct.empty() ? "" : accepted_direct.front());

  const auto accepted_lsm = fault::ReplayExpectingRejection(
      corruptions, [](const std::string& b) {
        std::istringstream is(b);
        return lsm::LoadRangeFilterSnapshot(is) != nullptr;
      });
  EXPECT_TRUE(accepted_lsm.empty())
      << accepted_lsm.size()
      << " corruptions accepted by the LSM range loader, first: "
      << (accepted_lsm.empty() ? "" : accepted_lsm.front());

  // The barrage of rejected loads must not have disturbed the original.
  EXPECT_EQ(f.NumKeys(), keys.size());
  for (uint64_t k : keys) ASSERT_TRUE(f.MayContainRange(k, k)) << k;

  // Sanity: the clean blob still loads through the LSM path.
  std::istringstream is(blob);
  auto reloaded = lsm::LoadRangeFilterSnapshot(is);
  ASSERT_NE(reloaded, nullptr);
  for (uint64_t k : keys) ASSERT_TRUE(reloaded->MayContainRange(k, k)) << k;
}

// Well-formed frames (valid checksum, consistent geometry) around broken
// slot metadata: the quotient engines must reject them when they load, not
// misbehave on the first probe, and leave the filter as it was.
std::string Frame(std::string_view tag, const std::ostringstream& payload) {
  std::ostringstream frame;
  EXPECT_TRUE(WriteSnapshotFrame(frame, tag, payload.str()));
  return std::move(frame).str();
}

TEST(FaultInjection, RsqfFrameWithoutRunendsIsRejected) {
  // Occupied quotients with no runend anywhere: a probe would select a
  // runend that does not exist and read slot ~0.
  constexpr int kQ = 10;
  constexpr int kR = 8;
  Rsqf f(kQ, kR);
  const std::vector<uint64_t> keys = InsertSome(&f, 0xC0DE, 300);
  const std::string before = SaveToString(f);

  const uint64_t slots = (uint64_t{1} << kQ) + 2 * Rsqf::kBlockSlots;
  BitVector occupieds(slots);
  uint64_t occupied = 0;
  for (uint64_t q = 0; q < (uint64_t{1} << kQ); q += 7, ++occupied) {
    occupieds.Set(q);
  }
  std::ostringstream payload;
  WriteI32(payload, kQ);
  WriteI32(payload, kR);
  WriteU64(payload, 0x45F);
  WriteU64(payload, occupied);
  occupieds.Save(payload);
  BitVector(slots).Save(payload);  // Runends: none.
  CompactVector(slots, kR).Save(payload);
  for (uint64_t b = 0; b < slots / Rsqf::kBlockSlots + 1; ++b) {
    WriteU64(payload, 0);
  }
  std::istringstream is(Frame("rsqf", payload));
  ASSERT_FALSE(f.Load(is));
  EXPECT_EQ(SaveToString(f), before);
  for (uint64_t key : keys) ASSERT_TRUE(f.Contains(key)) << key;
}

TEST(FaultInjection, QuotientFrameWithEverySlotShiftedIsRejected) {
  // Every slot occupied and shifted: a run-start walk never meets the
  // unshifted slot it stops at.
  constexpr int kQ = 8;
  constexpr int kR = 8;
  QuotientFilter f(kQ, kR);
  const std::vector<uint64_t> keys = InsertSome(&f, 0xC0DF, 150);
  const std::string before = SaveToString(f);

  const uint64_t slots = uint64_t{1} << kQ;
  BitVector all(slots);
  for (uint64_t i = 0; i < slots; ++i) all.Set(i);
  std::ostringstream payload;
  WriteU64(payload, 0xBB);
  WriteU64(payload, slots);
  WriteI32(payload, kQ);
  WriteI32(payload, kR);
  WriteI32(payload, 0);  // No value plane.
  WriteI32(payload, 0);  // No tag plane.
  WriteU64(payload, slots);
  all.Save(payload);              // Occupied.
  BitVector(slots).Save(payload);  // Continuation.
  all.Save(payload);              // Shifted.
  BitVector().Save(payload);      // Tag.
  CompactVector(slots, kR).Save(payload);
  CompactVector(0, 1).Save(payload);  // Values.
  std::istringstream is(Frame("quotient", payload));
  ASSERT_FALSE(f.Load(is));
  EXPECT_EQ(SaveToString(f), before);
  for (uint64_t key : keys) ASSERT_TRUE(f.Contains(key)) << key;
}

// Cuckoo frames whose stash or key count contradicts the table: a stash
// entry aimed past the last bucket or holding the empty fingerprint, or a
// key count other than the occupied cells plus the stash entries. A
// stash bucket past the table would send a probe out of range, and a
// wrong count breaks NumKeys and LoadFactor.
struct CuckooStashEntry {
  uint64_t bucket;
  uint64_t fp;
};
struct BadCuckooFrame {
  const char* name;
  uint64_t num_keys;
  std::vector<CuckooStashEntry> stash;
};
constexpr int kCuckooFpBits = 12;
constexpr uint64_t kCuckooBuckets = 64;
const std::vector<BadCuckooFrame>& BadCuckooFrames() {
  // Each frame has one occupied cell.
  static const std::vector<BadCuckooFrame> frames = {
      {"stash bucket past the table", 2, {{1000, 7}}},
      {"empty stash fingerprint", 2, {{3, 0}}},
      {"both, and a count of 5", 5, {{1000, 0}}},
      {"count above cells plus stash", 5, {{3, 7}}},
      {"count below cells plus stash", 1, {{3, 7}}},
  };
  return frames;
}

// Writes the table part shared by both payloads: header, then one
// fingerprint in cell 0.
void WriteCuckooTable(std::ostream& os, uint64_t num_keys) {
  WriteI32(os, kCuckooFpBits);
  WriteU64(os, 0xCF);
  WriteU64(os, kCuckooBuckets);
  WriteU64(os, num_keys);
  CompactVector cells(kCuckooBuckets * 4, kCuckooFpBits);
  cells.Set(0, 0x5A);
  cells.Save(os);
}

TEST(FaultInjection, CuckooFrameWithBadStashOrCountIsRejected) {
  CuckooFilter f(200, kCuckooFpBits);
  const std::vector<uint64_t> keys = InsertSome(&f, 0xC0E0, 150);
  const std::string before = SaveToString(f);
  for (const BadCuckooFrame& bad : BadCuckooFrames()) {
    SCOPED_TRACE(bad.name);
    std::ostringstream payload;
    WriteCuckooTable(payload, bad.num_keys);
    WriteU64(payload, bad.stash.size());
    for (const CuckooStashEntry& e : bad.stash) {
      WriteU64(payload, (e.bucket << kCuckooFpBits) | e.fp);
    }
    std::istringstream is(Frame("cuckoo", payload));
    EXPECT_FALSE(f.Load(is));
    EXPECT_EQ(SaveToString(f), before);
  }
  for (uint64_t key : keys) ASSERT_TRUE(f.Contains(key)) << key;
}

TEST(FaultInjection, CuckooMapletFrameWithBadStashOrCountIsRejected) {
  CuckooMaplet m(200, kCuckooFpBits, 8);
  for (uint64_t k = 0; k < 150; ++k) ASSERT_TRUE(m.Insert(k, k & 255));
  std::ostringstream before;
  ASSERT_TRUE(m.SavePayload(before));
  std::vector<BadCuckooFrame> frames = BadCuckooFrames();
  frames.push_back({"stash fingerprint wider than f", 2, {{3, 1 << 12}}});
  for (const BadCuckooFrame& bad : frames) {
    SCOPED_TRACE(bad.name);
    std::ostringstream payload;
    WriteCuckooTable(payload, bad.num_keys);
    CompactVector(kCuckooBuckets * 4, 8).Save(payload);  // Values.
    WriteU64(payload, bad.stash.size());
    for (const CuckooStashEntry& e : bad.stash) {
      WriteU64(payload, e.bucket);
      WriteU64(payload, e.fp);
      WriteU64(payload, 9);  // Value.
    }
    std::istringstream is(payload.str());
    EXPECT_FALSE(m.LoadPayload(is));
    std::ostringstream after;
    ASSERT_TRUE(m.SavePayload(after));
    EXPECT_EQ(after.str(), before.str());
  }
  for (uint64_t k = 0; k < 150; ++k) {
    const std::vector<uint64_t> values = m.Lookup(k);
    ASSERT_NE(std::find(values.begin(), values.end(), k & 255), values.end())
        << k;
  }
}

// An adaptive-cuckoo payload's fields, in SavePayload's order.
struct AdaptiveCuckooFields {
  int32_t fingerprint_bits = 0;
  int32_t selector_bits = 0;
  uint64_t seed = 0;
  uint64_t buckets = 0;
  uint64_t num_keys = 0;
  uint64_t adaptations = 0;
  CompactVector fingerprints;
  CompactVector selectors;
  std::vector<uint64_t> remote;
  std::vector<uint64_t> stash;

  explicit AdaptiveCuckooFields(const AdaptiveCuckooFilter& f) {
    std::ostringstream os;
    EXPECT_TRUE(f.SavePayload(os));
    std::istringstream is(os.str());
    EXPECT_TRUE(ReadI32(is, &fingerprint_bits) &&
                ReadI32(is, &selector_bits) && ReadU64(is, &seed) &&
                ReadU64(is, &buckets) && ReadU64(is, &num_keys) &&
                ReadU64(is, &adaptations) && fingerprints.Load(is) &&
                selectors.Load(is));
    remote.resize(fingerprints.size());
    for (uint64_t& k : remote) EXPECT_TRUE(ReadU64(is, &k));
    uint64_t stash_size = 0;
    EXPECT_TRUE(ReadU64(is, &stash_size));
    stash.resize(stash_size);
    for (uint64_t& k : stash) EXPECT_TRUE(ReadU64(is, &k));
  }

  std::string ToFrame() const {
    std::ostringstream payload;
    WriteI32(payload, fingerprint_bits);
    WriteI32(payload, selector_bits);
    WriteU64(payload, seed);
    WriteU64(payload, buckets);
    WriteU64(payload, num_keys);
    WriteU64(payload, adaptations);
    fingerprints.Save(payload);
    selectors.Save(payload);
    for (uint64_t k : remote) WriteU64(payload, k);
    WriteU64(payload, stash.size());
    for (uint64_t k : stash) WriteU64(payload, k);
    return Frame("adaptive-cuckoo", payload);
  }

  // Moves cell `from` (fingerprint, selector, key) into the empty `to`.
  void MoveCell(uint64_t from, uint64_t to) {
    fingerprints.Set(to, fingerprints.Get(from));
    selectors.Set(to, selectors.Get(from));
    remote[to] = remote[from];
    fingerprints.Set(from, 0);
    selectors.Set(from, 0);
    remote[from] = 0;
  }
};

// Adaptive-cuckoo frames that break what Insert, the kicks, Erase and
// ReportFalsePositive keep. A cell whose fingerprint is not its key's, or
// that sits outside its key's two buckets, is a false negative for that
// key; a wrong count breaks NumKeys and LoadFactor.
TEST(FaultInjection, AdaptiveCuckooFrameBreakingItsInvariantsIsRejected) {
  constexpr uint64_t kKey = 0xACF;
  constexpr int kSlots = AdaptiveCuckooFilter::kSlotsPerBucket;
  AdaptiveCuckooFilter one(200, 12);
  ASSERT_TRUE(one.Insert(kKey));
  const AdaptiveCuckooFields base(one);
  uint64_t cell = 0;
  while (base.fingerprints.Get(cell) == 0) ++cell;
  const uint64_t empty = (cell + 1) % base.fingerprints.size();
  // Five copies of the key fill its first bucket and spill one copy into
  // its second, so the cells they occupy mark both of its buckets.
  AdaptiveCuckooFilter five(200, 12);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(five.Insert(kKey));
  const AdaptiveCuckooFields spread(five);
  const auto bucket_is_empty = [&](uint64_t first_cell) {
    for (int s = 0; s < kSlots; ++s) {
      if (spread.fingerprints.Get(first_cell + s) != 0) return false;
    }
    return true;
  };
  uint64_t outside = 0;  // First cell of a bucket the key never uses.
  while (!bucket_is_empty(outside)) outside += kSlots;
  {
    // The helper re-frames an intact payload that loads.
    AdaptiveCuckooFilter probe(200, 12);
    std::istringstream is(base.ToFrame());
    ASSERT_TRUE(probe.Load(is));
    EXPECT_TRUE(probe.Contains(kKey));
  }

  struct Bad {
    const char* name;
    AdaptiveCuckooFields fields;
  };
  std::vector<Bad> frames(7, Bad{"", base});
  frames[0].name = "count 5 for one cell";
  frames[0].fields.num_keys = 5;
  frames[1].name = "count 0 for one cell";
  frames[1].fields.num_keys = 0;
  frames[2].name = "fingerprint not the key's";
  frames[2].fields.fingerprints.Set(
      cell, base.fingerprints.Get(cell) == 1 ? 2 : 1);
  frames[3].name = "selector bumped without its fingerprint";
  frames[3].fields.selectors.Set(cell, 1);
  frames[4].name = "cell outside its key's buckets";
  frames[4].fields.MoveCell(cell, outside);
  frames[5].name = "empty cell with a selector";
  frames[5].fields.selectors.Set(empty, 1);
  frames[6].name = "empty cell with a key";
  frames[6].fields.remote[empty] = 42;

  AdaptiveCuckooFilter f(200, 12);
  const std::vector<uint64_t> keys = InsertSome(&f, 0xAC0E, 150);
  const std::string before = SaveToString(f);
  for (const Bad& bad : frames) {
    SCOPED_TRACE(bad.name);
    std::istringstream is(bad.fields.ToFrame());
    EXPECT_FALSE(f.Load(is));
    EXPECT_EQ(SaveToString(f), before);
  }
  EXPECT_EQ(f.NumKeys(), keys.size());
  for (uint64_t key : keys) ASSERT_TRUE(f.Contains(key)) << key;
}

// Payloads holding one key, with the key count (the 8-byte word at
// `count_at`) rewritten to 5. These families check their count against
// their structure, so the load must fail and leave `target` as it was;
// the intact payload then loads, so the count alone was at fault.
template <typename F>
void ExpectWrongCountRejected(const F& one, F* target, size_t count_at) {
  const auto saved = [](const F& f) {
    std::ostringstream ss;
    EXPECT_TRUE(f.Save(ss));
    return std::move(ss).str();
  };
  std::ostringstream payload;
  ASSERT_TRUE(one.SavePayload(payload));
  std::string bad = std::move(payload).str();
  ASSERT_EQ(ReadLittleU64(bad, count_at), 1u);
  bad[count_at] = 5;
  std::ostringstream frame;
  ASSERT_TRUE(WriteSnapshotFrame(frame, one.Name(), bad));
  const std::string before = saved(*target);
  std::istringstream is(std::move(frame).str());
  EXPECT_FALSE(target->Load(is));
  EXPECT_EQ(saved(*target), before);
  std::istringstream intact(saved(one));
  ASSERT_TRUE(target->Load(intact));
  EXPECT_EQ(saved(*target), saved(one));
}

TEST(FaultInjection, QuotientFrameWithWrongKeyCountIsRejected) {
  QuotientFilter one(8, 8);
  ASSERT_TRUE(one.Insert(0xC01));
  QuotientFilter f(8, 8);
  InsertSome(&f, 0xC0E1, 150);
  ExpectWrongCountRejected(one, &f, /*count_at=*/8);
}

TEST(FaultInjection, CountingQuotientFrameWithWrongKeyCountIsRejected) {
  // The count is every remainder slot plus its decoded counter digits.
  CountingQuotientFilter one(8, 8);
  ASSERT_TRUE(one.Insert(0xC0B));
  CountingQuotientFilter f(8, 8);
  InsertSome(&f, 0xC0EB, 150);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(f.Insert(0xC0EB));  // Digits.
  ExpectWrongCountRejected(one, &f, /*count_at=*/8);
}

TEST(FaultInjection, ExpandingQuotientFrameWithWrongKeyCountIsRejected) {
  ExpandingQuotientFilter one(8, 8);
  ASSERT_TRUE(one.Insert(0xC02));
  ExpandingQuotientFilter f(8, 8);
  InsertSome(&f, 0xC0E2, 150);
  // Seed and expansion count, then the quotient filter's payload.
  ExpectWrongCountRejected(one, &f, /*count_at=*/8 + 8 + 8);
}

TEST(FaultInjection, AdaptiveQuotientFrameWithWrongKeyCountIsRejected) {
  AdaptiveQuotientFilter one(8, 8);
  ASSERT_TRUE(one.Insert(0xC03));
  AdaptiveQuotientFilter f(8, 8);
  InsertSome(&f, 0xC0E3, 150);
  // Seed and adaptation count, then the quotient filter's payload.
  ExpectWrongCountRejected(one, &f, /*count_at=*/8 + 8 + 8);
}

TEST(FaultInjection, QuotientMapletFrameWithWrongEntryCountIsRejected) {
  QuotientMaplet one(8, 8, 8);
  ASSERT_TRUE(one.Insert(0xC04, 7));
  QuotientMaplet m(8, 8, 8);
  for (uint64_t k = 0; k < 150; ++k) ASSERT_TRUE(m.Insert(k, k & 255));
  ExpectWrongCountRejected(one, &m, /*count_at=*/8);
}

TEST(FaultInjection, ChainedQuotientFrameWithWrongKeyCountIsRejected) {
  ChainedQuotientFilter one(8, 8);
  ASSERT_TRUE(one.Insert(0xC05));
  ChainedQuotientFilter f(6, 8);
  InsertSome(&f, 0xC0E5, 150);  // Grows the chain past one link.
  ASSERT_GT(f.chain_length(), 1u);
  // Remainder and next quotient bits, then the seed, then the count.
  ExpectWrongCountRejected(one, &f, /*count_at=*/8 + 8 + 8);
}

TEST(FaultInjection, PrefixFrameWithWrongKeyCountIsRejected) {
  PrefixFilter one(100, 8);
  ASSERT_TRUE(one.Insert(0xC06));
  PrefixFilter f(1000, 8);
  InsertSome(&f, 0xC0E6, 150);
  // Fingerprint bits, seed and bucket count, then the count.
  ExpectWrongCountRejected(one, &f, /*count_at=*/8 + 8 + 8);
}

TEST(FaultInjection, DleftFrameWithWrongKeyCountIsRejected) {
  // The count is every cell's count plus every overflowed key's.
  DleftCountingFilter one(100);
  ASSERT_TRUE(one.Insert(0xC0A));
  DleftCountingFilter f(1000);
  InsertSome(&f, 0xC0EA, 150);
  // Subtables, cells per bucket, fingerprint and counter bits, buckets per
  // subtable, then the count.
  ExpectWrongCountRejected(one, &f, /*count_at=*/5 * 8);
}

// Vector-quotient payload layout, in 8-byte words: remainder bits, seed,
// key count, block count, then per block `used` and the metadata bit
// vector (its bit count, then its words) before the remainders.
constexpr size_t kVqfCountAt = 8 + 8;
constexpr size_t kVqfBlocksAt = kVqfCountAt + 8;
constexpr size_t kVqfBlock0MetadataAt = kVqfBlocksAt + 8 + 8;

// `one`'s payload after `rewrite`, framed with a valid checksum: the load
// must fail and leave `target`'s saved bytes as they were.
void ExpectRewrittenPayloadRejected(
    const VectorQuotientFilter& one, VectorQuotientFilter* target,
    const std::function<void(std::string*)>& rewrite) {
  std::ostringstream payload;
  ASSERT_TRUE(one.SavePayload(payload));
  std::string bad = std::move(payload).str();
  rewrite(&bad);
  std::ostringstream frame;
  ASSERT_TRUE(WriteSnapshotFrame(frame, one.Name(), bad));
  const std::string before = SaveToString(*target);
  std::istringstream is(std::move(frame).str());
  EXPECT_FALSE(target->Load(is));
  EXPECT_EQ(SaveToString(*target), before);
}

TEST(FaultInjection, VectorQuotientFrameWithoutBlockMarkersIsRejected) {
  // Block 0's bucket markers all sit in its first metadata word. Without
  // them a probe of block 0 walks past the metadata looking for markers.
  VectorQuotientFilter one(100, 8);
  ASSERT_TRUE(one.Insert(0xC07));
  VectorQuotientFilter f(1000, 8);
  const std::vector<uint64_t> keys = InsertSome(&f, 0xC0E7, 150);
  ExpectRewrittenPayloadRejected(one, &f, [](std::string* p) {
    ASSERT_EQ(ReadLittleU64(*p, kVqfBlock0MetadataAt),
              uint64_t{VectorQuotientFilter::kBucketsPerBlock +
                       VectorQuotientFilter::kSlotsPerBlock});
    p->replace(kVqfBlock0MetadataAt + 8, 8, 8, '\0');
  });
  for (uint64_t key : keys) ASSERT_TRUE(f.Contains(key)) << key;
}

TEST(FaultInjection, VectorQuotientFrameWithHugeBlockCountIsRejected) {
  // 2^32 blocks is under the element cap but far beyond the payload: the
  // loader must run out of stream, not allocate every block up front.
  VectorQuotientFilter one(100, 8);
  ASSERT_TRUE(one.Insert(0xC08));
  VectorQuotientFilter f(1000, 8);
  InsertSome(&f, 0xC0E8, 150);
  ExpectRewrittenPayloadRejected(one, &f, [](std::string* p) {
    ASSERT_LT(ReadLittleU64(*p, kVqfBlocksAt), 16u);
    (*p)[kVqfBlocksAt + 4] = 1;  // Block count += 2^32.
  });
}

TEST(FaultInjection, VectorQuotientFrameWithWrongKeyCountIsRejected) {
  VectorQuotientFilter one(100, 8);
  ASSERT_TRUE(one.Insert(0xC09));
  VectorQuotientFilter f(1000, 8);
  InsertSome(&f, 0xC0E9, 150);
  ExpectWrongCountRejected(one, &f, kVqfCountAt);
}

TEST(FaultInjection, GarbageAndEmptyStreamsAreRejected) {
  for (const std::string& junk :
       {std::string(), std::string("hello world"),
        std::string(1000, '\0'), std::string(64, '\xFF')}) {
    std::istringstream is(junk);
    EXPECT_EQ(LoadFilterSnapshot(is), nullptr);
    std::istringstream is2(junk);
    auto bloom = CreateFilterForTag("bloom", 100);
    EXPECT_FALSE(bloom->Load(is2));
  }
}

TEST(FaultInjection, HostileLengthFieldsDontAllocate) {
  // A frame whose payload_len claims 2^62 bytes: the loader must fail
  // from the actual stream contents, not trust the field. Running under
  // ASan, an eager allocation would abort the test.
  std::ostringstream ss;
  WriteU64(ss, kSnapshotMagic);
  WriteU64(ss, kSnapshotVersion);
  WriteU64(ss, 5);
  ss.write("bloom", 5);
  WriteU64(ss, uint64_t{1} << 62);  // Hostile payload length.
  WriteU64(ss, 0);                  // Bogus checksum.
  ss.write("xy", 2);                // Far less payload than claimed.
  const std::string blob = std::move(ss).str();
  std::istringstream is(blob);
  EXPECT_EQ(LoadFilterSnapshot(is), nullptr);
}

TEST(FaultInjection, WrongFamilyTagIsRejected) {
  auto bloom = CreateFilterForTag("bloom", 500);
  InsertSome(bloom.get(), 1, 100);
  const std::string blob = SaveToString(*bloom);
  auto cuckoo = CreateFilterForTag("cuckoo", 500);
  std::istringstream is(blob);
  EXPECT_FALSE(cuckoo->Load(is));
}

class ShardedFaultTest : public ::testing::Test {
 protected:
  static std::unique_ptr<ShardedFilter> MakeSharded() {
    return std::make_unique<ShardedFilter>(
        4000, kShards,
        [](uint64_t cap) { return CreateFilter("bloom", cap, 0.01); });
  }

  static size_t ShardOf(uint64_t key) {
    // Mirrors ShardedFilter's routing: the canonical mix, not a re-hash.
    return static_cast<size_t>(HashedKey(key).value() % kShards);
  }

  static constexpr int kShards = 4;
};

TEST_F(ShardedFaultTest, CorruptShardIsQuarantinedOthersLoad) {
  auto original = MakeSharded();
  const std::vector<uint64_t> keys = InsertSome(original.get(), 9, 2000);
  std::string blob = SaveToString(*original);

  // Flip a bit inside the first per-shard frame (just past the outer
  // directory frame).
  const size_t shard0_start = FirstFrameEnd(blob);
  ASSERT_LT(shard0_start + 40, blob.size());
  blob[shard0_start + 40] ^= 0x10;

  auto reloaded = MakeSharded();
  ShardedFilter::LoadReport report;
  std::istringstream is(blob);
  ASSERT_TRUE(reloaded->LoadWithReport(is, &report));
  EXPECT_EQ(report.total_shards, static_cast<size_t>(kShards));
  EXPECT_EQ(report.healthy_shards, static_cast<size_t>(kShards - 1));
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], 0u);

  // Healthy shards answer exactly as before; the quarantined shard was
  // rebuilt empty, so its keys are gone but nothing crashes or lies.
  for (uint64_t key : keys) {
    if (ShardOf(key) != 0) {
      EXPECT_TRUE(reloaded->Contains(key)) << key;
    }
  }
  EXPECT_LT(reloaded->NumKeys(), keys.size());
}

TEST_F(ShardedFaultTest, TruncationMidShardQuarantinesTail) {
  auto original = MakeSharded();
  const std::vector<uint64_t> keys = InsertSome(original.get(), 10, 2000);
  const std::string blob = SaveToString(*original);
  const size_t shards_start = FirstFrameEnd(blob);
  // Cut halfway through the shard frames: a prefix of shards survives,
  // the rest quarantine.
  const std::string cut =
      blob.substr(0, shards_start + (blob.size() - shards_start) / 2);

  auto reloaded = MakeSharded();
  ShardedFilter::LoadReport report;
  std::istringstream is(cut);
  ASSERT_TRUE(reloaded->LoadWithReport(is, &report));
  EXPECT_EQ(report.total_shards, static_cast<size_t>(kShards));
  EXPECT_FALSE(report.quarantined.empty());
  EXPECT_LT(report.healthy_shards, static_cast<size_t>(kShards));
  for (uint64_t key : keys) {
    bool healthy = true;
    for (size_t q : report.quarantined) healthy &= ShardOf(key) != q;
    if (healthy) {
      EXPECT_TRUE(reloaded->Contains(key)) << key;
    }
  }
}

TEST_F(ShardedFaultTest, CorruptDirectoryFailsWholeLoadAndPreservesState) {
  auto original = MakeSharded();
  InsertSome(original.get(), 11, 1000);
  std::string blob = SaveToString(*original);
  blob[30] ^= 0x01;  // Inside the outer directory frame header/payload.

  auto target = MakeSharded();
  const std::vector<uint64_t> target_keys = InsertSome(target.get(), 12, 500);
  ShardedFilter::LoadReport report;
  std::istringstream is(blob);
  EXPECT_FALSE(target->LoadWithReport(is, &report));
  // Failed directory load leaves the target exactly as it was.
  EXPECT_EQ(target->NumKeys(), target_keys.size());
  for (uint64_t key : target_keys) EXPECT_TRUE(target->Contains(key));
}

TEST_F(ShardedFaultTest, RoundTripsThroughFilterIo) {
  auto original = MakeSharded();
  const std::vector<uint64_t> keys = InsertSome(original.get(), 13, 2000);
  const std::string blob = SaveToString(*original);
  std::istringstream is(blob);
  std::unique_ptr<Filter> reloaded = LoadFilterSnapshot(is);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->Name(), "sharded");
  EXPECT_EQ(reloaded->NumKeys(), keys.size());
  for (uint64_t key : keys) EXPECT_TRUE(reloaded->Contains(key));
}

}  // namespace
}  // namespace bbf
