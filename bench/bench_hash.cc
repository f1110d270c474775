// Experiment E21 (DESIGN.md §4, §10): what the hash-once key pipeline
// buys. Two angles:
//
//  * primitives — per-key hashing cost of the old pipeline (one routing
//    hash in the sharding layer plus an independent re-hash inside the
//    family) vs the new one (one canonical Mix64 at the boundary, with
//    families deriving streams via a single widening multiply each);
//  * end-to-end sharded lookups — the layer the refactor targeted: the
//    legacy double-hash route/probe emulation vs ShardedFilter's scalar
//    hash-once path vs its batched path (hash once into scratch, group by
//    shard, prefetch, probe).
//
// Usage: bench_hash [--quick] [--json=PATH]
//   --quick      only the in-cache size (1M keys); default also runs the
//                out-of-LLC size (8M keys).
//   --json=PATH  write machine-readable results (BENCH_hash.json).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "bloom/bloom_filter.h"
#include "core/key.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "util/hash.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

constexpr size_t kShards = 16;

/// Adds one row; `speedup` is its median over `baseline_mops`, the
/// section's baseline row at the same n.
void Record(Harness& h, const std::string& section, const std::string& name,
            uint64_t n, const Spread& mops, double baseline_mops) {
  const double speedup =
      baseline_mops > 0 ? mops.median / baseline_mops : 0.0;
  h.AddRow()
      .Text("section", section)
      .Text("mode", name)
      .Int("n", n)
      .Cell("mops", mops)
      .Num("speedup", speedup);
  std::printf("  %-14s %-22s n=%-9llu %9.2f Mops [%.2f, %.2f]  %5.2fx\n",
              section.c_str(), name.c_str(),
              static_cast<unsigned long long>(n), mops.median, mops.p10,
              mops.p90, speedup);
}

// ---- Part A: per-key hashing primitives. The accumulator is consumed
// after timing so the hash loops cannot be dead-code-eliminated.

void RunPrimitives(Harness& h, const std::vector<uint64_t>& keys) {
  const uint64_t n = keys.size();
  uint64_t acc = 0;

  // Legacy pipeline: one seeded routing hash (the old ShardedFilter's
  // Hash64(key, 0x5A4D)) plus the family's own full re-mix of the raw
  // key — two finalizer-strength mixes per op.
  const Spread legacy_mops = h.Rate(n, [&] {
    for (uint64_t k : keys) acc ^= Hash64(k, 0x5A4D) ^ Mix64(k);
  });
  Record(h, "primitive", "legacy-route+rehash", n, legacy_mops,
         legacy_mops.median);

  // Hash-once boundary: the single canonical mix every layer shares.
  Record(h, "primitive", "hash-once-boundary", n, h.Rate(n, [&] {
           for (uint64_t k : keys) acc ^= HashedKey(k).value();
         }),
         legacy_mops.median);

  // Boundary mix plus a Kirsch–Mitzenmacher h1/h2 stream pair — the full
  // per-key hashing a Bloom probe needs under the new pipeline.
  Record(h, "primitive", "hash-once+derive-pair", n, h.Rate(n, [&] {
           for (uint64_t k : keys) {
             const HashedKey hk(k);
             acc ^= hk.Derive(0) ^ hk.Derive(1);
           }
         }),
         legacy_mops.median);

  // String boundary: 16-byte keys hashed once at entry.
  std::vector<std::string> strs;
  strs.reserve(n);
  for (uint64_t k : keys) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(k));
    strs.emplace_back(buf, 16);
  }
  Record(h, "primitive", "string-boundary-16B", n, h.Rate(n, [&] {
           for (const std::string& s : strs) {
             acc ^= HashedKey(std::string_view(s)).value();
           }
         }),
         legacy_mops.median);

  if (acc == 42) std::printf("# unlikely\n");  // Consume the accumulator.
}

// ---- Part B: end-to-end sharded lookups.

using ShardFactory = std::function<std::unique_ptr<Filter>(uint64_t)>;

/// A bare sharded lookup structure: the routing layer re-implemented in
/// the bench over a plain shard array, with no serving-layer locks. All
/// three pipelines below run on this same structure, so the comparison
/// isolates hashing and batching — the per-shard lock economics of the
/// real ShardedFilter are E20's subject (`bench_concurrent`), not E21's.
struct BareSharded {
  BareSharded(uint64_t capacity, const ShardFactory& make) {
    shards.reserve(kShards);
    for (size_t s = 0; s < kShards; ++s) {
      shards.push_back(make(capacity / kShards + 1));
    }
  }

  // The pre-refactor pipeline: a dedicated seeded routing hash picks the
  // shard, then the family re-mixes the raw key. Two mixes per op.
  bool LegacyContains(uint64_t key) const {
    return shards[Hash64(key, 0x5A4D) % kShards]->Contains(key);
  }

  // The hash-once pipeline, scalar: one boundary mix; the router slices
  // value() and the family derives its streams from the same HashedKey.
  bool Contains(HashedKey key) const {
    return shards[key.value() % kShards]->Contains(key);
  }

  std::vector<std::unique_ptr<Filter>> shards;
};

/// The hash-once batched pipeline (what ShardedFilter::ContainsMany does
/// under its locks): mix every key once into scratch, group by shard with
/// the library's counting sort, then hand each shard one contiguous
/// sub-batch for its prefetch pipeline, scattering results back by
/// original index.
struct BatchScratch {
  std::vector<HashedKey> hashed;
  std::vector<HashedKey> sorted;
  std::vector<size_t> src;
  std::vector<uint8_t> res;
  size_t start[kShards + 1];

  uint64_t Lookup(const BareSharded& f, std::span<const uint64_t> keys,
                  size_t batch, uint8_t* out) {
    for (size_t base = 0; base < keys.size(); base += batch) {
      const size_t m = std::min(batch, keys.size() - base);
      hashed.resize(m);
      sorted.resize(m);
      src.resize(m);
      res.resize(m);
      for (size_t i = 0; i < m; ++i) {
        hashed[i] = HashedKey(keys[base + i]);  // The one mix per key.
      }
      GroupByShard(hashed, kShards, sorted.data(), src.data(), start);
      for (size_t s = 0; s < kShards; ++s) {
        if (start[s] == start[s + 1]) continue;
        f.shards[s]->ContainsMany(
            std::span<const HashedKey>(sorted.data() + start[s],
                                       start[s + 1] - start[s]),
            res.data() + start[s]);
      }
      for (size_t p = 0; p < m; ++p) out[base + src[p]] = res[p];
    }
    uint64_t hits = 0;
    for (size_t i = 0; i < keys.size(); ++i) hits += out[i];
    return hits;
  }
};

void RunShardedFamily(Harness& h, const std::string& family,
                      const ShardFactory& make, uint64_t n,
                      const std::vector<uint64_t>& keys,
                      const std::vector<uint64_t>& queries) {
  // Two filter states: one populated through legacy routing, one through
  // hash-once routing, so each pipeline queries the placement it built.
  BareSharded legacy(n, make);
  for (uint64_t k : keys) {
    legacy.shards[Hash64(k, 0x5A4D) % kShards]->Insert(k);
  }
  BareSharded current(n, make);
  for (uint64_t k : keys) {
    const HashedKey hk(k);
    current.shards[hk.value() % kShards]->Insert(hk);
  }

  const uint64_t q = queries.size();
  uint64_t hits_legacy = 0;
  const Spread legacy_mops = h.Rate(q, [&] {
    hits_legacy = 0;
    for (uint64_t k : queries) hits_legacy += legacy.LegacyContains(k);
  });
  Record(h, family, "legacy-double-hash", n, legacy_mops, legacy_mops.median);

  uint64_t hits_scalar = 0;
  Record(h, family, "hash-once-scalar", n, h.Rate(q, [&] {
           hits_scalar = 0;
           for (uint64_t k : queries) {
             hits_scalar += current.Contains(HashedKey(k));
           }
         }),
         legacy_mops.median);

  std::vector<uint8_t> out(q);
  BatchScratch scratch;
  uint64_t hits_batch = 0;
  for (size_t batch : {size_t{128}, q}) {
    Record(h, family,
           batch == q ? "hash-once-batchfull" : "hash-once-batch128", n,
           h.Rate(q, [&] {
             hits_batch = scratch.Lookup(current, queries, batch, out.data());
           }),
           legacy_mops.median);
    h.Check(hits_batch == hits_scalar,
            family + " batched hits equal scalar hits");
  }

  // Routing differs between the two pipelines, so shard membership (and
  // hence which negatives false-positive) differs — but no pipeline may
  // lose a key: every positive query must hit in every mode, and the
  // batched path must agree with the scalar path bit for bit (above).
  h.Check(hits_legacy >= keys.size() && hits_scalar >= keys.size(),
          family + " every positive hits in every mode");
}

void RunSize(Harness& h, uint64_t n) {
  std::printf("n = %llu keys (%s)\n", static_cast<unsigned long long>(n),
              n >= (uint64_t{1} << 23) ? "out-of-LLC" : "in-cache");
  const auto keys = GenerateDistinctKeys(n, 91);
  const auto negatives = GenerateNegativeKeys(keys, n, 92);
  const auto queries = MixedQueries(keys, negatives);

  RunPrimitives(h, keys);
  RunShardedFamily(h, "sharded-blbloom",
                   [](uint64_t cap) -> std::unique_ptr<Filter> {
                     return std::make_unique<BlockedBloomFilter>(cap, 10.0);
                   },
                   n, keys, queries);
  RunShardedFamily(h, "sharded-cuckoo",
                   [](uint64_t cap) -> std::unique_ptr<Filter> {
                     return std::make_unique<CuckooFilter>(cap, 12);
                   },
                   n, keys, queries);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("hash", /*reps=*/5, argc, argv);
  RunSize(h, uint64_t{1} << 20);
  if (!h.quick()) RunSize(h, uint64_t{1} << 23);
  return h.Finish();
}
