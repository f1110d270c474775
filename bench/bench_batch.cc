// Experiments E3 and E18 (DESIGN.md §4): throughput across the filter
// hierarchy, one key at a time and in batches.
//
// E3 paper claim (§1.1): "systems developers still use Bloom filters in
// traditional ways leaving performance on the table" — fingerprint
// filters answer a lookup with one or two cache probes where a Bloom
// filter takes k dependent ones, and the static filters (§2.7) buy their
// space with a bulk build, ribbon also with slower queries. xor and
// ribbon get build and scalar-lookup rows only: neither has a batched
// probe. E10 (§2.7): ribbon's queries "remain slower than the fast
// competing filters", gated per size as ribbon's scalar lookup rate over
// xor's; "reasonably fast to build" names no bound, so the build rows
// stay ungated.
//
// E18 paper claim (§1.1): filter probes are cache-miss-bound, and real
// deployments (LSM compaction, join pre-filters, k-mer lookup) query keys
// in batches — hashing a batch up front, prefetching every target cache
// line, then probing hides DRAM latency that the traditional
// one-key-at-a-time loop eats per query.
//
// The wire_large row (E18, ROADMAP item 7) runs perfbench's wire_large
// filter in process: 1,024-key frames over 16 quotient shards against
// scalar lookups, gated so the batched row's spread clears the scalar
// row's. Each rep of both rows is the median of 3 passes over the query
// stream, so one preempted pass cannot set a rep.
//
// The quotient load rows (E31) time scalar lookups on one quotient
// filter at load 0.5 and 0.9, gated so the load-0.9 probe costs at most
// 3.5x the load-0.5 one: the run lookup counts words, it does not walk
// the cluster.
//
// Usage: bench_batch [--quick] [--json=PATH]
//   --quick      only the in-cache size (1M keys), the wire_large row and
//                the quotient load rows; default also runs the out-of-LLC
//                size (16M keys).
//   --json=PATH  write machine-readable results (BENCH_batch.json).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "harness.h"
#include "quotient/quotient_filter.h"
#include "simd/dispatch.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

constexpr uint64_t kOutOfLlc = uint64_t{1} << 24;

/// Adds one row; `speedup` is the row's median over `scalar_mops`, the
/// scalar row of the same (filter, n, op).
void Record(Harness& h, const std::string& filter, uint64_t n,
            const std::string& op, const std::string& mode, const Spread& mops,
            double scalar_mops) {
  const double speedup = scalar_mops > 0 ? mops.median / scalar_mops : 0.0;
  h.AddRow()
      .Text("filter", filter)
      .Int("n", n)
      .Text("op", op)
      .Text("mode", mode)
      .Cell("mops", mops)
      .Num("speedup", speedup);
  std::printf("  %-14s n=%-9llu %-7s %-8s %9.2f Mops [%.2f, %.2f]  %5.2fx\n",
              filter.c_str(), static_cast<unsigned long long>(n), op.c_str(),
              mode.c_str(), mops.median, mops.p10, mops.p90, speedup);
}

uint64_t ScalarLookup(const Filter& f, const std::vector<uint64_t>& queries) {
  uint64_t hits = 0;
  for (uint64_t k : queries) hits += f.Contains(k);
  return hits;
}

/// Calls ContainsMany over consecutive sub-batches of `batch` keys — the
/// two-pass pipelined pattern a caller with a bounded reorder window uses.
uint64_t BatchedLookup(const Filter& f, const std::vector<uint64_t>& queries,
                       size_t batch, uint8_t* out) {
  for (size_t base = 0; base < queries.size(); base += batch) {
    const size_t n = std::min(batch, queries.size() - base);
    f.ContainsMany({queries.data() + base, n}, out + base);
  }
  uint64_t hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) hits += out[i];
  return hits;
}

void RunFamily(Harness& h, const std::string& name,
               const std::function<std::unique_ptr<Filter>()>& make,
               uint64_t n, const std::vector<uint64_t>& keys,
               const std::vector<uint64_t>& queries) {
  // Insert: scalar loop vs one InsertMany over the whole key set, each
  // rep on a fresh filter.
  std::unique_ptr<Filter> f;
  const Spread ins_scalar = h.Rate(
      keys.size(), [&] { f = make(); },
      [&] { for (uint64_t k : keys) f->Insert(k); });
  Record(h, name, n, "insert", "scalar", ins_scalar, ins_scalar.median);
  {
    std::unique_ptr<Filter> batch_f;
    Record(h, name, n, "insert", "batch",
           h.Rate(keys.size(), [&] { batch_f = make(); },
                  [&] { batch_f->InsertMany(keys); }),
           ins_scalar.median);
  }

  // Lookups run on the scalar-built filter (identical state either way
  // for the Bloom variants; for fingerprint filters the batch-built one
  // differs only in kick order).
  uint64_t hits_scalar = 0;
  const Spread scalar =
      h.Rate(queries.size(), [&] { hits_scalar = ScalarLookup(*f, queries); });
  Record(h, name, n, "lookup", "scalar", scalar, scalar.median);

  // The full batch, then the pipeline-depth sweep: how big must the
  // caller's batch be?
  std::vector<uint8_t> out(queries.size());
  for (size_t b : {queries.size(), size_t{8}, size_t{32}, size_t{128}}) {
    const std::string mode =
        b == queries.size() ? "batch" : "batch" + std::to_string(b);
    uint64_t hits = 0;
    const Spread batched = h.Rate(
        queries.size(),
        [&] { hits = BatchedLookup(*f, queries, b, out.data()); });
    Record(h, name, n, "lookup", mode, batched, scalar.median);
    h.Check(hits == hits_scalar, name + " n=" + std::to_string(n) + " " +
                                     mode + " hits equal scalar hits");
    // The batch path exists to be faster: a full-batch lookup slower
    // than the scalar loop is a regression, not a tradeoff. 3% grace
    // absorbs timer noise on a shared machine; the historical cuckoo
    // 0.959x sits right at the line. The sweep rows are not gated: they
    // show how a caller's batch size amortizes each call's fixed cost
    // (the uint64_t wrapper's hashing tile, the virtual dispatch, the
    // family's batch set-up), a tradeoff with no bound to hold it to.
    if (b == queries.size()) {
      h.Gate(name + " n=" + std::to_string(n) + " batch/scalar lookup",
             batched.median / scalar.median, Cmp::kAtLeast, 0.97);
    }
  }
}

/// Static families: the bulk build, then scalar lookups, whose spread it
/// returns.
Spread RunStatic(Harness& h, const std::string& name,
                 const std::function<std::unique_ptr<Filter>()>& build,
                 uint64_t n, const std::vector<uint64_t>& keys,
                 const std::vector<uint64_t>& queries) {
  std::unique_ptr<Filter> f;
  const Spread built =
      h.Rate(keys.size(), [&] { f.reset(); }, [&] { f = build(); });
  Record(h, name, n, "build", "static", built, built.median);
  uint64_t hits = 0;
  const Spread scalar =
      h.Rate(queries.size(), [&] { hits = ScalarLookup(*f, queries); });
  Record(h, name, n, "lookup", "scalar", scalar, scalar.median);
  h.Check(hits >= keys.size(), name + " n=" + std::to_string(n) +
                                   " hits at least every key");
  return scalar;
}

void RunSize(Harness& h, uint64_t n) {
  std::printf("n = %llu keys (%s)\n", static_cast<unsigned long long>(n),
              n >= kOutOfLlc ? "out-of-LLC" : "in-cache");
  const auto keys = GenerateDistinctKeys(n, 77);
  const auto negatives = GenerateNegativeKeys(keys, n, 78);
  const auto queries = MixedQueries(keys, negatives);

  RunFamily(h, "bloom", [n] { return std::make_unique<BloomFilter>(n, 10.0); },
            n, keys, queries);
  RunFamily(h, "blocked-bloom",
            [n] { return std::make_unique<BlockedBloomFilter>(n, 10.0); }, n,
            keys, queries);
  RunFamily(h, "cuckoo", [n] { return std::make_unique<CuckooFilter>(n, 12); },
            n, keys, queries);
  RunFamily(h, "quotient",
            [n] {
              return std::make_unique<QuotientFilter>(
                  QuotientFilter::ForCapacity(n, 0.01));
            },
            n, keys, queries);
  RunFamily(h, "sharded",
            [n] {
              return std::make_unique<ShardedFilter>(
                  n, 16, [](uint64_t cap) -> std::unique_ptr<Filter> {
                    return std::make_unique<BlockedBloomFilter>(cap, 10.0);
                  });
            },
            n, keys, queries);
  const Spread xor_lookup = RunStatic(
      h, "xor", [&] { return std::make_unique<XorFilter>(keys, 12); }, n,
      keys, queries);
  const Spread ribbon_lookup = RunStatic(
      h, "ribbon", [&] { return std::make_unique<RibbonFilter>(keys, 12); },
      n, keys, queries);
  h.Gate("ribbon/xor n=" + std::to_string(n) + " scalar lookup",
         ribbon_lookup.median / xor_lookup.median, Cmp::kBelow, 1.0);
  std::printf("\n");
}

/// The spread over reps of `fn`'s rate, each rep the median of
/// kWirePasses timed passes.
constexpr int kWirePasses = 3;
template <typename Fn>
Spread MedianOfPasses(Harness& h, uint64_t ops, Fn&& fn) {
  std::vector<double> reps;
  for (int rep = 0; rep < h.reps(); ++rep) {
    std::vector<double> passes;
    for (int p = 0; p < kWirePasses; ++p) {
      passes.push_back(Mops(ops, Seconds(fn)));
    }
    reps.push_back(SpreadOf(std::move(passes)).median);
  }
  return SpreadOf(std::move(reps));
}

/// wire_large's shape in process (perfbench/wire.cc): 16 quotient shards
/// sized for 4M keys with 2M inserted (640 KiB each), probed one key at a
/// time and in the server's 1,024-key frames. Gated as ROADMAP item 7
/// asks: the batched row's p10 at least the scalar row's p90.
void RunWireShape(Harness& h) {
  constexpr uint64_t kCapacity = uint64_t{4} << 20;
  constexpr uint64_t kKeys = uint64_t{2} << 20;
  constexpr size_t kFrame = 1024;
  const std::string name = "sharded-quotient";
  std::printf("wire_large shape: %s, %llu keys in 16 shards\n", name.c_str(),
              static_cast<unsigned long long>(kKeys));
  ShardedFilter f(kCapacity, 16, [](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<QuotientFilter>(
        QuotientFilter::ForCapacity(cap, 0.01));
  });
  const auto keys = GenerateDistinctKeys(kKeys, 79);
  h.Check(f.InsertMany(keys) == kKeys, name + " stored every key");
  const auto queries =
      MixedQueries(keys, GenerateNegativeKeys(keys, kKeys, 80));

  uint64_t hits_scalar = 0;
  const Spread scalar = MedianOfPasses(
      h, queries.size(), [&] { hits_scalar = ScalarLookup(f, queries); });
  Record(h, name, kKeys, "lookup", "scalar", scalar, scalar.median);
  std::vector<uint8_t> out(queries.size());
  uint64_t hits = 0;
  const Spread batched = MedianOfPasses(h, queries.size(), [&] {
    hits = BatchedLookup(f, queries, kFrame, out.data());
  });
  const std::string mode = "batch" + std::to_string(kFrame);
  Record(h, name, kKeys, "lookup", mode, batched, scalar.median);
  h.Check(hits == hits_scalar, name + " " + mode + " hits equal scalar hits");
  h.Gate(name + " n=" + std::to_string(kKeys) + " " + mode +
             " p10 / scalar p90 lookup",
         batched.p10 / scalar.p90, Cmp::kAtLeast, 1.0);
  std::printf("\n");
}

/// Scalar lookups on one QuotientFilter(19, 7) filled to load 0.5 and to
/// load 0.9 (the LSM point filters' range), half of the queries positive.
/// Clusters at 0.9 are about ten times longer: a run lookup that walks
/// them bit by bit read 12-16x the load-0.5 cost per key on a 4-core
/// Xeon VM, one that counts words 2.2-2.5x (E31). Gated at 3.5x.
void RunQuotientLoads(Harness& h) {
  std::printf("quotient q=19 r=7: scalar lookups by load\n");
  double ns_per_key[2] = {0, 0};
  int i = 0;
  for (const auto& [load, label] : {std::pair{0.5, "0.5"}, {0.9, "0.9"}}) {
    QuotientFilter f(19, 7);
    const uint64_t n = static_cast<uint64_t>(load * f.table().num_slots());
    const auto keys = GenerateDistinctKeys(n, 81);
    const std::string name = std::string("quotient-load") + label;
    h.Check(f.InsertMany(keys) == n, name + " stored every key");
    const auto queries =
        MixedQueries(keys, GenerateNegativeKeys(keys, n, 82));
    uint64_t hits = 0;
    const Spread scalar =
        h.Rate(queries.size(), [&] { hits = ScalarLookup(f, queries); });
    Record(h, name, n, "lookup", "scalar", scalar, scalar.median);
    h.Check(hits >= n, name + " hits at least every key");
    ns_per_key[i++] = 1e3 / scalar.median;
  }
  h.Gate("quotient q=19 load 0.9 / load 0.5 scalar lookup ns per key",
         ns_per_key[1] / ns_per_key[0], Cmp::kAtMost, 3.5);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("batch", /*reps=*/5, argc, argv);
  std::printf("active kernel: %.*s\n\n",
              static_cast<int>(simd::ActiveIsaName().size()),
              simd::ActiveIsaName().data());
  RunSize(h, uint64_t{1} << 20);
  RunWireShape(h);
  RunQuotientLoads(h);
  if (!h.quick()) RunSize(h, kOutOfLlc);
  return h.Finish();
}
