// Experiment E22 (DESIGN.md §4, §11): instrumentation overhead. The
// observability budget is <= 5% on the batched lookup hot path — the
// path real deployments sit on — so this bench runs the bench_batch
// workload per family on the bare filter and wrapped in
// obs::InstrumentedFilter, and reports the throughput delta.
//
// Raw and instrumented runs alternate in pairs, and each pair yields one
// overhead; the rows report the median and p10/p90 of those per-pair
// overheads. The 5% gate reads that median on the blocked-bloom lookup
// row at 16M keys: one-shot numbers swing by tens of percent on a shared
// host, and pairing cancels the drift the two runs of a pair share.
//
// Usage: bench_obs [--quick] [--json=PATH]
//   --quick      only the in-cache size (1M keys); default also runs the
//                out-of-LLC size (16M keys) that the 5% gate is judged on.
//   --json=PATH  write machine-readable results (BENCH_obs.json).

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "harness.h"
#include "obs/instrumented.h"
#include "quotient/quotient_filter.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

constexpr uint64_t kGateKeys = uint64_t{1} << 24;
constexpr double kBudgetPct = 5.0;

uint64_t BatchedLookup(const Filter& f, const std::vector<uint64_t>& queries,
                       uint8_t* out) {
  f.ContainsMany(queries, out);
  uint64_t hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) hits += out[i];
  return hits;
}

/// Per-pair samples of one op: raw Mops, instrumented Mops, overhead %.
struct Pairs {
  std::vector<double> raw, inst, overhead;

  void Add(double raw_mops, double inst_mops) {
    raw.push_back(raw_mops);
    inst.push_back(inst_mops);
    overhead.push_back((raw_mops - inst_mops) / raw_mops * 100.0);
  }
};

Spread Record(Harness& h, const std::string& filter, uint64_t n,
              const char* op, const Pairs& p) {
  const Spread raw = SpreadOf(p.raw);
  const Spread inst = SpreadOf(p.inst);
  const Spread overhead = SpreadOf(p.overhead);
  h.AddRow()
      .Text("filter", filter)
      .Int("n", n)
      .Text("op", op)
      .Cell("raw_mops", raw)
      .Cell("instrumented_mops", inst)
      .Cell("overhead_pct", overhead);
  std::printf("  %-14s n=%-9llu %-7s raw %8.2f  inst %8.2f Mops   overhead "
              "%+6.2f%% [%+.2f, %+.2f]\n",
              filter.c_str(), static_cast<unsigned long long>(n), op,
              raw.median, inst.median, overhead.median, overhead.p10,
              overhead.p90);
  return overhead;
}

void RunFamily(Harness& h, const std::string& name,
               const std::function<std::unique_ptr<Filter>()>& make,
               double epsilon, uint64_t n, const std::vector<uint64_t>& keys,
               const std::vector<uint64_t>& queries) {
  const std::function<std::unique_ptr<Filter>()> makers[2] = {
      make, [&make, epsilon]() -> std::unique_ptr<Filter> {
        return std::make_unique<obs::InstrumentedFilter>(make(), epsilon);
      }};
  std::vector<uint8_t> out(queries.size());
  Pairs inserts, lookups;
  uint64_t hits[2] = {0, 0};
  for (int pair = 0; pair < h.reps(); ++pair) {
    // Which side runs first alternates, so neither always gets the
    // warmer cache or the quieter moment.
    double insert_mops[2], lookup_mops[2];
    for (int i = 0; i < 2; ++i) {
      const int side = (pair + i) % 2;  // 0 raw, 1 instrumented.
      std::unique_ptr<Filter> f = makers[side]();
      insert_mops[side] =
          Mops(keys.size(), Seconds([&] { f->InsertMany(keys); }));
      lookup_mops[side] = Mops(queries.size(), Seconds([&] {
        hits[side] = BatchedLookup(*f, queries, out.data());
      }));
    }
    inserts.Add(insert_mops[0], insert_mops[1]);
    lookups.Add(lookup_mops[0], lookup_mops[1]);
  }
  // The decorator forwards every probe verbatim; a hit-count mismatch
  // means the instrumentation changed filter behaviour, not just speed.
  h.Check(hits[0] == hits[1],
          name + " n=" + std::to_string(n) + " raw/instrumented hits equal");
  Record(h, name, n, "insert", inserts);
  const Spread overhead = Record(h, name, n, "lookup", lookups);
  if (name == "blocked-bloom" && n == kGateKeys) {
    h.Gate("blocked-bloom n=16M lookup overhead % (median of pairs)",
           overhead.median, Cmp::kAtMost, kBudgetPct);
  }
}

void RunSize(Harness& h, uint64_t n) {
  std::printf("n = %llu keys (%s)\n", static_cast<unsigned long long>(n),
              n >= kGateKeys ? "out-of-LLC" : "in-cache");
  const auto keys = GenerateDistinctKeys(n, 77);
  const auto queries = MixedQueries(keys, GenerateNegativeKeys(keys, n, 78));

  RunFamily(h, "blocked-bloom",
            [n] { return std::make_unique<BlockedBloomFilter>(n, 10.0); },
            /*epsilon=*/0.01, n, keys, queries);
  RunFamily(h, "cuckoo",
            [n] { return std::make_unique<CuckooFilter>(n, 12); },
            /*epsilon=*/0.002, n, keys, queries);
  RunFamily(h, "quotient",
            [n] {
              return std::make_unique<QuotientFilter>(
                  QuotientFilter::ForCapacity(n, 0.01));
            },
            /*epsilon=*/0.01, n, keys, queries);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("obs", /*reps=*/7, argc, argv);
  RunSize(h, uint64_t{1} << 20);
  if (!h.quick()) RunSize(h, kGateKeys);
  return h.Finish();
}
