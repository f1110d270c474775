// Experiment E8 (DESIGN.md §4): maplets (§2.4).
//
// Paper claims: fingerprint maplets (quotient/cuckoo) have PRS = 1 + eps
// and NRS = eps, support dynamic updates, and can expand; the Bloomier
// filter has PRS = NRS = 1 but is static. We measure result sizes, space,
// and exercise value updates.

#include <cstdio>
#include <utility>
#include <vector>

#include "cuckoo/cuckoo_maplet.h"
#include "maplet/maplet.h"
#include "quotient/quotient_maplet.h"
#include "staticf/bloomier_filter.h"
#include "util/random.h"
#include "workload/generators.h"

using namespace bbf;

int main() {
  std::printf("== E8: maplets — result sizes and space ==\n\n");
  // n chosen so power-of-two maplet tables sit near full load.
  const uint64_t n = 900000;
  const int value_bits = 8;
  const auto keys = GenerateDistinctKeys(n);
  const auto absent = GenerateNegativeKeys(keys, 200000);
  SplitMix64 rng(12);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  entries.reserve(n);
  for (uint64_t k : keys) entries.emplace_back(k, rng.NextBelow(256));

  std::printf("%-18s %10s %10s %12s %10s\n", "maplet", "PRS", "NRS",
              "bits/key", "dynamic");

  {
    QuotientMaplet m = QuotientMaplet::ForCapacity(n, 1.0 / 256, value_bits);
    for (const auto& [k, v] : entries) m.Insert(k, v);
    const ResultSizes s = MeasureResultSizes(m, keys, absent);
    std::printf("%-18s %10.4f %10.4f %12.2f %10s\n", "quotient", s.prs,
                s.nrs, static_cast<double>(m.SpaceBits()) / n, "yes");
  }
  {
    CuckooMaplet m(n, 8, value_bits);
    for (const auto& [k, v] : entries) m.Insert(k, v);
    const ResultSizes s = MeasureResultSizes(m, keys, absent);
    std::printf("%-18s %10.4f %10.4f %12.2f %10s\n", "cuckoo", s.prs, s.nrs,
                static_cast<double>(m.SpaceBits()) / n, "yes");
  }
  {
    BloomierFilter m(entries, value_bits);
    const ResultSizes s = MeasureResultSizes(m, keys, absent);
    std::printf("%-18s %10.4f %10.4f %12.2f %10s\n", "bloomier", s.prs,
                s.nrs, static_cast<double>(m.SpaceBits()) / n,
                "values only");
  }

  // Dynamic churn: the quotient maplet absorbs deletes + reinserts.
  {
    QuotientMaplet m = QuotientMaplet::ForCapacity(n, 1.0 / 256, value_bits);
    for (const auto& [k, v] : entries) m.Insert(k, v);
    uint64_t ok = 0;
    for (size_t i = 0; i < 100000; ++i) {
      ok += m.Erase(entries[i].first, entries[i].second);
      ok += m.Insert(entries[i].first, (entries[i].second + 1) & 0xFF);
    }
    std::printf("\nquotient maplet churn: %llu/200000 update ops succeeded\n",
                static_cast<unsigned long long>(ok));
  }

  std::printf("\nexpected shape (paper §2.4): PRS ~ 1.004 and NRS ~ 0.004 at\n"
              "eps = 2^-8 for the fingerprint maplets; bloomier pins both at\n"
              "exactly 1 and refuses new keys.\n");
  return 0;
}
