// Experiment E2 (DESIGN.md §4): false-positive-rate validation.
//
// Paper claim (§1): a membership query returns absent with probability
// >= 1 - eps for any non-member. We sweep the FPR target across every
// point-filter family and check measured vs configured, plus the
// load-factor dependence of the fingerprint filters.

#include <cstdio>

#include "harness.h"
#include "bloom/bloom_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "quotient/quotient_filter.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

int main() {
  std::printf("== E2: measured FPR vs configured target ==\n\n");
  const uint64_t n = 1000000;
  const auto keys = GenerateDistinctKeys(n);
  const auto negatives = GenerateNegativeKeys(keys, 1000000);

  std::printf("%-10s", "target");
  for (const char* name : {"bloom", "quotient", "cuckoo", "xor", "ribbon"}) {
    std::printf(" %12s", name);
  }
  std::printf("\n");
  for (double target : {0.1, 0.01, 0.001, 0.0001}) {
    std::printf("%-10g", target);
    {
      BloomFilter f = BloomFilter::ForFpr(n, target);
      for (uint64_t k : keys) f.Insert(k);
      std::printf(" %12.5f", MeasureFpr(f, negatives));
    }
    {
      QuotientFilter f = QuotientFilter::ForCapacity(n, target);
      for (uint64_t k : keys) f.Insert(k);
      std::printf(" %12.5f", MeasureFpr(f, negatives));
    }
    {
      CuckooFilter f = CuckooFilter::ForFpr(n, target);
      for (uint64_t k : keys) f.Insert(k);
      std::printf(" %12.5f", MeasureFpr(f, negatives));
    }
    {
      XorFilter f = XorFilter::ForFpr(keys, target);
      std::printf(" %12.5f", MeasureFpr(f, negatives));
    }
    {
      RibbonFilter f = RibbonFilter::ForFpr(keys, target);
      std::printf(" %12.5f", MeasureFpr(f, negatives));
    }
    std::printf("\n");
  }

  // FPR of a quotient filter grows linearly with its load factor.
  std::printf("\nquotient-filter FPR vs load (r = 10 bits):\n");
  std::printf("  %-8s %12s\n", "load", "measured");
  QuotientFilter qf(21, 10);
  const auto load_keys = GenerateDistinctKeys(1u << 21, 91);
  size_t next = 0;
  for (double load : {0.2, 0.4, 0.6, 0.8, 0.9}) {
    const auto target_keys =
        static_cast<size_t>(load * (uint64_t{1} << 21));
    while (next < target_keys && next < load_keys.size()) {
      qf.Insert(load_keys[next++]);
    }
    std::printf("  %-8.2f %12.6f\n", qf.LoadFactor(),
                MeasureFpr(qf, negatives));
  }
  std::printf("\nexpected shape: measured tracks target within ~2x for all\n"
              "families; QF FPR scales ~linearly with load * 2^-r.\n");
  return 0;
}
