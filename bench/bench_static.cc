// Experiment E10 (DESIGN.md §4): static filters (§2.7).
//
// Paper claims: static filters approach n lg(1/eps) bits, are "reasonably
// fast to build and very fast to query", and the ribbon's query times
// "remain slower than the fast competing filters". We report build time,
// query time, and space for Bloom/XOR/Ribbon at 1M and 10M keys.

#include <cstdio>

#include "harness.h"
#include "bloom/bloom_filter.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

template <typename F>
double QueryMops(const F& f, const std::vector<uint64_t>& queries) {
  uint64_t sink = 0;
  const double secs = Seconds([&] {
    for (uint64_t q : queries) sink += f.Contains(q);
  });
  // Keep the compiler honest.
  if (sink == 0xDEADBEEF) std::printf("!");
  return Mops(queries.size(), secs);
}

void RunSize(uint64_t n) {
  const auto keys = GenerateDistinctKeys(n);
  const auto negatives = GenerateNegativeKeys(keys, 1000000);
  std::printf("n = %llu (fingerprints sized for eps ~ 2^-10)\n",
              static_cast<unsigned long long>(n));
  std::printf("  %-10s %12s %12s %12s %12s\n", "filter", "build s",
              "query Mops", "bits/key", "fpr");

  {
    BloomFilter f(n, 14.4);
    const double build = Seconds([&] {
      for (uint64_t k : keys) f.Insert(k);
    });
    std::printf("  %-10s %12.3f %12.1f %12.2f %12.6f\n", "bloom", build,
                QueryMops(f, negatives), f.BitsPerKey(),
                MeasureFpr(f, negatives));
  }
  {
    const XorFilter f(keys, 10);
    const double build = Seconds([&] { XorFilter rebuilt(keys, 10); });
    std::printf("  %-10s %12.3f %12.1f %12.2f %12.6f\n", "xor", build,
                QueryMops(f, negatives), f.BitsPerKey(),
                MeasureFpr(f, negatives));
  }
  {
    const RibbonFilter f(keys, 10);
    const double build = Seconds([&] { RibbonFilter rebuilt(keys, 10); });
    std::printf("  %-10s %12.3f %12.1f %12.2f %12.6f\n", "ribbon", build,
                QueryMops(f, negatives), f.BitsPerKey(),
                MeasureFpr(f, negatives));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== E10: static filters — build/query/space ==\n\n");
  RunSize(1000000);
  RunSize(10000000);
  std::printf(
      "expected shape (paper §2.7): ribbon has the least space (closest to\n"
      "n lg 1/eps) but the slowest queries; xor in between; bloom pays the\n"
      "1.44x space factor with competitive queries.\n");
  return 0;
}
