// Experiment E4 (DESIGN.md §4): the three expansion strategies of §2.2.
//
// Paper claims: chaining keeps the FPR but the query cost grows with the
// chain; bit sacrifice keeps query cost but the FPR doubles per doubling
// and eventually saturates; Taffy/InfiniFilter keeps both in check (FPR
// grows only linearly in the number of doublings).

#include <cstdio>

#include "harness.h"
#include "bloom/scalable_bloom.h"
#include "expandable/chained_filter.h"
#include "expandable/ring_filter.h"
#include "expandable/taffy_filter.h"
#include "quotient/expanding_quotient_filter.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

int main() {
  std::printf("== E4: expansion strategies (start 2^14 keys, double x8) ==\n\n");
  const uint64_t max_keys = 1u << 22;
  const auto keys = GenerateDistinctKeys(max_keys);
  const auto negatives = GenerateNegativeKeys(keys, 200000);

  ExpandingQuotientFilter sacrifice(15, 16);
  TaffyFilter taffy(15, 16);
  ChainedQuotientFilter chained(15, 13);  // ~16 bits/key incl. metadata.
  ScalableBloomFilter scalable(1u << 14, 1.0 / 4096);
  RingFilter ring(16, 1u << 15);

  std::printf("%-10s | %-22s | %-22s | %-26s | %-22s | %-20s\n", "keys",
              "bit-sacrifice fpr", "taffy fpr(exp)",
              "chained-qf fpr(links)", "scalable-bloom fpr(links)",
              "ring fpr(segments)");
  size_t idx = 0;
  for (uint64_t target = 1u << 14; target <= max_keys; target <<= 1) {
    while (idx < target) {
      const uint64_t k = keys[idx++];
      sacrifice.Insert(k);
      taffy.Insert(k);
      chained.Insert(k);
      scalable.Insert(k);
      ring.Insert(k);
    }
    std::printf("%-10llu | %20.6f   | %12.6f (%2d)     | %14.6f (%2zu links) | "
                "%12.6f (%2zu) | %12.6f (%3zu)\n",
                static_cast<unsigned long long>(target),
                MeasureFpr(sacrifice, negatives), MeasureFpr(taffy, negatives),
                taffy.expansions(), MeasureFpr(chained, negatives),
                chained.chain_length(), MeasureFpr(scalable, negatives),
                scalable.chain_length(), MeasureFpr(ring, negatives),
                ring.num_segments());
  }

  std::printf("\nspace at the end (bits/key): sacrifice %.2f, taffy %.2f, "
              "chained-qf %.2f, scalable-bloom %.2f, ring %.2f\n",
              sacrifice.BitsPerKey(), taffy.BitsPerKey(),
              chained.BitsPerKey(), scalable.BitsPerKey(),
              ring.BitsPerKey());
  std::printf(
      "\nexpected shape (paper §2.2): sacrifice FPR ~doubles per row and is\n"
      "orders of magnitude above taffy by the end; taffy grows ~linearly in\n"
      "expansions; chains hold FPR but pay one probe per link per query;\n"
      "the hash ring keeps full fingerprints but every op pays an ordered\n"
      "ring search (the logarithmic cost the paper notes).\n");
  return 0;
}
