// Experiment E5 (DESIGN.md §4): adaptivity guarantees of §2.3.
//
// Paper claim: an adaptive filter sustains FPR <= eps on ANY sequence of
// negative queries — including adversarial repeats and skewed (Zipfian)
// streams — because it fixes each false positive once. A plain filter
// pays for the same false positive on every repeat.

#include <cstdio>

#include "adaptive/adaptive_quotient_filter.h"
#include "harness.h"
#include "cuckoo/adaptive_cuckoo_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "quotient/quotient_filter.h"
#include "workload/generators.h"
#include "workload/zipf.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

struct Tally {
  uint64_t fps = 0;
  uint64_t queries = 0;
  double rate() const {
    return queries == 0 ? 0 : static_cast<double>(fps) / queries;
  }
};

template <typename F>
Tally DriveZipf(F& filter, const std::vector<uint64_t>& hot, int rounds,
                bool report) {
  ZipfGenerator zipf(hot.size(), 1.1, 5);
  Tally t;
  for (int i = 0; i < rounds; ++i) {
    const uint64_t q = hot[zipf.Next()];
    ++t.queries;
    if (filter.Contains(q)) {
      ++t.fps;
      if (report) filter.ReportFalsePositive(q);
    }
  }
  return t;
}

}  // namespace

int main() {
  std::printf("== E5: adaptive filters under skewed/adversarial negatives ==\n\n");
  const uint64_t n = 200000;
  const auto keys = GenerateDistinctKeys(n);
  const auto hot = GenerateNegativeKeys(keys, 10000);
  const int kQueries = 1000000;

  // All filters ~13 bits/key-equivalent (r/f = 10).
  QuotientFilter plain_qf(18, 10);
  AdaptiveQuotientFilter aqf(18, 10);
  CuckooFilter plain_cf(n, 10);
  AdaptiveCuckooFilter acf(n, 10);
  for (uint64_t k : keys) {
    plain_qf.Insert(k);
    aqf.Insert(k);
    plain_cf.Insert(k);
    acf.Insert(k);
  }

  std::printf("1M Zipf(1.1) queries over 10k hot negatives:\n");
  std::printf("  %-22s %14s %12s\n", "filter", "false positives",
              "sustained fpr");
  {
    ZipfGenerator zipf(hot.size(), 1.1, 5);
    Tally t;
    for (int i = 0; i < kQueries; ++i) {
      ++t.queries;
      t.fps += plain_qf.Contains(hot[zipf.Next()]);
    }
    std::printf("  %-22s %14llu %12.6f\n", "quotient (plain)",
                static_cast<unsigned long long>(t.fps), t.rate());
  }
  {
    const Tally t = DriveZipf(aqf, hot, kQueries, /*report=*/true);
    std::printf("  %-22s %14llu %12.6f   (%llu adaptations)\n",
                "adaptive quotient", static_cast<unsigned long long>(t.fps),
                t.rate(), static_cast<unsigned long long>(aqf.adaptations()));
  }
  {
    ZipfGenerator zipf(hot.size(), 1.1, 5);
    Tally t;
    for (int i = 0; i < kQueries; ++i) {
      ++t.queries;
      t.fps += plain_cf.Contains(hot[zipf.Next()]);
    }
    std::printf("  %-22s %14llu %12.6f\n", "cuckoo (plain)",
                static_cast<unsigned long long>(t.fps), t.rate());
  }
  {
    const Tally t = DriveZipf(acf, hot, kQueries, /*report=*/true);
    std::printf("  %-22s %14llu %12.6f   (%llu adaptations)\n",
                "adaptive cuckoo", static_cast<unsigned long long>(t.fps),
                t.rate(), static_cast<unsigned long long>(acf.adaptations()));
  }

  // Adversarial: query ONLY known false positives, repeatedly.
  std::printf("\nadversarial repeat of discovered false positives (x100):\n");
  std::vector<uint64_t> fps_found;
  for (uint64_t q : hot) {
    if (plain_qf.Contains(q)) fps_found.push_back(q);
  }
  uint64_t plain_hits = 0;
  uint64_t adaptive_hits = 0;
  for (int round = 0; round < 100; ++round) {
    for (uint64_t q : fps_found) {
      plain_hits += plain_qf.Contains(q);
      if (aqf.Contains(q)) {
        ++adaptive_hits;
        aqf.ReportFalsePositive(q);
      }
    }
  }
  std::printf("  plain quotient : %llu false positives (every repeat pays)\n",
              static_cast<unsigned long long>(plain_hits));
  std::printf("  adaptive       : %llu (at most one per distinct query)\n",
              static_cast<unsigned long long>(adaptive_hits));
  std::printf("\nexpected shape (paper §2.3): the adaptive rows are bounded\n"
              "by one FP per distinct negative; plain rows scale with the\n"
              "query volume.\n");
  return 0;
}
