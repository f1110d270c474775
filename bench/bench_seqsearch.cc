// Experiment E15 (DESIGN.md §4): large-scale sequence search (§3.2).
//
// Paper claim: "Mantis proved to be smaller, faster, and exact compared
// to the SBT which is an approximate index." sequence_index_test asserts
// the deterministic parts: Mantis answers exactly, and it is smaller than
// every SBT budget that does. This binary times the query side over one
// synthetic collection. The reference answers come from an untimed exact
// scan and serve as the answer check: Mantis must match them, and no SBT
// may miss a true hit. Only `Query` is timed, every index once per rep,
// so a swing in host load hits all of them alike. The gate: Mantis's
// median time per query is at most the SBT's at 8 bits/k-mer. The 2 and 4
// bits/k-mer rows are reported ungated: at 2 the SBT answers wrongly, and
// at 4 its spread overlaps Mantis's, so a gate would read host noise.
//
// Usage: bench_seqsearch [--quick] [--json=PATH]
//   --quick      50 of the 200 queries.
//   --json=PATH  machine-readable results (BENCH_seqsearch.json).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/bio/sequence_index.h"
#include "harness.h"
#include "util/random.h"

using namespace bbf::bio;
using namespace bbf::bench;

namespace {

using Query = std::vector<uint64_t>;

std::set<uint32_t> ExactHits(
    const std::vector<std::vector<uint64_t>>& experiments, const Query& query,
    double theta) {
  std::set<uint32_t> hits;
  for (uint32_t e = 0; e < experiments.size(); ++e) {
    uint64_t present = 0;
    for (uint64_t km : query) {
      present += std::binary_search(experiments[e].begin(),
                                    experiments[e].end(), km);
    }
    if (static_cast<double>(present) / query.size() >= theta) hits.insert(e);
  }
  return hits;
}

struct Index {
  std::string name;
  double bits_per_kmer;  // The SBT's Bloom budget; 0 for Mantis.
  size_t space_bits;
  std::function<std::vector<ExperimentHit>(const Query&)> query;
};

}  // namespace

int main(int argc, char** argv) {
  Harness h("seqsearch", /*reps=*/15, argc, argv);
  constexpr double kTheta = 0.55;
  constexpr uint32_t kExperiments = 64;
  const auto experiments = GenerateExperiments(kExperiments, 60000, 21, 77);

  // 200-k-mer queries, 60% drawn from a source experiment and 40% random
  // absent k-mers, so many experiments sit just below theta: exactly where
  // Bloom noise flips decisions.
  bbf::SplitMix64 rng(78);
  std::vector<Query> queries(h.quick() ? 50 : 200);
  for (Query& query : queries) {
    const auto& src = experiments[rng.NextBelow(kExperiments)];
    for (int i = 0; i < 120; ++i) {
      query.push_back(src[rng.NextBelow(src.size())]);
    }
    for (int i = 0; i < 80; ++i) query.push_back(rng.Next());
  }
  std::vector<std::set<uint32_t>> exact;
  for (const Query& q : queries) {
    exact.push_back(ExactHits(experiments, q, kTheta));
  }

  std::vector<std::unique_ptr<SequenceBloomTree>> sbts;
  std::vector<Index> indexes;
  for (double bits : {2.0, 4.0, 8.0}) {
    const auto& sbt = *sbts.emplace_back(
        std::make_unique<SequenceBloomTree>(experiments, bits));
    indexes.push_back({"sbt", bits, sbt.SpaceBits(), [&sbt](const Query& q) {
                         return sbt.Query(q, kTheta);
                       }});
  }
  const MantisIndex mantis(experiments);
  indexes.push_back({"mantis", 0, mantis.SpaceBits(), [&](const Query& q) {
                       return mantis.Query(q, kTheta);
                     }});

  std::vector<std::vector<double>> micros(indexes.size());
  for (int rep = 0; rep < h.reps(); ++rep) {
    for (size_t i = 0; i < indexes.size(); ++i) {
      const double secs = Seconds([&] {
        for (const Query& q : queries) indexes[i].query(q);
      });
      micros[i].push_back(1e6 * secs / queries.size());
    }
  }

  std::printf("%u experiments, %zu queries, theta %.2f\n", kExperiments,
              queries.size(), kTheta);
  std::vector<Spread> spreads;
  for (size_t i = 0; i < indexes.size(); ++i) {
    const Index& index = indexes[i];
    uint64_t extra = 0;
    uint64_t missed = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      std::set<uint32_t> got;
      for (const ExperimentHit& hit : index.query(queries[q])) {
        got.insert(hit.experiment);
      }
      for (uint32_t e : got) extra += !exact[q].contains(e);
      for (uint32_t e : exact[q]) missed += !got.contains(e);
    }
    const std::string label =
        index.name + (index.bits_per_kmer > 0
                          ? "@" + std::to_string(static_cast<int>(
                                            index.bits_per_kmer))
                          : "");
    h.Check(missed == 0, label + " finds every true hit");
    if (index.name == "mantis") h.Check(extra == 0, "mantis answers exactly");
    const Spread us = SpreadOf(micros[i]);
    spreads.push_back(us);
    h.AddRow()
        .Text("index", index.name)
        .Num("bits_per_kmer", index.bits_per_kmer)
        .Num("mib", index.space_bits / 8.0 / (1 << 20))
        .Int("extra_hits", extra)
        .Int("missed_hits", missed)
        .Cell("us_per_query", us);
    std::printf("  %-9s %6.1f MiB  %7.1f us/query [%.1f, %.1f]  extra hits "
                "%llu, missed %llu\n",
                label.c_str(), index.space_bits / 8.0 / (1 << 20), us.median,
                us.p10, us.p90, static_cast<unsigned long long>(extra),
                static_cast<unsigned long long>(missed));
  }
  // `indexes` holds the SBT at 2, 4 and 8 bits/k-mer, then Mantis.
  h.Gate("mantis/sbt@8 median query time",
         spreads[3].median / spreads[2].median, Cmp::kAtMost, 1.0);
  return h.Finish();
}
