// Tests for the experiment-discovery indexes of §3.2: Sequence Bloom Tree
// (approximate) vs Mantis (exact, CQF-maplet-based inverted index).

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bio/sequence_index.h"
#include "util/random.h"

namespace bbf::bio {
namespace {

// Exact reference answer for the experiment-discovery problem.
std::set<uint32_t> ExactHits(
    const std::vector<std::vector<uint64_t>>& experiments,
    const std::vector<uint64_t>& query, double theta) {
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

std::vector<uint64_t> QueryFromExperiment(
    const std::vector<uint64_t>& experiment, size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<uint64_t> query;
  for (size_t i = 0; i < n; ++i) {
    query.push_back(experiment[rng.NextBelow(experiment.size())]);
  }
  return query;
}

class SequenceIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    experiments_ = GenerateExperiments(24, 40000, 21, 55);
  }
  std::vector<std::vector<uint64_t>> experiments_;
};

TEST_F(SequenceIndexTest, MantisIsExact) {
  MantisIndex mantis(experiments_);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto query = QueryFromExperiment(
        experiments_[seed % experiments_.size()], 200, seed + 1);
    const auto exact = ExactHits(experiments_, query, 0.8);
    const auto got = mantis.Query(query, 0.8);
    std::set<uint32_t> got_set;
    for (const auto& h : got) got_set.insert(h.experiment);
    EXPECT_EQ(got_set, exact) << "seed " << seed;
  }
}

TEST_F(SequenceIndexTest, MantisPerKmerColorsAreExact) {
  MantisIndex mantis(experiments_);
  SplitMix64 rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t e =
        static_cast<uint32_t>(rng.NextBelow(experiments_.size()));
    const uint64_t km =
        experiments_[e][rng.NextBelow(experiments_[e].size())];
    const auto exps = mantis.ExperimentsOf(km);
    // The source experiment must be reported.
    EXPECT_NE(std::find(exps.begin(), exps.end(), e), exps.end());
    // And every reported experiment must truly contain the k-mer.
    for (uint32_t r : exps) {
      EXPECT_TRUE(std::binary_search(experiments_[r].begin(),
                                     experiments_[r].end(), km));
    }
  }
}

TEST_F(SequenceIndexTest, SbtNeverMissesTrueHits) {
  SequenceBloomTree sbt(experiments_, 10.0);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto query = QueryFromExperiment(
        experiments_[seed % experiments_.size()], 200, seed + 21);
    const auto exact = ExactHits(experiments_, query, 0.8);
    const auto got = sbt.Query(query, 0.8);
    std::set<uint32_t> got_set;
    for (const auto& h : got) got_set.insert(h.experiment);
    for (uint32_t e : exact) {
      EXPECT_TRUE(got_set.contains(e))
          << "SBT missed a true hit (Bloom filters cannot cause misses)";
    }
  }
}

TEST_F(SequenceIndexTest, SbtIsApproximateMantisIsNot) {
  // With skimpy Bloom budgets the SBT over-reports; Mantis never does.
  SequenceBloomTree sbt(experiments_, 3.0);
  MantisIndex mantis(experiments_);
  uint64_t sbt_extra = 0;
  uint64_t mantis_extra = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto query = QueryFromExperiment(
        experiments_[seed % experiments_.size()], 100, seed + 41);
    const auto exact = ExactHits(experiments_, query, 0.7);
    for (const auto& h : sbt.Query(query, 0.7)) {
      sbt_extra += !exact.contains(h.experiment);
    }
    for (const auto& h : mantis.Query(query, 0.7)) {
      mantis_extra += !exact.contains(h.experiment);
    }
  }
  EXPECT_EQ(mantis_extra, 0u);
  EXPECT_GT(sbt_extra, 0u);
}

TEST_F(SequenceIndexTest, MantisSmallerThanEveryExactSbtBudget) {
  // §3.2: "Mantis proved to be smaller ... and exact compared to the SBT".
  // An SBT budget below the exactness threshold may be smaller than Mantis
  // but answers wrongly; every budget that answers exactly must be larger.
  // Queries of 60% k-mers from one experiment and 40% absent ones put many
  // experiments just under theta, where Bloom noise flips answers.
  SplitMix64 rng(78);
  std::vector<std::vector<uint64_t>> queries(50);
  std::vector<std::set<uint32_t>> exact;
  for (auto& query : queries) {
    query = QueryFromExperiment(
        experiments_[rng.NextBelow(experiments_.size())], 120, rng.Next());
    for (int i = 0; i < 80; ++i) query.push_back(rng.Next());
    exact.push_back(ExactHits(experiments_, query, 0.55));
  }
  const MantisIndex mantis(experiments_);
  int exact_budgets = 0;
  for (const double bits : {2.0, 3.0, 4.0, 8.0}) {
    const SequenceBloomTree sbt(experiments_, bits);
    uint64_t extra = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      for (const auto& h : sbt.Query(queries[q], 0.55)) {
        extra += !exact[q].contains(h.experiment);
      }
    }
    if (extra > 0) continue;
    ++exact_budgets;
    EXPECT_LT(mantis.SpaceBits(), sbt.SpaceBits()) << bits << " bits/k-mer";
  }
  EXPECT_GT(exact_budgets, 0);
  EXPECT_LT(exact_budgets, 4);  // The sweep straddles the threshold.
}

TEST_F(SequenceIndexTest, ColorClassesAreDeduplicated) {
  MantisIndex mantis(experiments_);
  // Shared-genome experiments co-occur: far fewer classes than k-mers.
  uint64_t total_kmers = 0;
  for (const auto& e : experiments_) total_kmers += e.size();
  EXPECT_LT(mantis.num_color_classes(), total_kmers / 10);
  EXPECT_GE(mantis.num_color_classes(), 1u);
}

TEST(SequenceIndexEdge, EmptyQueryAndSingleExperiment) {
  const auto experiments = GenerateExperiments(1, 5000, 21, 66);
  MantisIndex mantis(experiments);
  SequenceBloomTree sbt(experiments, 10.0);
  EXPECT_TRUE(mantis.Query({}, 0.5).empty());
  EXPECT_TRUE(sbt.Query({}, 0.5).empty());
  const auto query = std::vector<uint64_t>(experiments[0].begin(),
                                           experiments[0].begin() + 50);
  EXPECT_EQ(mantis.Query(query, 1.0).size(), 1u);
  EXPECT_EQ(sbt.Query(query, 1.0).size(), 1u);
}

}  // namespace
}  // namespace bbf::bio
