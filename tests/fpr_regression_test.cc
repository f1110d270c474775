// Statistical FPR regression suite: every factory-constructible family is
// built for a configured epsilon, loaded to its design point, and probed
// with a large negative stream. The measured false-positive count must
// stay below a binomial upper bound on 1.5x the configured epsilon —
// slack for fingerprint-sizing granularity (families round fingerprints
// to whole bits) plus sampling noise, but tight enough that a sizing
// regression (one fingerprint bit lost, a broken hash stream, an
// expansion path that erodes fingerprints) trips it.
//
// The bound: with M negatives and true rate p = 1.5*eps, the FP count is
// Binomial(M, p); we reject only above mean + 3*sigma (normal
// approximation, one-sided ~0.1% false-alarm rate per family). Seeds run
// through TestSeed so a trip replays with BBF_TEST_SEED=<n>.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "core/registry.h"
#include "range/grafite.h"
#include "range/memento.h"
#include "range/prefix_bloom_range.h"
#include "range/range_filter.h"
#include "range/rosetta.h"
#include "range/snarf.h"
#include "range/surf.h"
#include "test_seed.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

constexpr uint64_t kN = 20000;        // Keys inserted per family.
constexpr uint64_t kNegatives = 200000;  // Negative probes per family.
constexpr double kEpsilon = 0.01;     // Configured FPR target.
constexpr double kSlack = 1.5;        // Allowed sizing granularity.

/// mean + 3 sigma of Binomial(m, p): the acceptance threshold on the
/// false-positive count.
double BinomialUpperBound(uint64_t m, double p) {
  const double mean = static_cast<double>(m) * p;
  return mean + 3.0 * std::sqrt(mean * (1.0 - p));
}

/// Inserts `keys` (tolerating a small admission shortfall near the design
/// point), then counts false positives over `negatives` via the batch
/// path. Keys that failed to insert stay out of the FP accounting:
/// a negative is only "false positive" against what the filter admitted.
uint64_t MeasureFalsePositives(Filter& filter,
                               const std::vector<uint64_t>& keys,
                               const std::vector<uint64_t>& negatives,
                               size_t* admitted_out) {
  size_t admitted = 0;
  for (uint64_t k : keys) admitted += filter.Insert(k);
  *admitted_out = admitted;
  std::vector<uint8_t> out(negatives.size());
  filter.ContainsMany(negatives, out.data());
  uint64_t fp = 0;
  for (uint8_t o : out) fp += o;
  return fp;
}

// The parameter p names family p % F (F factory families) at target
// kTargets[p / F]: AllFactoryFamilies runs every family at kEpsilon, and
// EpsilonSweep runs them again at the other targets, since §1's "absent
// with probability >= 1 - eps" holds for any eps.
constexpr double kTargets[] = {kEpsilon, 0.1, 0.001, 0.0001};
constexpr const char* kTargetSuffixes[] = {"", "_eps_0_1", "_eps_0_001",
                                           "_eps_0_0001"};

class FprRegression : public ::testing::TestWithParam<size_t> {
 public:
  static std::vector<std::string> Families() {
    std::vector<std::string> families;
    for (std::string_view tag : RegisteredFilterTags()) {
      const FilterEntry* entry = FindFilterEntry(tag);
      if (entry != nullptr && entry->in_factory) {
        families.emplace_back(tag);
      }
    }
    return families;
  }

  static std::string ParamName(const ::testing::TestParamInfo<size_t>& info) {
    const size_t families = Families().size();
    std::string name = Families()[info.param % families];
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    return name + kTargetSuffixes[info.param / families];
  }
};

TEST_P(FprRegression, MeasuredFprWithinConfiguredBudget) {
  const size_t families = Families().size();
  const std::string family = Families()[GetParam() % families];
  const double epsilon = kTargets[GetParam() / families];
  const uint64_t seed = TestSeed(4242);
  BBF_ANNOUNCE_SEED(seed);
  SCOPED_TRACE(family);

  auto filter = CreateFilter(family, kN, epsilon);
  ASSERT_NE(filter, nullptr) << family;

  const auto keys = GenerateDistinctKeys(kN, seed);
  const auto negatives = GenerateNegativeKeys(keys, kNegatives, seed + 1);
  size_t admitted = 0;
  const uint64_t fp =
      MeasureFalsePositives(*filter, keys, negatives, &admitted);
  ASSERT_GE(admitted, kN * 9 / 10)
      << family << " refused too many inserts at its design point";

  const double bound = BinomialUpperBound(kNegatives, kSlack * epsilon);
  EXPECT_LE(static_cast<double>(fp), bound)
      << family << ": measured fpr "
      << static_cast<double>(fp) / kNegatives << " vs configured " << epsilon
      << " (allowed " << kSlack << "x + 3 sigma = " << bound / kNegatives
      << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllFactoryFamilies, FprRegression,
    ::testing::Range<size_t>(0, FprRegression::Families().size()),
    FprRegression::ParamName);
INSTANTIATE_TEST_SUITE_P(
    EpsilonSweep, FprRegression,
    ::testing::Range<size_t>(FprRegression::Families().size(),
                             std::size(kTargets) *
                                 FprRegression::Families().size()),
    FprRegression::ParamName);

// --- Range-family FPR regression (§2.5 / DESIGN.md §16) -------------------
//
// Every range family is configured to target epsilon ~= 1% on short
// (length-16) range queries, loaded with kN keys, and probed with
// kNegatives ranges verified empty against the exact key set. The same
// 1.5x mean + 3 sigma binomial bound gates the measured FP count. Range
// starts are uniform here; the correlated workload — the one that breaks
// trie-shaped filters — is the separate negative control below.

constexpr uint64_t kRangeLen = 16;

enum class RangeKind { kPrefixBloom, kGrafite, kSnarf, kRosetta, kSurfBase,
                       kSurfHash, kSurfReal, kMemento };

const char* RangeKindName(RangeKind kind) {
  switch (kind) {
    case RangeKind::kPrefixBloom: return "PrefixBloom";
    case RangeKind::kGrafite: return "Grafite";
    case RangeKind::kSnarf: return "Snarf";
    case RangeKind::kRosetta: return "Rosetta";
    case RangeKind::kSurfBase: return "SurfBase";
    case RangeKind::kSurfHash: return "SurfHash";
    case RangeKind::kSurfReal: return "SurfReal";
    case RangeKind::kMemento: return "Memento";
  }
  return "Unknown";
}

// Parameters per family chosen so the design range-FPR at length 16 is
// ~1% (fingerprint/level granularity permitting — some families can only
// bracket it from below).
std::unique_ptr<RangeFilter> MakeRangeFilter(
    RangeKind kind, const std::vector<uint64_t>& sorted_keys) {
  switch (kind) {
    case RangeKind::kPrefixBloom:
      // Length-16 ranges span <= 2 prefixes at 48 bits; 12 bits/key Bloom
      // gives ~0.4% per probe.
      return std::make_unique<PrefixBloomRangeFilter>(sorted_keys, 48, 12.0);
    case RangeKind::kGrafite:
      // Collision chance ~ n * (L + 1) / 2^reduced_bits ~= 0.8%.
      return std::make_unique<GrafiteRangeFilter>(sorted_keys, 26);
    case RangeKind::kSnarf:
      // 2^-7 per-point slack ~= 0.8% for short ranges on uniform keys.
      return std::make_unique<SnarfRangeFilter>(sorted_keys, 7);
    case RangeKind::kRosetta:
      // 5 levels cover dyadic nodes of length-16 ranges.
      return std::make_unique<RosettaRangeFilter>(sorted_keys, 5, 36.0);
    case RangeKind::kSurfBase:
      return std::make_unique<SurfFilter>(sorted_keys,
                                          SurfFilter::SuffixMode::kBase, 0);
    case RangeKind::kSurfHash:
      return std::make_unique<SurfFilter>(sorted_keys,
                                          SurfFilter::SuffixMode::kHash, 8);
    case RangeKind::kSurfReal:
      return std::make_unique<SurfFilter>(sorted_keys,
                                          SurfFilter::SuffixMode::kReal, 8);
    case RangeKind::kMemento: {
      auto f = std::make_unique<MementoFilter>(
          MementoFilter::ForCapacity(sorted_keys.size(), kEpsilon));
      for (uint64_t k : sorted_keys) f->AddKey(k);
      return f;
    }
  }
  return nullptr;
}

/// `count` ranges of length `len` verified empty against `key_set`.
/// Correlated starts begin right after a random stored key (the
/// trie-hostile workload); uncorrelated starts are uniform.
std::vector<std::pair<uint64_t, uint64_t>> EmptyRanges(
    const std::vector<uint64_t>& keys, const std::set<uint64_t>& key_set,
    uint64_t count, uint64_t len, bool correlated, SplitMix64& rng) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(count);
  while (out.size() < count) {
    const uint64_t lo =
        correlated ? keys[rng.NextBelow(keys.size())] + 1 : rng.Next();
    const uint64_t hi = lo + len - 1;
    if (hi < lo) continue;  // Overflow wrap: skip.
    const auto it = key_set.lower_bound(lo);
    if (it != key_set.end() && *it <= hi) continue;  // Not empty.
    out.emplace_back(lo, hi);
  }
  return out;
}

uint64_t CountRangeFalsePositives(
    const RangeFilter& f,
    const std::vector<std::pair<uint64_t, uint64_t>>& ranges) {
  uint64_t fp = 0;
  for (const auto& [lo, hi] : ranges) fp += f.MayContainRange(lo, hi);
  return fp;
}

class RangeFprRegression : public ::testing::TestWithParam<RangeKind> {};

TEST_P(RangeFprRegression, MeasuredRangeFprWithinBudget) {
  const uint64_t seed = TestSeed(4244);
  BBF_ANNOUNCE_SEED(seed);
  SCOPED_TRACE(RangeKindName(GetParam()));

  auto keys = GenerateDistinctKeys(kN, seed);
  std::sort(keys.begin(), keys.end());
  const std::set<uint64_t> key_set(keys.begin(), keys.end());
  const auto filter = MakeRangeFilter(GetParam(), keys);
  ASSERT_NE(filter, nullptr);

  SplitMix64 rng(seed + 1);
  const auto ranges = EmptyRanges(keys, key_set, kNegatives, kRangeLen,
                                  /*correlated=*/false, rng);
  const uint64_t fp = CountRangeFalsePositives(*filter, ranges);
  // SuRF's base and hash-suffix modes cannot express a 1% range FPR on
  // uniform 64-bit keys: the trie truncates to ~2-byte distinguishing
  // prefixes, so every stored key shadows a 2^48-wide swath and ~22% of
  // the space answers true regardless of suffix bits (hash suffixes only
  // sharpen point queries). Their gate is a pinned structural ceiling —
  // a regression past it still trips — while every tunable family is held
  // to the configured epsilon.
  const bool structural = GetParam() == RangeKind::kSurfBase ||
                          GetParam() == RangeKind::kSurfHash;
  const double design_p = structural ? 0.25 : kSlack * kEpsilon;
  const double bound = BinomialUpperBound(kNegatives, design_p);
  EXPECT_LE(static_cast<double>(fp), bound)
      << RangeKindName(GetParam()) << ": measured range fpr "
      << static_cast<double>(fp) / kNegatives << " vs allowed "
      << bound / kNegatives
      << (structural ? " (structural prefix-coverage ceiling)"
                     : " (1.5x configured epsilon + 3 sigma)");
}

INSTANTIATE_TEST_SUITE_P(
    AllRangeFamilies, RangeFprRegression,
    ::testing::Values(RangeKind::kPrefixBloom, RangeKind::kGrafite,
                      RangeKind::kSnarf, RangeKind::kRosetta,
                      RangeKind::kSurfBase, RangeKind::kSurfHash,
                      RangeKind::kSurfReal, RangeKind::kMemento),
    [](const ::testing::TestParamInfo<RangeKind>& info) {
      return RangeKindName(info.param);
    });

// Negative control for the range suite: correlated queries (starts right
// after stored keys) are the documented failure mode of trie-shaped
// filters — SuRF admits nearly everything because the query shares a long
// prefix with a stored key, and Rosetta's dyadic decomposition loses most
// of its filtering power. This test PRINTS the degradation table so the
// numbers land in CI logs (E27 context) but gates only the families that
// claim correlation robustness: Memento (exact same-prefix answers from
// sorted memento lists) and Grafite (reduced-universe hashing is
// order-preserving but correlation-free).
TEST(RangeFprCorrelatedControl, DocumentsTrieDegradationGatesRobustFamilies) {
  const uint64_t seed = TestSeed(4245);
  BBF_ANNOUNCE_SEED(seed);
  constexpr uint64_t kControlQueries = 50000;

  auto keys = GenerateDistinctKeys(kN, seed);
  std::sort(keys.begin(), keys.end());
  const std::set<uint64_t> key_set(keys.begin(), keys.end());
  SplitMix64 rng(seed + 1);
  const auto uncorrelated = EmptyRanges(keys, key_set, kControlQueries,
                                        kRangeLen, /*correlated=*/false, rng);
  const auto correlated = EmptyRanges(keys, key_set, kControlQueries,
                                      kRangeLen, /*correlated=*/true, rng);

  std::printf("%-12s %12s %12s %8s\n", "family", "uncorr_fpr", "corr_fpr",
              "ratio");
  for (RangeKind kind :
       {RangeKind::kPrefixBloom, RangeKind::kGrafite, RangeKind::kSnarf,
        RangeKind::kRosetta, RangeKind::kSurfBase, RangeKind::kSurfHash,
        RangeKind::kSurfReal, RangeKind::kMemento}) {
    const auto filter = MakeRangeFilter(kind, keys);
    ASSERT_NE(filter, nullptr);
    const double u =
        static_cast<double>(CountRangeFalsePositives(*filter, uncorrelated)) /
        kControlQueries;
    const double c =
        static_cast<double>(CountRangeFalsePositives(*filter, correlated)) /
        kControlQueries;
    const double ratio = u > 0 ? c / u : (c > 0 ? 1e9 : 1.0);
    std::printf("%-12s %12.5f %12.5f %8.1f\n", RangeKindName(kind), u, c,
                ratio);
    ::testing::Test::RecordProperty(
        std::string(RangeKindName(kind)) + "_correlated_fpr", c);
    if (kind == RangeKind::kMemento || kind == RangeKind::kGrafite) {
      const double bound =
          BinomialUpperBound(kControlQueries, kSlack * kEpsilon);
      EXPECT_LE(c * kControlQueries, bound)
          << RangeKindName(kind)
          << " claims correlation robustness but measured " << c;
    }
  }
}

// Negative control: the suite must have teeth. A Bloom filter starved to
// ~3 bits/key has a true FPR far above 1.5 * 1%, so the same bound MUST
// trip — if it doesn't, the harness is broken, not the filters.
TEST(FprRegressionControl, StarvedBloomTripsTheBound) {
  const uint64_t seed = TestSeed(4243);
  BBF_ANNOUNCE_SEED(seed);
  BloomFilter starved(kN, /*bits_per_key=*/3.0);
  const auto keys = GenerateDistinctKeys(kN, seed);
  const auto negatives = GenerateNegativeKeys(keys, kNegatives, seed + 1);
  size_t admitted = 0;
  const uint64_t fp =
      MeasureFalsePositives(starved, keys, negatives, &admitted);
  ASSERT_EQ(admitted, kN);
  EXPECT_GT(static_cast<double>(fp),
            BinomialUpperBound(kNegatives, kSlack * kEpsilon))
      << "a 3-bits/key Bloom filter passing the 1% bound means the "
         "regression harness lost its teeth";
}

}  // namespace
}  // namespace bbf
