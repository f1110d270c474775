// The bench harness (bench/harness.h): nearest-rank spreads, JSON string
// escaping, and that a failed check or gate fails the binary.

#include "harness.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "scratch_path.h"

namespace bbf::bench {
namespace {

TEST(BenchHarness, SpreadOfOneSampleIsThatSample) {
  const Spread s = SpreadOf({7.0});
  EXPECT_EQ(s.median, 7.0);
  EXPECT_EQ(s.p10, 7.0);
  EXPECT_EQ(s.p90, 7.0);
}

TEST(BenchHarness, SpreadOfFiveSamplesByNearestRank) {
  // Ranks ceil(0.1*5)=1, ceil(0.5*5)=3, ceil(0.9*5)=5; input unsorted.
  const Spread s = SpreadOf({50, 10, 40, 20, 30});
  EXPECT_EQ(s.p10, 10);
  EXPECT_EQ(s.median, 30);
  EXPECT_EQ(s.p90, 50);
}

TEST(BenchHarness, SpreadOfSixSamplesByNearestRank) {
  // Ranks ceil(0.6)=1, ceil(3.0)=3, ceil(5.4)=6: the median is the third
  // smallest sample, not an average of the middle two.
  const Spread s = SpreadOf({6, 1, 5, 2, 4, 3});
  EXPECT_EQ(s.p10, 1);
  EXPECT_EQ(s.median, 3);
  EXPECT_EQ(s.p90, 6);
}

TEST(BenchHarness, JsonStringEscapesQuoteBackslashAndControlBytes) {
  EXPECT_EQ(JsonString("a\"b\\c\x01\nd"), "\"a\\\"b\\\\c\\u0001\\u000ad\"");
  EXPECT_EQ(JsonString("plain"), "\"plain\"");
}

Harness NoArgs(const char* bench) {
  static char name[] = "bench_harness_test";
  char* argv[] = {name, nullptr};
  return Harness(bench, /*reps=*/1, 1, argv);
}

TEST(BenchHarness, PassingChecksAndGatesExitZero) {
  Harness h = NoArgs("ok");
  EXPECT_TRUE(h.Check(true, "holds"));
  EXPECT_TRUE(h.Gate("at most", 5.0, Cmp::kAtMost, 5.0));
  EXPECT_TRUE(h.Gate("at least", 0.97, Cmp::kAtLeast, 0.97));
  EXPECT_TRUE(h.Gate("below", 0.0099, Cmp::kBelow, 0.01));
  EXPECT_EQ(h.Finish(), 0);
}

TEST(BenchHarness, FailedCheckExitsNonZero) {
  Harness h = NoArgs("check");
  EXPECT_FALSE(h.Check(false, "a key was lost"));
  EXPECT_NE(h.Finish(), 0);
}

TEST(BenchHarness, FailedGateExitsNonZero) {
  Harness h = NoArgs("gate");
  EXPECT_FALSE(h.Gate("overhead %", 5.01, Cmp::kAtMost, 5.0));
  EXPECT_NE(h.Finish(), 0);
}

TEST(BenchHarness, BelowGateFailsAtItsBound) {
  Harness h = NoArgs("below");
  EXPECT_FALSE(h.Gate("fpr", 0.01, Cmp::kBelow, 0.01));
  EXPECT_NE(h.Finish(), 0);
}

TEST(BenchHarness, FileRecordsWhetherTheRunWasQuick) {
  for (const bool quick : {false, true}) {
    const std::string path = ScratchPath(quick ? "quick.json" : "full.json");
    std::string json = "--json=" + path;
    static char name[] = "bench_harness_test";
    static char quick_flag[] = "--quick";
    char* argv[] = {name, json.data(), quick_flag, nullptr};
    EXPECT_EQ(Harness("size", 1, quick ? 3 : 2, argv).Finish(), 0);
    std::ifstream in(path);
    const std::string file{std::istreambuf_iterator<char>(in), {}};
    EXPECT_NE(file.find(std::string("\"reps\": 1,\n  \"quick\": ") +
                        (quick ? "true" : "false")),
              std::string::npos)
        << file;
    std::remove(path.c_str());
  }
}

TEST(BenchHarness, UnknownArgumentExitsTwo) {
  static char name[] = "bench_harness_test";
  static char bad[] = "--jsn=x";
  char* argv[] = {name, bad, nullptr};
  EXPECT_EXIT(Harness("bad", 1, 2, argv), testing::ExitedWithCode(2),
              "usage");
}

}  // namespace
}  // namespace bbf::bench
