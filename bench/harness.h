#ifndef BBF_BENCH_HARNESS_H_
#define BBF_BENCH_HARNESS_H_

// The bench harness (DESIGN.md §4). The timed claims of DESIGN.md §4 live
// here; the deterministic ones are test assertions. Every bench binary
// builds one `Harness`, which parses its flags, repeats its timed cells,
// evaluates its answer checks and gates, and writes the file:
//
//   {"bench": NAME, "host": {...}, "reps": N, "quick": Q, "results": [...],
//    "gates": [{"name", "value", "op", "bound", "pass"}, ...]}
//
// The host block uses perfbench's field names (nproc, cpu, simd_kernel,
// build_type, commit). `quick` is true for a --quick run, which skips the
// large sizes and the gates that read them. A repeated cell is an object
// {median, p10, p90} over `reps` runs, by nearest rank.

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace bbf::bench {

/// Wall-clock seconds of `fn()`.
template <typename Fn>
double Seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Million operations per second.
inline double Mops(uint64_t ops, double seconds) {
  return seconds <= 0 ? 0 : ops / seconds / 1e6;
}

/// Positives and negatives interleaved: the query stream of join
/// pre-filters and LSM point reads, exercising both probe paths.
std::vector<uint64_t> MixedQueries(const std::vector<uint64_t>& keys,
                                   const std::vector<uint64_t>& negatives);

/// Median and p10/p90 of repeated samples, each the nearest-rank
/// percentile: the ceil(p/100 * N)-th smallest sample.
struct Spread {
  double median = 0;
  double p10 = 0;
  double p90 = 0;
};
Spread SpreadOf(std::vector<double> samples);

/// `s` as a quoted JSON string.
std::string JsonString(std::string_view s);

/// One result row: a JSON object whose fields keep their insertion order.
class Row {
 public:
  Row& Text(std::string_view key, std::string_view value);
  Row& Int(std::string_view key, int64_t value);
  Row& Num(std::string_view key, double value);
  Row& Cell(std::string_view key, const Spread& value);
  Row& Bool(std::string_view key, bool value);
  std::string json() const { return "{" + fields_ + "}"; }

 private:
  Row& Field(std::string_view key, const std::string& value);
  std::string fields_;
};

/// How a gate's value must compare with its bound to pass.
enum class Cmp { kAtMost, kAtLeast, kBelow };

class Harness {
 public:
  /// Accepts exactly `--quick` and `--json=PATH`; any other argument
  /// prints the usage line and exits 2. `reps` is how often `Rate`
  /// repeats a cell (1 for single-shot benches).
  Harness(std::string bench, int reps, int argc, char** argv);

  bool quick() const { return quick_; }
  int reps() const { return reps_; }

  /// Runs `setup` (untimed) then `fn` (timed) reps() times and returns
  /// the spread of `ops` per run of `fn`, in Mops.
  template <typename Setup, typename Fn>
  Spread Rate(uint64_t ops, Setup&& setup, Fn&& fn) {
    std::vector<double> mops;
    for (int rep = 0; rep < reps_; ++rep) {
      setup();
      mops.push_back(Mops(ops, Seconds(fn)));
    }
    return SpreadOf(std::move(mops));
  }
  template <typename Fn>
  Spread Rate(uint64_t ops, Fn&& fn) {
    return Rate(ops, [] {}, fn);
  }

  Row& AddRow();
  /// An answer check: a false `ok` prints `what` and fails the binary.
  bool Check(bool ok, std::string_view what);
  /// A gate: `value` against the fixed `bound`. Every gate is written to
  /// the file; a failing one also fails the binary.
  bool Gate(std::string_view name, double value, Cmp cmp, double bound);

  /// Writes the file (when --json was given) and returns the exit status:
  /// 0, or 1 if a check or gate failed or the file could not be written.
  int Finish();

 private:
  std::string bench_;
  int reps_;
  bool quick_ = false;
  std::string json_path_;
  std::deque<Row> rows_;  // A deque: AddRow's reference stays valid.
  std::vector<std::string> gates_;
  bool failed_ = false;
};

}  // namespace bbf::bench

#endif  // BBF_BENCH_HARNESS_H_
