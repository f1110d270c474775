// Experiments E16 and E20 (DESIGN.md §4): the serving layer under thread
// scaling — a ShardedFilter (16 cuckoo shards, chain policy) driven by
// 1/2/4/8 worker threads.
//
// E20 measures pure insert and lookup rates, scalar and in 128-key
// batches, so the batch-vs-scalar gap and the thread-scaling curve land
// in one table. Every insert and lookup cell must find every key. Scalar
// lookups take no shard lock (the seqlock read path, DESIGN.md §9), and
// a full run on a host with 4 or more CPUs gates their 4-thread rate at
// 3x the 1-thread rate; a quick run or a smaller host writes the row and
// says why it is ungated.
//
// E16 checks the paper's claim (§1, feature 6) that modern filters
// "scale with the number of threads (i.e., achieve high concurrency)":
// each thread runs 400k operations of a mixed stream, 80% lookups and 20%
// inserts of keys drawn at random, against a 32-shard filter and against
// a baseline of one cuckoo filter behind one global lock, both sized for
// 4x the key count.
//
// Usage: bench_concurrent [--quick] [--json=PATH]
//   --quick      256k keys instead of 1M (CI smoke run).
//   --json=PATH  write machine-readable results (BENCH_concurrent.json).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "harness.h"
#include "util/random.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

constexpr size_t kBatch = 128;  // Sub-batch for the pipelined modes.
constexpr int kThreads[] = {1, 2, 4, 8};
constexpr size_t kMixedOpsPerThread = 400'000;
// E20's scaling gate: scalar lookups at kGateThreads threads reach
// kMinLookupSpeedup times the 1-thread rate.
constexpr int kGateThreads = 4;
constexpr double kMinLookupSpeedup = 3.0;

/// The chain policy keeps the bench honest if a shard saturates early.
std::unique_ptr<Filter> MakeSharded(uint64_t capacity, int shards) {
  return std::make_unique<ShardedFilter>(
      capacity, shards, [](uint64_t cap) -> std::unique_ptr<Filter> {
        return std::make_unique<CuckooFilter>(cap, 12);
      });
}

/// E16's baseline: one lock around the whole filter.
class GlobalLockFilter : public Filter {
 public:
  explicit GlobalLockFilter(uint64_t capacity) : inner_(capacity, 12) {}

  using Filter::Contains;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override {
    std::lock_guard lock(mutex_);
    return inner_.Insert(key);
  }
  bool Contains(HashedKey key) const override {
    std::lock_guard lock(mutex_);
    return inner_.Contains(key);
  }
  bool Erase(HashedKey key) override {
    std::lock_guard lock(mutex_);
    return inner_.Erase(key);
  }
  size_t SpaceBits() const override { return inner_.SpaceBits(); }
  uint64_t NumKeys() const override { return inner_.NumKeys(); }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "global-lock"; }

 private:
  mutable std::mutex mutex_;
  CuckooFilter inner_;
};

/// Splits [0, total) into `threads` contiguous chunks and runs
/// `fn(begin, end, thread)` for each on its own thread.
template <typename Fn>
void Drive(size_t total, int threads, const Fn& fn) {
  std::vector<std::thread> workers;
  const size_t per = total / threads;
  for (int t = 0; t < threads; ++t) {
    const size_t begin = t * per;
    const size_t end = t + 1 == threads ? total : begin + per;
    workers.emplace_back([&fn, begin, end, t] { fn(begin, end, t); });
  }
  for (auto& w : workers) w.join();
}

bool FindsEveryKey(const Filter& f, const std::vector<uint64_t>& keys) {
  return std::all_of(keys.begin(), keys.end(),
                     [&f](uint64_t k) { return f.Contains(k); });
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("concurrent", /*reps=*/5, argc, argv);
  const uint64_t n = h.quick() ? (uint64_t{1} << 18) : (uint64_t{1} << 20);
  std::printf("sharded(cuckoo) n = %llu keys, %u hardware threads\n",
              static_cast<unsigned long long>(n),
              std::thread::hardware_concurrency());
  const auto keys = GenerateDistinctKeys(n, 79);
  const auto queries = MixedQueries(keys, GenerateNegativeKeys(keys, n, 80));

  // Speedups are vs the 1-thread scalar row of the same filter and op,
  // which each op runs first.
  double base = 0;
  const auto record = [&](const char* filter, int threads, const char* op,
                          const std::string& mode, const Spread& mops) -> Row& {
    if (threads == 1 && mode == "scalar") base = mops.median;
    const double speedup = base > 0 ? mops.median / base : 0.0;
    Row& row = h.AddRow()
                   .Text("filter", filter)
                   .Int("threads", threads)
                   .Int("n", n)
                   .Text("op", op)
                   .Text("mode", mode)
                   .Cell("mops", mops)
                   .Num("speedup", speedup);
    std::printf("  %-18s threads=%d %-7s %-7s %9.2f Mops [%.2f, %.2f]  "
                "%5.2fx\n",
                filter, threads, op, mode.c_str(), mops.median, mops.p10,
                mops.p90, speedup);
    return row;
  };

  // E20 inserts: every thread loops Insert over its chunk, or calls
  // InsertMany per kBatch keys (one shard-lock acquisition per shard per
  // sub-batch instead of per key). Each rep fills a fresh filter of 16
  // shards, enough lock striping for 8 threads.
  std::unique_ptr<Filter> f;
  for (const bool batch : {false, true}) {
    const std::string mode = batch ? "batch" : "scalar";
    for (int threads : kThreads) {
      record("sharded-cuckoo", threads, "insert", mode,
             h.Rate(n, [&] { f = MakeSharded(n, 16); }, [&] {
               Drive(n, threads, [&](size_t b, size_t e, int) {
                 for (; b < e; b += batch ? kBatch : 1) {
                   if (batch) {
                     f->InsertMany({keys.data() + b, std::min(kBatch, e - b)});
                   } else {
                     f->Insert(keys[b]);
                   }
                 }
               });
             }));
      h.Check(FindsEveryKey(*f, keys),
              "insert " + mode + " threads=" + std::to_string(threads) +
                  " keeps every key");
    }
  }

  // E20 lookups, on the last filter built above. Positives sit at the
  // even indices of the query stream; every one must be found. The
  // scaling gate needs as many CPUs as threads, and the full-size filter.
  const char* ungated =
      h.quick() ? "quick run"
      : std::thread::hardware_concurrency() < kGateThreads
          ? "fewer CPUs than threads"
          : nullptr;
  std::vector<uint8_t> answers(queries.size());
  for (const bool batch : {false, true}) {
    const std::string mode = batch ? "batch" : "scalar";
    for (int threads : kThreads) {
      std::fill(answers.begin(), answers.end(), 0);
      const Spread mops = h.Rate(queries.size(), [&] {
        Drive(queries.size(), threads, [&](size_t b, size_t e, int) {
          for (; b < e; b += batch ? kBatch : 1) {
            if (batch) {
              f->ContainsMany({queries.data() + b, std::min(kBatch, e - b)},
                              answers.data() + b);
            } else {
              answers[b] = f->Contains(queries[b]);
            }
          }
        });
      });
      Row& row = record("sharded-cuckoo", threads, "lookup", mode, mops);
      if (!batch && threads == kGateThreads) {
        const std::string gate = "lookup scalar threads=" +
                                 std::to_string(threads) +
                                 " speedup over threads=1";
        if (ungated == nullptr) {
          h.Gate(gate, mops.median / base, Cmp::kAtLeast, kMinLookupSpeedup);
        } else {
          row.Text("ungated", ungated);
          std::printf("  %s: ungated (%s)\n", gate.c_str(), ungated);
        }
      }
      bool found = true;
      for (size_t i = 0; i < answers.size(); i += 2) found &= answers[i] != 0;
      h.Check(found, "lookup " + mode + " threads=" + std::to_string(threads) +
                         " finds every inserted key");
    }
  }

  // E16: the mixed stream. The work grows with the thread count; each rep
  // starts from an empty filter.
  const std::pair<const char*, std::function<std::unique_ptr<Filter>()>>
      mixed[] = {{"sharded32-cuckoo", [n] { return MakeSharded(4 * n, 32); }},
                 {"global-lock-cuckoo",
                  [n] { return std::make_unique<GlobalLockFilter>(4 * n); }}};
  for (const auto& [name, make] : mixed) {
    for (int threads : kThreads) {
      const size_t ops = threads * kMixedOpsPerThread;
      record(name, threads, "mixed", "scalar",
             h.Rate(ops, [&, &make = make] { f = make(); }, [&] {
               Drive(ops, threads, [&](size_t b, size_t e, int t) {
                 SplitMix64 rng(1000 + t);
                 for (; b < e; ++b) {
                   const uint64_t key = keys[rng.NextBelow(keys.size())];
                   if (rng.NextDouble() < 0.2) {
                     f->Insert(key);
                   } else {
                     (void)f->Contains(key);
                   }
                 }
               });
             }));
    }
  }
  return h.Finish();
}
