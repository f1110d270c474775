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
// E32's batch-mix row is wire_large's filter (16 quotient shards sized
// for 4M keys, 2M stored) under a served mix of batches: two threads loop
// 1,024-key ContainsMany over stored keys while one writer alternates a
// 1,024-key InsertManyWithStatus of fresh keys with an EraseMany of the
// keys it just stored, sleeping 300 us per pair. A lookup batch that
// meets a write batch waits at the shard locks; a full run on a host
// with 4 or more CPUs gates the lookup batches' p99 at kMaxLookupTail
// times their p50 (DESIGN.md §9's opposite sweeps).
//
// Usage: bench_concurrent [--quick] [--json=PATH]
//   --quick      256k keys instead of 1M, and 1 s batch-mix reps instead
//                of 4 s (CI smoke run).
//   --json=PATH  write machine-readable results (BENCH_concurrent.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "harness.h"
#include "quotient/quotient_filter.h"
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
// The batch-mix gate: lookup batch p99 at most this many times its p50.
constexpr double kMaxLookupTail = 3.0;

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

/// Nearest-rank percentile `q` (0 < q <= 1) of `samples`, which it sorts.
double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<size_t>(std::ceil(q * samples.size()));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

/// Microseconds `fn()` took.
template <typename Fn>
double Micros(Fn&& fn) {
  return Seconds(std::forward<Fn>(fn)) * 1e6;
}

/// The batch-mix row: one timed phase of `seconds` per rep over one
/// filter that the writer's erases keep at its stored keys.
void RunBatchMix(Harness& h, const char* ungated) {
  constexpr uint64_t kCapacity = uint64_t{4} << 20;
  constexpr uint64_t kStored = uint64_t{2} << 20;
  constexpr size_t kFrame = 1024;
  constexpr int kReaders = 2;
  const auto seconds = std::chrono::seconds(h.quick() ? 1 : 4);
  ShardedFilter f(kCapacity, 16, [](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<QuotientFilter>(
        QuotientFilter::ForCapacity(cap, 0.01));
  });
  std::vector<HashedKey> stored;
  for (uint64_t k : GenerateDistinctKeys(kStored, 83)) stored.emplace_back(k);
  h.Check(f.InsertMany(stored) == kStored, "batch-mix stored every key");
  std::printf("batch-mix: 16-shard quotient, %llu keys, %d lookup threads, "
              "1 writer\n",
              static_cast<unsigned long long>(kStored), kReaders);

  std::vector<double> lookup_p50, lookup_p99, tail, write_p50, write_p99,
      lookup_batches, write_batches;
  uint64_t misses = 0;
  uint64_t erase_misses = 0;
  SplitMix64 churn_rng(84);
  for (int rep = 0; rep < h.reps(); ++rep) {
    std::atomic<bool> done{false};
    std::vector<std::vector<double>> lookup_us(kReaders);
    std::vector<uint64_t> reader_misses(kReaders, 0);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        // Thread-local tallies, handed over at the end: the readers share
        // no line while they are timed.
        std::vector<double> us;
        uint64_t missed = 0;
        std::vector<uint8_t> out(kFrame);
        const std::span<const HashedKey> keys(stored);
        size_t off = (kStored / kReaders) * r;
        while (!done.load(std::memory_order_relaxed)) {
          const auto batch = keys.subspan(off, kFrame);
          us.push_back(Micros([&] { f.ContainsMany(batch, out.data()); }));
          for (uint8_t hit : out) missed += hit == 0;
          off = (off + kFrame) % kStored;
        }
        lookup_us[r] = std::move(us);
        reader_misses[r] = missed;
      });
    }
    std::vector<double> write_us;
    std::vector<HashedKey> churn(kFrame);
    std::vector<HashedKey> acked;
    std::vector<InsertOutcome> outcomes(kFrame);
    std::vector<uint8_t> erased(kFrame);
    const auto end = std::chrono::steady_clock::now() + seconds;
    while (std::chrono::steady_clock::now() < end) {
      for (HashedKey& key : churn) key = HashedKey(churn_rng.Next());
      write_us.push_back(Micros(
          [&] { f.InsertManyWithStatus(churn, outcomes.data()); }));
      acked.clear();
      for (size_t i = 0; i < kFrame; ++i) {
        if (Accepted(outcomes[i])) acked.push_back(churn[i]);
      }
      write_us.push_back(
          Micros([&] { f.EraseMany(acked, erased.data()); }));
      for (size_t i = 0; i < acked.size(); ++i) {
        erase_misses += erased[i] == 0;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    done.store(true, std::memory_order_relaxed);
    for (auto& t : readers) t.join();

    std::vector<double> lookups;
    for (int r = 0; r < kReaders; ++r) {
      lookups.insert(lookups.end(), lookup_us[r].begin(), lookup_us[r].end());
      misses += reader_misses[r];
    }
    lookup_batches.push_back(static_cast<double>(lookups.size()));
    write_batches.push_back(static_cast<double>(write_us.size()));
    lookup_p50.push_back(Percentile(lookups, 0.5));
    lookup_p99.push_back(Percentile(lookups, 0.99));
    tail.push_back(lookup_p99.back() / lookup_p50.back());
    write_p50.push_back(Percentile(write_us, 0.5));
    write_p99.push_back(Percentile(write_us, 0.99));
  }
  h.Check(misses == 0, "batch-mix lookups find every stored key");
  h.Check(erase_misses == 0, "batch-mix erases every acked key");
  h.Check(f.NumKeys() == kStored, "batch-mix ends with the stored keys");

  const Spread ratio = SpreadOf(tail);
  Row& row = h.AddRow()
                 .Text("filter", "sharded-quotient")
                 .Int("threads", kReaders + 1)
                 .Int("n", kStored)
                 .Text("op", "batch-mix")
                 .Text("mode", "batch1024")
                 .Num("seconds_per_rep", static_cast<double>(seconds.count()))
                 .Cell("lookup_p50_us", SpreadOf(lookup_p50))
                 .Cell("lookup_p99_us", SpreadOf(lookup_p99))
                 .Cell("lookup_p99_over_p50", ratio)
                 .Cell("write_p50_us", SpreadOf(write_p50))
                 .Cell("write_p99_us", SpreadOf(write_p99))
                 .Cell("lookup_batches", SpreadOf(lookup_batches))
                 .Cell("write_batches", SpreadOf(write_batches));
  std::printf("  lookup batch p50 %.1f us p99 %.1f us (p99/p50 %.2f [%.2f, "
              "%.2f]), write batch p50 %.1f us p99 %.1f us, %.0f lookup and "
              "%.0f write batches per rep\n",
              SpreadOf(lookup_p50).median, SpreadOf(lookup_p99).median,
              ratio.median, ratio.p10, ratio.p90, SpreadOf(write_p50).median,
              SpreadOf(write_p99).median, SpreadOf(lookup_batches).median,
              SpreadOf(write_batches).median);
  const std::string gate = "batch-mix lookup batch p99 / p50";
  if (ungated == nullptr) {
    h.Gate(gate, ratio.median, Cmp::kAtMost, kMaxLookupTail);
  } else {
    row.Text("ungated", ungated);
    std::printf("  %s: ungated (%s)\n", gate.c_str(), ungated);
  }
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

  RunBatchMix(h, ungated);
  return h.Finish();
}
