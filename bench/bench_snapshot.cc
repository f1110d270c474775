// Experiment E19 (DESIGN.md §4): snapshot save/load throughput vs
// rebuild-from-keys. The snapshot layer (DESIGN.md §8) exists so a
// restarting process can mmap/stream a checksummed frame instead of
// re-hashing every key: loading is a sequential read + checksum, while
// rebuilding repays one random cache line (or more) per key. This bench
// measures both paths per family and the blob size the frame costs. A
// reloaded filter must hold as many keys as the one saved. Each path is
// timed reps() times in one process, after one untimed save and load, and
// reported as the median with p10/p90; load_vs_rebuild divides the
// medians.
//
// Usage: bench_snapshot [--quick] [--json=PATH]
//   --quick      200k keys (default 2M).
//   --json=PATH  write machine-readable results (BENCH_snapshot.json).

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/filter_io.h"
#include "core/registry.h"
#include "core/sharded_filter.h"
#include "harness.h"
#include "staticf/xor_filter.h"
#include "util/random.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

/// The spread of reps() timings of `fn()`, in milliseconds.
template <typename Fn>
Spread Millis(const Harness& h, Fn&& fn) {
  std::vector<double> ms;
  for (int rep = 0; rep < h.reps(); ++rep) ms.push_back(Seconds(fn) * 1e3);
  return SpreadOf(std::move(ms));
}

/// Times `build()` (the rebuild path), a save, and a framed load through
/// the factory (core/filter_io.h), and adds the row. One untimed save and
/// load run first, so no timed load pays the process's first touch of its
/// buffers.
void Bench(Harness& h, const std::string& name,
           const std::function<std::unique_ptr<Filter>()>& build) {
  std::unique_ptr<Filter> built;
  const Spread build_ms = Millis(h, [&] {
    built.reset();
    built = build();
  });
  std::string blob;
  const auto save = [&] {
    std::ostringstream ss;
    built->Save(ss);
    blob = std::move(ss).str();
  };
  std::unique_ptr<Filter> loaded;
  const auto load = [&] {
    loaded.reset();
    std::istringstream is(blob);
    loaded = LoadFilterSnapshot(is);
  };
  save();
  load();
  const Spread save_ms = Millis(h, save);
  const Spread load_ms = Millis(h, load);
  h.Check(loaded != nullptr && loaded->NumKeys() == built->NumKeys(),
          name + " reloads with every key");
  const double vs_rebuild =
      load_ms.median > 0 ? build_ms.median / load_ms.median : 0.0;
  h.AddRow()
      .Text("filter", name)
      .Cell("build_ms", build_ms)
      .Cell("save_ms", save_ms)
      .Cell("load_ms", load_ms)
      .Num("load_vs_rebuild", vs_rebuild)
      .Int("blob_bytes", blob.size());
  std::printf("  %-14s build %7.1f ms   save %6.1f ms (%6.1f MB/s)   "
              "load %6.1f ms [%.1f, %.1f] (%6.1f MB/s)   %5.2fx vs rebuild"
              "   %5.1f MiB\n",
              name.c_str(), build_ms.median, save_ms.median,
              blob.size() / save_ms.median / 1e3, load_ms.median,
              load_ms.p10, load_ms.p90, blob.size() / load_ms.median / 1e3,
              vs_rebuild, blob.size() / 1048576.0);
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("snapshot", /*reps=*/5, argc, argv);
  const uint64_t n = h.quick() ? 200000 : 2000000;
  SplitMix64 rng(0x5EED);
  std::vector<uint64_t> keys(n);
  for (uint64_t& k : keys) k = rng.Next();
  std::printf("E19 snapshot: save/load vs rebuild, n=%llu keys\n\n",
              static_cast<unsigned long long>(n));
  // Dynamic families rebuild by construct + InsertMany; the static xor
  // filter by its peeling construction.
  for (const char* tag :
       {"bloom", "blocked-bloom", "quotient", "cuckoo", "taffy"}) {
    Bench(h, tag, [&] {
      auto f = CreateFilterForTag(tag, keys.size());
      f->InsertMany(keys);
      return f;
    });
  }
  Bench(h, "xor", [&] { return std::make_unique<XorFilter>(keys, 12); });
  Bench(h, "sharded(16)", [&] {
    auto f = std::make_unique<ShardedFilter>(keys.size(), 16, [](uint64_t cap) {
      return CreateFilter("blocked-bloom", cap, 0.01);
    });
    f->InsertMany(keys);
    return f;
  });
  std::printf("\n(medians of %d reps, load's p10/p90 in brackets; load "
              "MB/s is framed-stream parse incl. checksum; 'x vs rebuild' = "
              "median build time / median load time)\n",
              h.reps());
  return h.Finish();
}
