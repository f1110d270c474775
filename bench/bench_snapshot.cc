// Experiment E19 (DESIGN.md §4): snapshot save/load throughput vs
// rebuild-from-keys. The snapshot layer (DESIGN.md §8) exists so a
// restarting process can mmap/stream a checksummed frame instead of
// re-hashing every key: loading is a sequential read + checksum, while
// rebuilding repays one random cache line (or more) per key. This bench
// measures both paths per family and the blob size the frame costs. A
// reloaded filter must hold as many keys as the one saved.
//
// Usage: bench_snapshot [--quick] [--json=PATH]
//   --quick      200k keys (default 2M).
//   --json=PATH  write machine-readable results (BENCH_snapshot.json).

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
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

/// Times `build()` (the rebuild path), then a save and a framed load
/// through the factory (core/filter_io.h), and adds the row.
void Bench(Harness& h, const std::string& name,
           const std::function<std::unique_ptr<Filter>()>& build) {
  std::unique_ptr<Filter> built;
  const double build_s = Seconds([&] { built = build(); });
  std::string blob;
  const double save_s = Seconds([&] {
    std::ostringstream ss;
    built->Save(ss);
    blob = std::move(ss).str();
  });
  std::unique_ptr<Filter> loaded;
  const double load_s = Seconds([&] {
    std::istringstream is(blob);
    loaded = LoadFilterSnapshot(is);
  });
  h.Check(loaded != nullptr && loaded->NumKeys() == built->NumKeys(),
          name + " reloads with every key");
  h.AddRow()
      .Text("filter", name)
      .Num("build_ms", build_s * 1e3)
      .Num("save_ms", save_s * 1e3)
      .Num("load_ms", load_s * 1e3)
      .Num("load_vs_rebuild", load_s > 0 ? build_s / load_s : 0.0)
      .Int("blob_bytes", blob.size());
  std::printf("  %-14s build %7.1f ms   save %6.1f ms (%6.1f MB/s)   "
              "load %6.1f ms (%6.1f MB/s)   %5.2fx vs rebuild   "
              "%5.1f MiB\n",
              name.c_str(), build_s * 1e3, save_s * 1e3,
              blob.size() / save_s / 1e6, load_s * 1e3,
              blob.size() / load_s / 1e6, load_s > 0 ? build_s / load_s : 0.0,
              blob.size() / 1048576.0);
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("snapshot", /*reps=*/1, argc, argv);
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
  std::printf("\n(load MB/s is framed-stream parse incl. checksum; "
              "'x vs rebuild' = build time / load time)\n");
  return h.Finish();
}
