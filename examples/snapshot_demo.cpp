// Example: crash-safe blocklist snapshots (DESIGN.md §8).
//
// A router keeps 400k malicious URLs in a 8-shard filter. Instead of
// re-hashing the feed on every restart, it saves a checksummed snapshot
// and reloads it at boot. This demo saves one, flips a single bit inside
// one shard's frame — a torn sector, a bad disk, a truncated upload —
// and reloads: the corrupt shard is quarantined and rebuilt empty, the
// other seven load intact, and the LoadReport says exactly which slice
// of the keyspace must be re-fed from the source of truth.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/sharded_filter.h"
#include "util/hash.h"
#include "workload/generators.h"

using namespace bbf;

namespace {

constexpr int kShards = 8;

std::unique_ptr<ShardedFilter> MakeBlocklist(uint64_t capacity) {
  return std::make_unique<ShardedFilter>(capacity, kShards, [](uint64_t cap) {
    return CreateFilter("blocked-bloom", cap, 0.001);
  });
}

uint64_t KeyOf(const std::string& url) { return HashBytes(url, 0xB10C); }

}  // namespace

int main() {
  const std::vector<std::string> malicious = GenerateUrls(400000, 21);
  auto blocklist = MakeBlocklist(malicious.size());
  for (const std::string& url : malicious) blocklist->Insert(KeyOf(url));

  // Persist. The blob is what would hit disk: an outer directory frame
  // plus one self-checksummed frame per shard.
  std::ostringstream out;
  if (!blocklist->Save(out)) {
    std::printf("save failed\n");
    return 1;
  }
  std::string blob = std::move(out).str();
  std::printf("saved %d-shard blocklist: %zu URLs, %.1f MiB snapshot\n",
              kShards, malicious.size(), blob.size() / 1048576.0);

  // One bad bit in the middle of the blob — inside some shard's frame.
  blob[blob.size() / 2] ^= 0x04;
  std::printf("flipped one bit at byte %zu (simulated disk corruption)\n\n",
              blob.size() / 2);

  // Reload. A plain Load would also succeed; LoadWithReport additionally
  // says which shards were dropped.
  auto reloaded = MakeBlocklist(malicious.size());
  ShardedFilter::LoadReport report;
  std::istringstream in(blob);
  if (!reloaded->LoadWithReport(in, &report)) {
    std::printf("snapshot unusable (directory corrupt) — full rebuild\n");
    return 1;
  }
  std::printf("loaded %zu/%zu shards; quarantined:", report.healthy_shards,
              report.total_shards);
  for (size_t q : report.quarantined) std::printf(" #%zu", q);
  std::printf("%s\n", report.quarantined.empty() ? " none" : "");

  uint64_t still_blocked = 0;
  for (const std::string& url : malicious) {
    still_blocked += reloaded->Contains(KeyOf(url));
  }
  std::printf("%llu/%zu URLs still blocked after reload\n",
              static_cast<unsigned long long>(still_blocked),
              malicious.size());
  std::printf("re-feed only the quarantined shards' slice: %.1f%% of the "
              "feed instead of 100%%\n",
              100.0 * (malicious.size() - still_blocked) / malicious.size());
  return 0;
}
