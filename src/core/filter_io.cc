#include "core/filter_io.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/sharded_filter.h"
#include "util/serialize.h"

namespace bbf {

std::unique_ptr<Filter> CreateFilterForTag(std::string_view tag,
                                           uint64_t expected_keys) {
  // Snapshot tags and factory names share one family table; tag dispatch
  // additionally accepts the snapshot-only entries (static filters, whose
  // empty build stands in until Load replaces it).
  const FilterEntry* entry = FindFilterEntry(tag);
  if (entry == nullptr) return nullptr;
  return entry->make(expected_keys == 0 ? 1 : expected_keys, 0.01);
}

namespace {

std::unique_ptr<Filter> LoadShardedSnapshot(std::istream& is,
                                            std::istream::pos_type start,
                                            const std::string& directory) {
  // The outer payload is only the shard directory; pull the inner family
  // tag out of it so we can hand ShardedFilter a matching factory, then
  // replay the whole snapshot through its own Load (which re-verifies the
  // frame and quarantines corrupt shards).
  std::istringstream dir(directory);
  uint64_t version;
  uint64_t capacity;
  uint64_t tag_len;
  std::string inner_tag;
  if (!ReadU64(dir, &version) ||
      !ReadU64Capped(dir, &capacity, kMaxSnapshotElements) ||
      !ReadU64Capped(dir, &tag_len, kMaxSnapshotTagBytes) ||
      !ReadBytes(dir, &inner_tag, tag_len) ||
      FindFilterEntry(inner_tag) == nullptr) {
    return nullptr;
  }
  auto sharded = std::make_unique<ShardedFilter>(
      1, 1, [inner_tag](uint64_t shard_capacity) {
        return CreateFilterForTag(inner_tag, shard_capacity);
      });
  // Shards migrated away from the factory family carry their own
  // generation tags (v3 directory); resolve them through the registry so
  // heterogeneous snapshots reload instead of quarantining.
  sharded->SetSnapshotTagBuilder(
      [](std::string_view gen_tag, uint64_t shard_capacity) {
        return CreateFilterForTag(gen_tag, shard_capacity);
      });
  is.clear();
  if (!is.seekg(start)) return nullptr;
  if (!sharded->Load(is)) return nullptr;
  return sharded;
}

}  // namespace

std::unique_ptr<Filter> LoadFilterSnapshot(std::istream& is) {
  const std::istream::pos_type start = is.tellg();
  std::string tag;
  std::string payload;
  if (!ReadSnapshotFrame(is, &tag, &payload)) return nullptr;
  if (tag == "sharded") return LoadShardedSnapshot(is, start, payload);
  std::unique_ptr<Filter> filter = CreateFilterForTag(tag);
  if (!filter || filter->Name() != tag) return nullptr;
  std::istringstream ps(payload);
  if (!filter->LoadPayload(ps)) return nullptr;
  return filter;
}

}  // namespace bbf
