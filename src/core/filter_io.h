#ifndef BBF_CORE_FILTER_IO_H_
#define BBF_CORE_FILTER_IO_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <string_view>

#include "core/filter.h"

namespace bbf {

/// An empty instance of the filter family whose frame tag is `tag`, sized
/// for roughly `expected_keys`. Covers every family with snapshot support
/// except "sharded" (which needs a shard factory — LoadFilterSnapshot
/// derives one from the snapshot's own directory). Returns nullptr for
/// unknown tags.
std::unique_ptr<Filter> CreateFilterForTag(std::string_view tag,
                                           uint64_t expected_keys = 1);

/// Reads one snapshot from `is`, instantiates the right filter family
/// from the frame's tag, loads it, and returns it — nullptr on any
/// corruption (bad magic, checksum mismatch, truncation, hostile lengths,
/// unknown tag). Sharded snapshots need a seekable stream (file or string
/// stream): the directory is parsed once to build the shard factory, then
/// the snapshot is re-read through ShardedFilter::Load.
std::unique_ptr<Filter> LoadFilterSnapshot(std::istream& is);

}  // namespace bbf

#endif  // BBF_CORE_FILTER_IO_H_
