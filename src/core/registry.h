#ifndef BBF_CORE_REGISTRY_H_
#define BBF_CORE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/filter.h"

namespace bbf {

/// Builds an empty filter of one family, sized for `expected_keys` at
/// roughly `fpr`. Builders of snapshot-only tags (static filters,
/// spectral-bloom) may ignore `fpr`.
using FilterBuilder = std::unique_ptr<Filter> (*)(uint64_t expected_keys,
                                                  double fpr);

/// Relative cost of rebuilding a family from a key set (snapshot-drain-
/// replay migration, compaction-time rebuilds). Drives the Tuner's
/// decision table: under pressure it prefers the cheapest family that has
/// the capability it needs.
enum class BuildCostClass : uint8_t {
  kCheap,     // One pass of hash-and-set inserts (bloom variants).
  kModerate,  // Insert with displacement/shifting (cuckoo, quotient).
  kExpensive, // Needs auxiliary state per key (adaptive families) or a
              // global construction pass (xor/ribbon peeling).
};

/// Capability metadata for one family — what the registry knows about a
/// tag beyond how to build it. The declared bits are contract, verified
/// against behavior for every family in registry_test.
struct FilterCaps {
  /// Erase(key) removes a previously inserted key (counting/slot-moving
  /// families). False for plain bit-setting families, where Erase is a
  /// no-op returning false.
  bool supports_erase = false;
  /// The filter implements AdaptiveHook: ReportFalsePositive(key) can
  /// repair the slot so that exact false positive stops recurring.
  bool supports_adapt = false;
  /// Cost class for building a fresh instance from an enumerated key set.
  BuildCostClass build_cost = BuildCostClass::kModerate;
};

/// One row of the family table in registry.cc — the single source of
/// truth consulted by CreateFilter (factory construction),
/// CreateFilterForTag (snapshot tag dispatch), sharded snapshot recovery,
/// and the Tuner's migration decision table.
struct FilterEntry {
  /// The stable snapshot tag: must equal Name() of every filter `make`
  /// produces, because LoadFilterSnapshot routes frames by it.
  std::string_view tag;
  FilterBuilder make;
  /// Whether CreateFilter/KnownFilterNames expose this entry. Tags that
  /// need their key set up front (xor, ribbon) or a non-fpr parameter
  /// (spectral-bloom) are snapshot-only: loadable, not factory-built.
  bool in_factory = true;
  FilterCaps caps;
};

/// Looks up a tag or an alias ("dleft" names the "dleft-counting" row;
/// snapshot frames always carry the canonical tag). Returns nullptr when
/// unknown.
const FilterEntry* FindFilterEntry(std::string_view name_or_alias);

/// Every canonical tag in the table (no aliases), sorted.
std::vector<std::string_view> RegisteredFilterTags();

/// Every name CreateFilter accepts (factory-visible tags plus aliases),
/// sorted.
std::vector<std::string_view> KnownFilterNames();

/// Creates a point filter by name, sized for `expected_keys` at roughly
/// `fpr` — the tutorial's "modern filter API" as a one-liner, and the
/// mechanism behind pluggable-filter configuration in the applications.
/// Returns nullptr for unknown names and for snapshot-only tags: static
/// filters (xor/ribbon) need the key set up front, so construct them
/// directly (their tags still load from snapshots).
std::unique_ptr<Filter> CreateFilter(std::string_view name,
                                     uint64_t expected_keys, double fpr);

}  // namespace bbf

#endif  // BBF_CORE_REGISTRY_H_
