#include "core/registry.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "adaptive/adaptive_quotient_filter.h"
#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"
#include "bloom/dleft_filter.h"
#include "bloom/scalable_bloom.h"
#include "core/sizing.h"
#include "cuckoo/adaptive_cuckoo_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "expandable/chained_filter.h"
#include "expandable/ring_filter.h"
#include "expandable/taffy_filter.h"
#include "quotient/expanding_quotient_filter.h"
#include "quotient/prefix_filter.h"
#include "quotient/quotient_filter.h"
#include "quotient/rsqf.h"
#include "quotient/vector_quotient_filter.h"
#include "range/memento.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"

namespace bbf {
namespace {

// Capability rows (FilterCaps in registry.h). The declared bits are
// verified against behavior for every tag in registry_test, so a new
// family with a wrong row fails CI, not a migration.
constexpr FilterCaps kBitSet{false, false, BuildCostClass::kCheap};
constexpr FilterCaps kCountingCheap{true, false, BuildCostClass::kCheap};
constexpr FilterCaps kSlotted{true, false, BuildCostClass::kModerate};
constexpr FilterCaps kSlottedNoErase{false, false, BuildCostClass::kModerate};
constexpr FilterCaps kAdaptiveCaps{true, true, BuildCostClass::kExpensive};
constexpr FilterCaps kStaticBuild{false, false, BuildCostClass::kExpensive};

std::unique_ptr<Filter> MakeAdaptiveCuckoo(uint64_t n, double fpr) {
  return std::make_unique<AdaptiveCuckooFilter>(n,
                                                FingerprintBitsFor(fpr, 8.0));
}

std::unique_ptr<Filter> MakeAdaptiveQuotient(uint64_t n, double fpr) {
  return std::make_unique<AdaptiveQuotientFilter>(
      AdaptiveQuotientFilter::ForCapacity(n, fpr));
}

std::unique_ptr<Filter> MakeBlockedBloom(uint64_t n, double fpr) {
  return std::make_unique<BlockedBloomFilter>(n, BloomBitsFor(fpr) + 2);
}

std::unique_ptr<Filter> MakeBloom(uint64_t n, double fpr) {
  return std::make_unique<BloomFilter>(n, BloomBitsFor(fpr));
}

std::unique_ptr<Filter> MakeChainedQuotient(uint64_t /*n*/, double fpr) {
  return std::make_unique<ChainedQuotientFilter>(
      10, FingerprintBitsFor(fpr, 1.0) + 3);
}

std::unique_ptr<Filter> MakeCountingBloom(uint64_t n, double fpr) {
  return std::make_unique<CountingBloomFilter>(n, 4 * BloomBitsFor(fpr));
}

std::unique_ptr<Filter> MakeCountingQuotient(uint64_t n, double fpr) {
  return std::make_unique<CountingQuotientFilter>(
      CountingQuotientFilter::ForCapacity(n, fpr));
}

std::unique_ptr<Filter> MakeCuckoo(uint64_t n, double fpr) {
  return std::make_unique<CuckooFilter>(CuckooFilter::ForFpr(n, fpr));
}

std::unique_ptr<Filter> MakeDleftCounting(uint64_t n, double fpr) {
  // A lookup scans all d=4 subtables x 8 cells; at the ~75% design load
  // that is ~24 occupied candidates, each a 2^-f collision.
  return std::make_unique<DleftCountingFilter>(n, 4, 8,
                                               FingerprintBitsFor(fpr, 24.0));
}

std::unique_ptr<Filter> MakeExpandingQuotient(uint64_t /*n*/, double fpr) {
  return std::make_unique<ExpandingQuotientFilter>(
      10, FingerprintBitsFor(fpr, 1.0) + 4);
}

// The dynamic range filter (DESIGN.md §16). Its point surface is a full
// Filter — online inserts on the RSQF substrate, expansion by doubling —
// so it rides the factory and the snapshot dispatcher like any point
// family; the RangeFilter surface is reached through the same object (LSM
// adoption in apps/lsm/run.cc).
std::unique_ptr<Filter> MakeMemento(uint64_t n, double fpr) {
  return std::make_unique<MementoFilter>(MementoFilter::ForCapacity(n, fpr));
}

std::unique_ptr<Filter> MakePrefix(uint64_t n, double fpr) {
  return std::make_unique<PrefixFilter>(n, FingerprintBitsFor(fpr, 24.0));
}

std::unique_ptr<Filter> MakeQuotient(uint64_t n, double fpr) {
  return std::make_unique<QuotientFilter>(QuotientFilter::ForCapacity(n, fpr));
}

// Static filters want the key set up front; an empty build stands in
// until LoadPayload replaces it.
std::unique_ptr<Filter> MakeRibbon(uint64_t /*n*/, double /*fpr*/) {
  return std::make_unique<RibbonFilter>(std::vector<uint64_t>{}, 8);
}

std::unique_ptr<Filter> MakeRing(uint64_t /*n*/, double fpr) {
  return std::make_unique<RingFilter>(
      std::min(16, FingerprintBitsFor(fpr, 4.0)));
}

std::unique_ptr<Filter> MakeRsqf(uint64_t n, double fpr) {
  return std::make_unique<Rsqf>(Rsqf::ForCapacity(n, fpr));
}

std::unique_ptr<Filter> MakeScalableBloom(uint64_t n, double fpr) {
  return std::make_unique<ScalableBloomFilter>(std::max<uint64_t>(n, 64),
                                               fpr);
}

// Spectral's parameter is a bits-per-key budget, not an fpr target.
std::unique_ptr<Filter> MakeSpectralBloom(uint64_t n, double /*fpr*/) {
  return std::make_unique<SpectralBloomFilter>(n, 8.0);
}

std::unique_ptr<Filter> MakeTaffy(uint64_t /*n*/, double fpr) {
  return std::make_unique<TaffyFilter>(10, FingerprintBitsFor(fpr, 1.0) + 4);
}

std::unique_ptr<Filter> MakeVectorQuotient(uint64_t n, double fpr) {
  return std::make_unique<VectorQuotientFilter>(n,
                                                FingerprintBitsFor(fpr, 2.2));
}

std::unique_ptr<Filter> MakeXor(uint64_t /*n*/, double /*fpr*/) {
  return std::make_unique<XorFilter>(std::vector<uint64_t>{}, 8);
}

// The family table, sorted by tag. Snapshot-only rows (in_factory false)
// load from frames but CreateFilter rejects them: spectral-bloom takes a
// bits budget, not an fpr, and counts occurrences without exposing Erase.
constexpr FilterEntry kFamilies[] = {
    {"adaptive-cuckoo", MakeAdaptiveCuckoo, true, kAdaptiveCaps},
    {"adaptive-quotient", MakeAdaptiveQuotient, true, kAdaptiveCaps},
    {"blocked-bloom", MakeBlockedBloom, true, kBitSet},
    {"bloom", MakeBloom, true, kBitSet},
    {"chained-quotient", MakeChainedQuotient, true, kSlotted},
    {"counting-bloom", MakeCountingBloom, true, kCountingCheap},
    {"counting-quotient", MakeCountingQuotient, true, kSlotted},
    {"cuckoo", MakeCuckoo, true, kSlotted},
    {"dleft-counting", MakeDleftCounting, true, kSlotted},
    {"expanding-quotient", MakeExpandingQuotient, true, kSlotted},
    {"memento", MakeMemento, true, kSlottedNoErase},
    {"prefix", MakePrefix, true, kSlottedNoErase},
    {"quotient", MakeQuotient, true, kSlotted},
    {"ribbon", MakeRibbon, false, kStaticBuild},
    {"ring", MakeRing, true, kSlotted},
    {"rsqf", MakeRsqf, true, kSlottedNoErase},
    {"scalable-bloom", MakeScalableBloom, true, kBitSet},
    {"spectral-bloom", MakeSpectralBloom, false, kBitSet},
    {"taffy", MakeTaffy, true, kSlotted},
    {"vector-quotient", MakeVectorQuotient, true, kSlotted},
    {"xor", MakeXor, false, kStaticBuild},
};
static_assert(std::adjacent_find(std::begin(kFamilies), std::end(kFamilies),
                                 [](const FilterEntry& a,
                                    const FilterEntry& b) {
                                   return a.tag >= b.tag;
                                 }) == std::end(kFamilies),
              "kFamilies must be sorted by tag, without duplicates");

// Factory-visible alternate names: alias, canonical tag. "dleft" is the
// d-left family's historical factory name.
constexpr std::pair<std::string_view, std::string_view> kAliases[] = {
    {"dleft", "dleft-counting"},
};

}  // namespace

const FilterEntry* FindFilterEntry(std::string_view name_or_alias) {
  for (const auto& [alias, tag] : kAliases) {
    if (name_or_alias == alias) name_or_alias = tag;
  }
  for (const FilterEntry& entry : kFamilies) {
    if (entry.tag == name_or_alias) return &entry;
  }
  return nullptr;
}

std::vector<std::string_view> RegisteredFilterTags() {
  std::vector<std::string_view> tags;
  for (const FilterEntry& entry : kFamilies) tags.push_back(entry.tag);
  return tags;
}

std::vector<std::string_view> KnownFilterNames() {
  std::vector<std::string_view> names;
  for (const FilterEntry& entry : kFamilies) {
    if (entry.in_factory) names.push_back(entry.tag);
  }
  for (const auto& [alias, tag] : kAliases) {
    if (FindFilterEntry(tag)->in_factory) names.push_back(alias);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::unique_ptr<Filter> CreateFilter(std::string_view name,
                                     uint64_t expected_keys, double fpr) {
  const FilterEntry* entry = FindFilterEntry(name);
  if (entry == nullptr || !entry->in_factory) return nullptr;
  return entry->make(expected_keys == 0 ? 1 : expected_keys, fpr);
}

}  // namespace bbf
