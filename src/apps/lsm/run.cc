#include "apps/lsm/run.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bloom/bloom_filter.h"
#include "core/sizing.h"
#include "cuckoo/cuckoo_filter.h"
#include "quotient/quotient_filter.h"
#include "range/grafite.h"
#include "range/memento.h"
#include "range/prefix_bloom_range.h"
#include "range/rosetta.h"
#include "range/snarf.h"
#include "range/surf.h"
#include "staticf/ribbon_filter.h"
#include "util/serialize.h"
#include "staticf/xor_filter.h"

namespace bbf::lsm {
namespace {

constexpr std::string_view kRunDataTag = "lsm-run";

}  // namespace

std::unique_ptr<Filter> BuildPointFilter(const std::vector<uint64_t>& keys,
                                         PointFilterKind kind,
                                         double bits_per_key, uint64_t seed) {
  const uint64_t n = std::max<uint64_t>(keys.size(), 1);
  // Fingerprint widths chosen so each filter spends ~bits_per_key.
  switch (kind) {
    case PointFilterKind::kNone:
      return nullptr;
    case PointFilterKind::kBloom: {
      auto f = std::make_unique<BloomFilter>(n, bits_per_key, 0, seed);
      for (uint64_t k : keys) f->Insert(k);
      return f;
    }
    case PointFilterKind::kBlockedBloom: {
      auto f = std::make_unique<BlockedBloomFilter>(n, bits_per_key);
      for (uint64_t k : keys) f->Insert(k);
      return f;
    }
    case PointFilterKind::kXor: {
      const int fp_bits =
          std::max(2, static_cast<int>(std::lround(bits_per_key / 1.23)));
      return std::make_unique<XorFilter>(keys, fp_bits);
    }
    case PointFilterKind::kRibbon: {
      const int fp_bits =
          std::max(2, static_cast<int>(std::lround(bits_per_key / 1.05)));
      return std::make_unique<RibbonFilter>(keys, fp_bits);
    }
    case PointFilterKind::kCuckoo: {
      const int fp_bits =
          std::max(4, static_cast<int>(std::lround(bits_per_key * 0.95)));
      auto f = std::make_unique<CuckooFilter>(n, fp_bits, seed);
      for (uint64_t k : keys) f->Insert(k);
      return f;
    }
    case PointFilterKind::kQuotient: {
      const int r_bits =
          std::max(2, static_cast<int>(std::lround(bits_per_key - 3)));
      auto f = std::make_unique<QuotientFilter>(
          QuotientBitsFor(n, QuotientFilter::kMaxLoadFactor), r_bits, seed);
      for (uint64_t k : keys) f->Insert(k);
      return f;
    }
  }
  return nullptr;
}

std::unique_ptr<RangeFilter> BuildRangeFilter(
    const std::vector<uint64_t>& keys, RangeFilterKind kind,
    double bits_per_key) {
  if (keys.empty()) return nullptr;
  switch (kind) {
    case RangeFilterKind::kNone:
      return nullptr;
    case RangeFilterKind::kPrefixBloom:
      return std::make_unique<PrefixBloomRangeFilter>(keys, 44, bits_per_key);
    case RangeFilterKind::kSurf: {
      // Spend whatever the trie doesn't need on real suffix bits.
      return std::make_unique<SurfFilter>(keys, SurfFilter::SuffixMode::kReal,
                                          8);
    }
    case RangeFilterKind::kRosetta:
      return std::make_unique<RosettaRangeFilter>(keys, 17, bits_per_key);
    case RangeFilterKind::kSnarf:
      return std::make_unique<SnarfRangeFilter>(
          keys, std::max(1, static_cast<int>(bits_per_key) - 2));
    case RangeFilterKind::kGrafite:
      return std::make_unique<GrafiteRangeFilter>(
          GrafiteRangeFilter::ForBitsPerKey(keys, bits_per_key));
    case RangeFilterKind::kMemento: {
      // The dynamic family: the "build" is just the online insert path.
      auto f = std::make_unique<MementoFilter>(
          MementoFilter::ForBitsPerKey(keys.size(), bits_per_key));
      for (uint64_t k : keys) f->AddKey(k);
      return f;
    }
  }
  return nullptr;
}

std::unique_ptr<RangeFilter> LoadRangeFilterSnapshot(std::istream& is) {
  const std::istream::pos_type start = is.tellg();
  std::string tag;
  std::string payload;
  if (!ReadSnapshotFrame(is, &tag, &payload)) return nullptr;
  std::unique_ptr<RangeFilter> filter;
  if (tag == "prefix-bloom") {
    filter = std::make_unique<PrefixBloomRangeFilter>(
        std::vector<uint64_t>{}, 44, 10.0);
  } else if (tag == "memento") {
    filter = std::make_unique<MementoFilter>(6, 8);
  } else {
    return nullptr;
  }
  // Replay the whole frame through the family's own Load so its tag check
  // and payload validation run exactly as for point filters.
  is.clear();
  if (!is.seekg(start)) return nullptr;
  if (!filter->Load(is)) return nullptr;
  return filter;
}

SortedRun::SortedRun(uint64_t id, std::vector<Entry> entries,
                     PointFilterKind point_kind, double point_bits_per_key,
                     RangeFilterKind range_kind, double range_bits_per_key,
                     uint64_t filter_seed)
    : id_(id), entries_(std::move(entries)) {
  const std::vector<uint64_t> keys = Keys();
  if (!keys.empty()) {
    point_filter_ =
        BuildPointFilter(keys, point_kind, point_bits_per_key, filter_seed);
    range_filter_ = BuildRangeFilter(keys, range_kind, range_bits_per_key);
  }
}

SortedRun::SortedRun(uint64_t id, std::vector<Entry> entries,
                     std::unique_ptr<Filter> adopted_point_filter,
                     RangeFilterKind range_kind, double range_bits_per_key)
    : id_(id),
      entries_(std::move(entries)),
      point_filter_(std::move(adopted_point_filter)) {
  const std::vector<uint64_t> keys = Keys();
  if (!keys.empty()) {
    range_filter_ = BuildRangeFilter(keys, range_kind, range_bits_per_key);
  }
}

SortedRun::SortedRun(uint64_t id, std::vector<Entry> entries,
                     std::unique_ptr<Filter> point_filter,
                     bool point_quarantined,
                     std::unique_ptr<RangeFilter> range_filter,
                     bool range_quarantined)
    : id_(id),
      entries_(std::move(entries)),
      point_filter_(std::move(point_filter)),
      range_filter_(std::move(range_filter)),
      point_quarantined_(point_quarantined),
      range_quarantined_(range_quarantined),
      data_persisted_(true),
      point_filter_persisted_(point_filter_ != nullptr),
      range_filter_persisted_(range_filter_ != nullptr) {}

std::vector<uint64_t> SortedRun::Keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(entries_.size());
  for (const Entry& e : entries_) keys.push_back(e.key);
  return keys;
}

void SortedRun::ReplacePointFilter(std::unique_ptr<Filter> filter) {
  point_filter_ = std::move(filter);
  point_quarantined_ = false;
  point_filter_persisted_ = false;
}

void SortedRun::ReplaceRangeFilter(std::unique_ptr<RangeFilter> filter) {
  range_filter_ = std::move(filter);
  range_quarantined_ = false;
  range_filter_persisted_ = false;
}

std::optional<Entry> SortedRun::Get(uint64_t key, IoStats* io) const {
  if (entries_.empty() || key < min_key() || key > max_key()) {
    return std::nullopt;
  }
  ++io->runs_consulted;
  if (point_filter_ != nullptr) {
    ++io->filter_probes;
    if (!point_filter_->Contains(key)) return std::nullopt;
  } else if (point_quarantined_) {
    // Degraded mode: no filter to avert the read; the extra I/O is the
    // price of serving through a corrupt snapshot instead of failing.
    ++io->quarantined_reads;
  }
  ++io->data_reads;  // One page fetch to binary-search the run.
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, uint64_t k) { return e.key < k; });
  if (it != entries_.end() && it->key == key) return *it;
  ++io->false_probes;  // The filter (or key-range check) lied.
  return std::nullopt;
}

void SortedRun::Scan(uint64_t lo, uint64_t hi, std::vector<Entry>* out,
                     IoStats* io) const {
  if (lo > hi || entries_.empty() || hi < min_key() || lo > max_key()) {
    return;  // An empty interval, or one outside this run: no I/O.
  }
  ++io->runs_consulted;
  if (range_filter_ != nullptr) {
    ++io->filter_probes;
    if (!range_filter_->MayContainRange(lo, hi)) return;
  } else if (range_quarantined_) {
    ++io->quarantined_reads;
  }
  const auto begin = std::lower_bound(
      entries_.begin(), entries_.end(), lo,
      [](const Entry& e, uint64_t k) { return e.key < k; });
  const auto end = std::upper_bound(
      entries_.begin(), entries_.end(), hi,
      [](uint64_t k, const Entry& e) { return k < e.key; });
  const uint64_t matched = static_cast<uint64_t>(end - begin);
  // The seek costs one page; each further page of results costs another.
  io->data_reads += 1 + matched / kEntriesPerPage;
  if (matched == 0) ++io->false_probes;
  out->insert(out->end(), begin, end);
}

bool SortedRun::SaveData(std::ostream& os) const {
  std::ostringstream payload;
  WriteU64(payload, entries_.size());
  for (const Entry& e : entries_) {
    WriteU64(payload, e.key);
    WriteU64(payload, e.value);
    WriteU64(payload, e.tombstone ? 1 : 0);
  }
  return WriteSnapshotFrame(os, kRunDataTag, std::move(payload).str());
}

bool SortedRun::LoadData(std::istream& is, std::vector<Entry>* out) {
  out->clear();
  std::string tag;
  std::string payload;
  if (!ReadSnapshotFrame(is, &tag, &payload) || tag != kRunDataTag) {
    return false;
  }
  std::istringstream ps(payload);
  uint64_t count;
  if (!ReadU64Capped(ps, &count, kMaxSnapshotElements)) return false;
  std::vector<Entry> entries;
  entries.reserve(std::min<uint64_t>(count, 1u << 20));
  for (uint64_t i = 0; i < count; ++i) {
    Entry e;
    uint64_t tombstone;
    if (!ReadU64(ps, &e.key) || !ReadU64(ps, &e.value) ||
        !ReadU64Capped(ps, &tombstone, 1)) {
      return false;
    }
    e.tombstone = tombstone != 0;
    // Runs are sorted with one version per key; anything else is
    // corruption the checksum happened to miss.
    if (!entries.empty() && entries.back().key >= e.key) return false;
    entries.push_back(e);
  }
  ps.peek();
  if (!ps.eof()) return false;
  *out = std::move(entries);
  return true;
}

size_t SortedRun::FilterBits() const {
  size_t bits = 0;
  if (point_filter_ != nullptr) bits += point_filter_->SpaceBits();
  if (range_filter_ != nullptr) bits += range_filter_->SpaceBits();
  return bits;
}

}  // namespace bbf::lsm
