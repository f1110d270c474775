#ifndef BBF_EXPANDABLE_RING_FILTER_H_
#define BBF_EXPANDABLE_RING_FILTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "core/filter.h"

namespace bbf {

/// Elastic hash-ring filter (§2.2: "a few recent filters conceptually
/// form a hash ring of buckets to support elastic expansion" — the
/// Consistent Cuckoo / Elastic Bloom line [65, 97, 99]).
///
/// Keys hash to a fixed universe of tiny fingerprint buckets; a ring maps
/// contiguous bucket arcs to *segments* (the elastic unit — a node or a
/// memory chunk). When a segment reaches its resident budget it splits:
/// a new segment is mounted at the arc's midpoint and the upper half of
/// the buckets migrate wholesale — fingerprints never change, so there is
/// no fingerprint-bit erosion, and growth is unbounded.
///
/// The paper's criticism is reproduced measurably: every operation first
/// locates the owning segment, so "queries, deletes, and insertions all
/// become logarithmic" — ring_searches() exposes the cost.
class RingFilter : public Filter {
 public:
  /// r-bit fingerprints; each segment holds at most `segment_capacity`
  /// resident fingerprints before it splits.
  RingFilter(int r_bits, uint64_t segment_capacity = 4096,
             uint64_t hash_seed = 0x216);

  using Filter::Contains;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  bool Erase(HashedKey key) override;
  size_t SpaceBits() const override;
  uint64_t NumKeys() const override { return num_keys_; }
  /// Mean residents per segment budget; splits keep this below 1.0, so a
  /// ring filter saturates only transiently.
  double LoadFactor() const override {
    return ring_.empty() ? 0.0
                         : static_cast<double>(num_keys_) /
                               (ring_.size() * segment_capacity_);
  }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "ring"; }

  size_t num_segments() const { return ring_.size(); }
  /// Ordered-map segment lookups so far — the logarithmic-cost proxy.
  uint64_t ring_searches() const {
    return ring_searches_.n.load(std::memory_order_relaxed);
  }

  static constexpr int kBucketBits = 22;  // 4M-bucket fixed universe.

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override;

 private:
  struct Segment {
    // Buckets of this arc, ordered by bucket id so splits are range
    // moves. Each bucket is a tiny fingerprint list.
    std::map<uint32_t, std::vector<uint16_t>> buckets;
    uint64_t residents = 0;
  };

  void Locate(HashedKey key, uint32_t* bucket, uint16_t* fp) const;
  Segment& SegmentOf(uint32_t bucket);
  const Segment& SegmentOf(uint32_t bucket) const;
  void MaybeSplit(uint32_t mount);

  int r_bits_;
  uint64_t segment_capacity_;
  uint64_t hash_seed_;
  std::map<uint32_t, Segment> ring_;  // Mount bucket-id -> segment.
  uint64_t num_keys_ = 0;
  // Atomic so concurrent readers (Contains is const and lock-free under
  // ShardedFilter's shared lock) can bump the stat without a data race.
  // It counts searches, not state: a move (a load's commit) restarts it.
  struct SearchCounter {
    std::atomic<uint64_t> n{0};
    SearchCounter() = default;
    SearchCounter(SearchCounter&&) noexcept {}
    SearchCounter& operator=(SearchCounter&&) noexcept {
      n = 0;
      return *this;
    }
  };
  mutable SearchCounter ring_searches_;
};

}  // namespace bbf

#endif  // BBF_EXPANDABLE_RING_FILTER_H_
