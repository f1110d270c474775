#include "bloom/scalable_bloom.h"

#include "core/metrics_sink.h"
#include "util/serialize.h"

namespace bbf {

ScalableBloomFilter::ScalableBloomFilter(uint64_t initial_capacity,
                                         double target_fpr, double growth,
                                         double tightening)
    : target_fpr_(target_fpr),
      growth_(growth),
      tightening_(tightening),
      next_capacity_(initial_capacity),
      // First stage gets fpr0 = target * (1 - r) so the geometric series
      // sums to the target.
      next_fpr_(target_fpr * (1.0 - tightening)) {
  AddStage();
}

void ScalableBloomFilter::AddStage() {
  // The constructor's first stage is initial sizing, not an expansion.
  if (sink_ != nullptr && !stages_.empty()) sink_->OnExpansion();
  Stage stage;
  stage.capacity = next_capacity_;
  stage.filter = std::make_unique<BloomFilter>(BloomFilter::ForFpr(
      next_capacity_, next_fpr_, /*hash_seed=*/0x5CA1 + stages_.size()));
  stages_.push_back(std::move(stage));
  next_capacity_ = static_cast<uint64_t>(next_capacity_ * growth_);
  next_fpr_ *= tightening_;
}

bool ScalableBloomFilter::Insert(HashedKey key) {
  Stage& last = stages_.back();
  if (last.used >= last.capacity) AddStage();
  Stage& target = stages_.back();
  target.filter->Insert(key);
  ++target.used;
  ++num_keys_;
  return true;
}

bool ScalableBloomFilter::Contains(HashedKey key) const {
  for (const Stage& s : stages_) {
    if (s.filter->Contains(key)) return true;
  }
  return false;
}

size_t ScalableBloomFilter::SpaceBits() const {
  size_t bits = 0;
  for (const Stage& s : stages_) bits += s.filter->SpaceBits();
  return bits;
}

bool ScalableBloomFilter::SavePayload(std::ostream& os) const {
  WriteDouble(os, target_fpr_);
  WriteDouble(os, growth_);
  WriteDouble(os, tightening_);
  WriteU64(os, next_capacity_);
  WriteDouble(os, next_fpr_);
  WriteU64(os, num_keys_);
  WriteU64(os, stages_.size());
  for (const Stage& s : stages_) {
    WriteU64(os, s.capacity);
    WriteU64(os, s.used);
    if (!s.filter->SavePayload(os)) return false;
  }
  return os.good();
}

bool ScalableBloomFilter::LoadPayload(std::istream& is) {
  // A corrupt chain could claim absurd stage counts or non-finite growth
  // parameters; both are rejected before any stage is parsed. 64 stages
  // at the minimum growth factor already covers > 2^64 keys.
  constexpr uint64_t kMaxStages = 64;
  ScalableBloomFilter fresh(1, 0.5);
  uint64_t num_stages;
  if (!ReadDouble(is, &fresh.target_fpr_) || !ReadDouble(is, &fresh.growth_) ||
      !ReadDouble(is, &fresh.tightening_) ||
      !ReadU64Capped(is, &fresh.next_capacity_, kMaxSnapshotElements) ||
      !ReadDouble(is, &fresh.next_fpr_) || !ReadU64(is, &fresh.num_keys_) ||
      !ReadU64Capped(is, &num_stages, kMaxStages) || num_stages == 0) {
    return false;
  }
  // The comparisons also reject NaN and infinities.
  const auto fraction = [](double v) { return v > 0.0 && v < 1.0; };
  if (!fraction(fresh.target_fpr_) || !fraction(fresh.tightening_) ||
      !fraction(fresh.next_fpr_) ||
      !(fresh.growth_ >= 1.0 && fresh.growth_ <= 1024.0)) {
    return false;
  }
  fresh.stages_.clear();
  for (uint64_t i = 0; i < num_stages; ++i) {
    Stage& s = fresh.stages_.emplace_back();
    s.filter = std::make_unique<BloomFilter>(1, 8.0);
    if (!ReadU64Capped(is, &s.capacity, kMaxSnapshotElements) ||
        !ReadU64(is, &s.used) || !s.filter->LoadPayload(is)) {
      return false;
    }
  }
  return CommitLoaded(*this, std::move(fresh));
}

bool ScalableBloomFilter::CheckInvariants() const {
  // Every key was counted into one stage.
  uint64_t used = 0;
  for (const Stage& s : stages_) used += s.used;
  return num_keys_ == used;
}

}  // namespace bbf
