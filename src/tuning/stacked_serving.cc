#include "tuning/stacked_serving.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/hash.h"
#include "util/serialize.h"

namespace bbf::tuning {

namespace {
constexpr uint64_t kPayloadVersion = 1;
// A migrated shard's journal is already capped (2^22 ops by default); a
// length field past this in a snapshot is corruption.
constexpr uint64_t kMaxKeys = uint64_t{1} << 24;
}  // namespace

StackedServingFilter::StackedServingFilter(
    std::vector<uint64_t> positive_keys, std::vector<uint64_t> hot_negative_keys,
    uint64_t capacity, const Params& params)
    : positives_(std::move(positive_keys)),
      hot_negatives_(std::move(hot_negative_keys)),
      capacity_(std::max<uint64_t>(capacity, 1)),
      params_(params),
      overflow_(MakeOverflow(capacity_, params_)) {
  BuildFront();
}

StackedServingFilter::StackedServingFilter(uint64_t capacity)
    : capacity_(std::max<uint64_t>(capacity, 1)),
      overflow_(MakeOverflow(capacity_, params_)) {}

std::vector<uint64_t> StackedServingFilter::NetPositives(
    std::span<const FilterJournalOp> ops) {
  const std::unordered_map<uint64_t, int64_t> net = NetJournalCounts(ops);
  std::vector<uint64_t> keys;
  keys.reserve(net.size());
  for (const auto& [mix, count] : net) {
    if (count > 0) keys.push_back(InverseMix64(mix));
  }
  return keys;
}

void StackedServingFilter::BuildFront() {
  front_ = std::make_unique<StackedFilter>(
      positives_, hot_negatives_, params_.stacked_bits_per_key, params_.layers);
}

std::unique_ptr<ScalableBloomFilter> StackedServingFilter::MakeOverflow(
    uint64_t capacity, const Params& params) {
  // Sized small: the front already holds every key known at build time,
  // so the overflow only sees post-migration inserts.
  const uint64_t initial = std::max<uint64_t>(capacity / 8, 64);
  return std::make_unique<ScalableBloomFilter>(initial, params.fpr_budget);
}

bool StackedServingFilter::Insert(HashedKey key) {
  return overflow_->Insert(key);
}

bool StackedServingFilter::Contains(HashedKey key) const {
  if (front_ != nullptr && front_->Contains(key)) return true;
  return overflow_->Contains(key);
}

size_t StackedServingFilter::SpaceBits() const {
  const size_t retained = 64 * (positives_.size() + hot_negatives_.size());
  return (front_ ? front_->SpaceBits() : 0) + overflow_->SpaceBits() + retained;
}

uint64_t StackedServingFilter::NumKeys() const {
  return positives_.size() + overflow_->NumKeys();
}

bool StackedServingFilter::SavePayload(std::ostream& os) const {
  WriteU64(os, kPayloadVersion);
  WriteU64(os, capacity_);
  WriteDouble(os, params_.fpr_budget);
  WriteDouble(os, params_.stacked_bits_per_key);
  WriteI32(os, params_.layers);
  WriteU64(os, positives_.size());
  for (uint64_t k : positives_) WriteU64(os, k);
  WriteU64(os, hot_negatives_.size());
  for (uint64_t k : hot_negatives_) WriteU64(os, k);
  // The overflow rides along as its own self-describing frame, so its
  // family owns its format.
  return overflow_->Save(os) && os.good();
}

bool StackedServingFilter::LoadPayload(std::istream& is) {
  StackedServingFilter fresh(1);
  Params& params = fresh.params_;
  uint64_t version;
  if (!ReadU64(is, &version) || version != kPayloadVersion ||
      !ReadU64Capped(is, &fresh.capacity_, kMaxSnapshotElements) ||
      !ReadDouble(is, &params.fpr_budget) ||
      !ReadDouble(is, &params.stacked_bits_per_key) ||
      !ReadI32(is, &params.layers)) {
    return false;
  }
  if (params.fpr_budget <= 0.0 || params.fpr_budget >= 1.0 ||
      params.stacked_bits_per_key <= 0.0 ||
      params.stacked_bits_per_key > 64.0 || params.layers < 1 ||
      params.layers > 15) {
    return false;
  }
  fresh.capacity_ = std::max<uint64_t>(fresh.capacity_, 1);
  auto read_keys = [&is](std::vector<uint64_t>* out) {
    uint64_t n;
    if (!ReadU64Capped(is, &n, kMaxKeys)) return false;
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (!ReadU64(is, &out->emplace_back())) return false;
    }
    return true;
  };
  // The overflow rides along as its own frame; the front is rebuilt from
  // the keys.
  if (!read_keys(&fresh.positives_) || !read_keys(&fresh.hot_negatives_) ||
      !fresh.overflow_->Load(is)) {
    return false;
  }
  fresh.BuildFront();
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf::tuning
