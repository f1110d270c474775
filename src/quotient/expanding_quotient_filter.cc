#include "quotient/expanding_quotient_filter.h"

#include <utility>

#include "core/metrics_sink.h"
#include "util/serialize.h"

namespace bbf {

ExpandingQuotientFilter::ExpandingQuotientFilter(int q_bits, int r_bits,
                                                 uint64_t hash_seed)
    : filter_(q_bits, r_bits, hash_seed), hash_seed_(hash_seed) {}

bool ExpandingQuotientFilter::Insert(HashedKey key) {
  if (filter_.Insert(key)) return true;
  // Double the table; fingerprint bits run out at one-bit remainders (§2.2).
  if (!filter_.DoubleTable()) return false;
  ++expansions_;
  if (sink_ != nullptr) sink_->OnExpansion();
  return filter_.Insert(key);
}

bool ExpandingQuotientFilter::Erase(HashedKey key) {
  return filter_.Erase(key);
}

bool ExpandingQuotientFilter::SavePayload(std::ostream& os) const {
  WriteU64(os, hash_seed_);
  WriteI32(os, expansions_);
  return filter_.SavePayload(os) && os.good();
}

bool ExpandingQuotientFilter::LoadPayload(std::istream& is) {
  ExpandingQuotientFilter fresh(1, 1);
  if (!ReadU64(is, &fresh.hash_seed_) || !ReadI32(is, &fresh.expansions_) ||
      fresh.expansions_ < 0 || fresh.expansions_ > 64 ||
      !fresh.filter_.LoadPayload(is)) {
    return false;
  }
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
