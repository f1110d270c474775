#include "expandable/chained_filter.h"

#include <utility>

#include "core/metrics_sink.h"
#include "util/serialize.h"

namespace bbf {

ChainedQuotientFilter::ChainedQuotientFilter(int q_bits, int r_bits,
                                             uint64_t hash_seed)
    : r_bits_(r_bits), next_q_bits_(q_bits), hash_seed_(hash_seed) {
  links_.push_back(
      std::make_unique<QuotientFilter>(next_q_bits_, r_bits_, hash_seed_));
  ++next_q_bits_;
}

bool ChainedQuotientFilter::Insert(HashedKey key) {
  if (!links_.back()->Insert(key)) {
    links_.push_back(
        std::make_unique<QuotientFilter>(next_q_bits_, r_bits_, hash_seed_));
    ++next_q_bits_;
    if (sink_ != nullptr) sink_->OnExpansion();
    return links_.back()->Insert(key);
  }
  return true;
}

bool ChainedQuotientFilter::Contains(HashedKey key) const {
  for (const auto& link : links_) {
    if (link->Contains(key)) return true;
  }
  return false;
}

bool ChainedQuotientFilter::Erase(HashedKey key) {
  // Newest first: recently inserted keys are most likely there. The match
  // may be another key's entry, but every link fingerprints with the one
  // seed, so an older link's (q + r)-bit fingerprint is the low bits of
  // every newer link's: the erased key's own older entry stays behind and
  // still covers the key whose entry went.
  for (auto it = links_.rbegin(); it != links_.rend(); ++it) {
    if ((*it)->Erase(key)) return true;
  }
  return false;
}

uint64_t ChainedQuotientFilter::Count(HashedKey key) const {
  uint64_t count = 0;
  for (const auto& link : links_) count += link->Count(key);
  return count;
}

uint64_t ChainedQuotientFilter::NumKeys() const {
  uint64_t n = 0;
  for (const auto& link : links_) n += link->NumKeys();
  return n;
}

size_t ChainedQuotientFilter::SpaceBits() const {
  size_t bits = 0;
  for (const auto& link : links_) bits += link->SpaceBits();
  return bits;
}

bool ChainedQuotientFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, r_bits_);
  WriteI32(os, next_q_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, NumKeys());
  WriteU64(os, links_.size());
  for (const auto& link : links_) {
    if (!link->SavePayload(os)) return false;
  }
  return os.good();
}

bool ChainedQuotientFilter::LoadPayload(std::istream& is) {
  ChainedQuotientFilter fresh(1, 1);
  uint64_t n;
  uint64_t num_links;
  if (!ReadI32(is, &fresh.r_bits_) || fresh.r_bits_ < 1 ||
      fresh.r_bits_ > 64 || !ReadI32(is, &fresh.next_q_bits_) ||
      fresh.next_q_bits_ < 1 || fresh.next_q_bits_ > 38 ||
      !ReadU64(is, &fresh.hash_seed_) || !ReadU64(is, &n) ||
      !ReadU64Capped(is, &num_links, 64) || num_links == 0) {
    return false;
  }
  fresh.links_.clear();
  for (uint64_t i = 0; i < num_links; ++i) {
    // Each link's payload carries its own seed: chains saved when links
    // were seeded hash_seed + i load with those seeds.
    fresh.links_.push_back(std::make_unique<QuotientFilter>(1, 1));
    if (!fresh.links_.back()->LoadPayload(is)) return false;
  }
  // The frame's count is the sum of the links' checked counts.
  return n == fresh.NumKeys() && CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
