#include "staticf/bloomier_filter.h"

#include <unordered_set>

#include "staticf/peeling.h"
#include "util/bits.h"

namespace bbf {

BloomierFilter::BloomierFilter(
    const std::vector<std::pair<uint64_t, uint64_t>>& entries,
    int value_bits) {
  // Hash-once boundary: mix each raw key here; the peeler and every
  // probe work on canonical values. Two copies of one key share all three
  // slots, so the peeler could never free either: keep the first copy.
  std::vector<uint64_t> keys;
  keys.reserve(entries.size());
  std::unordered_set<uint64_t> seen;
  for (const auto& [k, v] : entries) {
    const uint64_t key = HashedKey(k).value();
    if (seen.insert(key).second) keys.push_back(key);
  }
  num_keys_ = keys.size();

  const uint32_t capacity = XorPeeler::CapacityFor(keys.size());
  segment_len_ = capacity / 3;
  tau_table_ = CompactVector(capacity, 2);
  value_table_ = CompactVector(capacity, value_bits);

  std::vector<PeelEntry> order;
  for (seed_ = 1;; ++seed_) {
    if (XorPeeler::Peel(keys, capacity, seed_, &order)) break;
  }
  // Reverse peel order: encode each key's owned-slot index tau such that
  // tau(key) = T[h0] ^ T[h1] ^ T[h2].
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    uint32_t s[3];
    XorPeeler::Slots(it->key, segment_len_, seed_, s);
    uint64_t tau = 0;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < 3; ++i) {
      if (s[i] == it->slot) {
        tau = i;
      } else {
        acc ^= tau_table_.Get(s[i]);
      }
    }
    tau_table_.Set(it->slot, tau ^ acc);
  }
  // Owned slots form a perfect matching: write values directly, in entry
  // order, so a repeated key keeps its last value.
  for (const auto& [k, v] : entries) {
    value_table_.Set(OwnedSlot(HashedKey(k)), v & LowMask(value_bits));
  }
}

uint32_t BloomierFilter::OwnedSlot(HashedKey key) const {
  uint32_t s[3];
  XorPeeler::Slots(key.value(), segment_len_, seed_, s);
  uint64_t tau =
      tau_table_.Get(s[0]) ^ tau_table_.Get(s[1]) ^ tau_table_.Get(s[2]);
  if (tau > 2) tau = 0;  // Non-key garbage; clamp to a valid slot.
  return s[tau];
}

uint64_t BloomierFilter::Get(HashedKey key) const {
  return value_table_.Get(OwnedSlot(key));
}

void BloomierFilter::Update(HashedKey key, uint64_t new_value) {
  value_table_.Set(OwnedSlot(key),
                   new_value & LowMask(value_table_.width()));
}

}  // namespace bbf
