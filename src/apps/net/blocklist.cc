#include "apps/net/blocklist.h"

#include <utility>

#include "core/key.h"
#include "staticf/peeling.h"
#include "util/bits.h"

namespace bbf::net {
namespace {

// Hash-once boundary for the app layer: each URL is hashed exactly once
// into a canonical HashedKey; every filter probe below derives from it.
HashedKey UrlKey(std::string_view url) { return HashedKey(url); }

class BloomBlocklist : public Blocklist {
 public:
  BloomBlocklist(const std::vector<std::string>& malicious,
                 double bits_per_key)
      : filter_(std::max<uint64_t>(malicious.size(), 1), bits_per_key) {
    for (const auto& url : malicious) filter_.Insert(UrlKey(url));
  }

  bool IsBlocked(std::string_view url) const override {
    return filter_.Contains(UrlKey(url));
  }
  size_t SpaceBits() const override { return filter_.SpaceBits(); }
  std::string_view Name() const override { return "bloom"; }

 private:
  BloomFilter filter_;
};

/// XOR table over yes ∪ no keys. Yes keys satisfy
/// T[h0]^T[h1]^T[h2] == fp(key); no keys are written with fp(key)^1, so
/// they can never be blocked (a false-positive-free set).
class IntegratedBlocklist : public Blocklist {
 public:
  IntegratedBlocklist(const std::vector<std::string>& malicious,
                      const std::vector<std::string>& benign_no_list,
                      int fingerprint_bits)
      : fingerprint_bits_(fingerprint_bits) {
    // Two copies of one key share all three slots, so the peeler could
    // never free either: each key enters once, and a URL on both lists
    // stays a yes key.
    std::vector<uint64_t> keys;
    std::unordered_set<uint64_t> yes_keys;
    std::unordered_set<uint64_t> no_keys;
    for (const auto& url : malicious) {
      const uint64_t k = UrlKey(url).value();
      if (yes_keys.insert(k).second) keys.push_back(k);
    }
    for (const auto& url : benign_no_list) {
      const uint64_t k = UrlKey(url).value();
      if (!yes_keys.contains(k) && no_keys.insert(k).second) keys.push_back(k);
    }
    const uint32_t capacity = XorPeeler::CapacityFor(keys.size());
    segment_len_ = capacity / 3;
    table_ = CompactVector(capacity, fingerprint_bits_);
    std::vector<PeelEntry> order;
    for (seed_ = 1;; ++seed_) {
      if (XorPeeler::Peel(keys, capacity, seed_, &order)) break;
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      uint32_t s[3];
      XorPeeler::Slots(it->key, segment_len_, seed_, s);
      uint64_t v = Fingerprint(HashedKey::FromMix(it->key));
      if (no_keys.contains(it->key)) v ^= 1;  // Deliberate mismatch.
      for (int i = 0; i < 3; ++i) {
        if (s[i] != it->slot) v ^= table_.Get(s[i]);
      }
      table_.Set(it->slot, v);
    }
  }

  bool IsBlocked(std::string_view url) const override {
    const HashedKey key = UrlKey(url);
    uint32_t s[3];
    XorPeeler::Slots(key.value(), segment_len_, seed_, s);
    const uint64_t v =
        table_.Get(s[0]) ^ table_.Get(s[1]) ^ table_.Get(s[2]);
    return v == Fingerprint(key);
  }
  size_t SpaceBits() const override {
    return table_.size() * table_.width();
  }
  std::string_view Name() const override { return "integrated"; }

 private:
  uint64_t Fingerprint(HashedKey key) const {
    return key.Derive(seed_ + 0x1F) & LowMask(fingerprint_bits_);
  }

  int fingerprint_bits_;
  uint32_t segment_len_ = 0;
  uint64_t seed_ = 0;
  CompactVector table_;
};

class AdaptiveBlocklist : public Blocklist {
 public:
  AdaptiveBlocklist(const std::vector<std::string>& malicious, double fpr)
      : filter_(AdaptiveQuotientFilter::ForCapacity(
            std::max<uint64_t>(malicious.size(), 1), fpr)) {
    for (const auto& url : malicious) filter_.Insert(UrlKey(url));
  }

  bool IsBlocked(std::string_view url) const override {
    return filter_.Contains(UrlKey(url));
  }
  bool ReportFalseBlock(std::string_view url) override {
    return filter_.ReportFalsePositive(UrlKey(url));
  }
  size_t SpaceBits() const override { return filter_.SpaceBits(); }
  std::string_view Name() const override { return "adaptive"; }

 private:
  AdaptiveQuotientFilter filter_;
};

}  // namespace

std::unique_ptr<Blocklist> MakeBloomBlocklist(
    const std::vector<std::string>& malicious, double bits_per_key) {
  return std::make_unique<BloomBlocklist>(malicious, bits_per_key);
}

std::unique_ptr<Blocklist> MakeIntegratedBlocklist(
    const std::vector<std::string>& malicious,
    const std::vector<std::string>& benign_no_list, int fingerprint_bits) {
  return std::make_unique<IntegratedBlocklist>(malicious, benign_no_list,
                                               fingerprint_bits);
}

std::unique_ptr<Blocklist> MakeAdaptiveBlocklist(
    const std::vector<std::string>& malicious, double fpr) {
  return std::make_unique<AdaptiveBlocklist>(malicious, fpr);
}

}  // namespace bbf::net
