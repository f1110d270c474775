#ifndef BBF_STATICF_BLOOMIER_FILTER_H_
#define BBF_STATICF_BLOOMIER_FILTER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/key.h"
#include "maplet/maplet.h"
#include "util/compact_vector.h"

namespace bbf {

/// Bloomier filter [Chazelle et al. 2004] (§2.4, §3.3): a *static maplet*.
/// Built over a fixed key set, it returns each key's value exactly
/// (PRS = 1) and an arbitrary value for non-keys (NRS = 1).
///
/// The mutable two-table construction: peeling assigns every key a private
/// slot; an XOR-encoded tau table (2 bits per slot) tells each key which
/// of its three hash slots it owns, and the values live in a direct-
/// indexed table at the owned slot. Because owned slots form a perfect
/// matching, values of existing keys can be updated in place without
/// disturbing any other key — but the key *set* is immutable, exactly the
/// "supports updates to values ... does not support insertions of new
/// data entries" contract in §2.4.
///
/// As a Maplet, Lookup returns the one stored value (PRS = NRS = 1), and
/// Insert and Erase fail: the key set is fixed at build time. There is no
/// snapshot payload, so Save reports failure.
class BloomierFilter final : public Maplet {
 public:
  /// Builds over (key, value) pairs; values are truncated to `value_bits`.
  /// A key given more than once keeps its last value, as a later Update
  /// would leave it.
  BloomierFilter(const std::vector<std::pair<uint64_t, uint64_t>>& entries,
                 int value_bits);

  /// The value for `key`: exact for built keys, arbitrary otherwise.
  uint64_t Get(HashedKey key) const;
  uint64_t Get(uint64_t key) const { return Get(HashedKey(key)); }

  /// Rewrites the value of an existing key in place. Calling this for a
  /// key outside the build set overwrites some unrelated slot — the
  /// classic Bloomier contract.
  void Update(HashedKey key, uint64_t new_value);
  void Update(uint64_t key, uint64_t new_value) {
    Update(HashedKey(key), new_value);
  }

  using Maplet::Erase;
  using Maplet::Insert;
  using Maplet::Lookup;

  bool Insert(HashedKey, uint64_t) override { return false; }
  std::vector<uint64_t> Lookup(HashedKey key) const override {
    return {Get(key)};
  }
  bool Erase(HashedKey, uint64_t) override { return false; }

  size_t SpaceBits() const override {
    return tau_table_.size() * tau_table_.width() +
           value_table_.size() * value_table_.width();
  }
  std::string_view Name() const override { return "bloomier"; }
  uint64_t NumKeys() const { return num_keys_; }
  int value_bits() const { return value_table_.width(); }

 private:
  /// The slot this key privately owns (exact for built keys).
  uint32_t OwnedSlot(HashedKey key) const;

  CompactVector tau_table_;    // 2-bit XOR-encoded owned-slot index.
  CompactVector value_table_;  // Direct-indexed values.
  uint32_t segment_len_ = 0;
  uint64_t seed_ = 0;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_STATICF_BLOOMIER_FILTER_H_
