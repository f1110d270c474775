#include "bloom/counting_bloom.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {
namespace {

int OptimalNumHashes(double bits_per_key, int counter_bits) {
  // bits_per_key budgets total space; the counter array has
  // bits_per_key / counter_bits counters per key.
  const double counters_per_key = bits_per_key / counter_bits;
  return std::max(1, static_cast<int>(std::lround(counters_per_key * std::numbers::ln2)));
}

uint64_t NumCounters(uint64_t expected_keys, double bits_per_key,
                     int counter_bits) {
  return std::max<uint64_t>(
      64, static_cast<uint64_t>(expected_keys * bits_per_key / counter_bits));
}

}  // namespace

CountingBloomFilter::CountingBloomFilter(uint64_t expected_keys,
                                         double bits_per_key, int counter_bits,
                                         int num_hashes)
    : counters_(NumCounters(expected_keys, bits_per_key, counter_bits),
                counter_bits),
      num_hashes_(num_hashes > 0
                      ? num_hashes
                      : OptimalNumHashes(bits_per_key, counter_bits)) {}

uint64_t CountingBloomFilter::CounterIndex(HashedKey key, int i) const {
  const uint64_t h1 = key.Derive(0x81);
  const uint64_t h2 = key.Derive(0x82) | 1;
  return FastRange64(h1 + static_cast<uint64_t>(i) * h2, counters_.size());
}

bool CountingBloomFilter::Insert(HashedKey key) {
  const uint64_t max = LowMask(counters_.width());
  for (int i = 0; i < num_hashes_; ++i) {
    const uint64_t idx = CounterIndex(key, i);
    const uint64_t c = counters_.Get(idx);
    if (c < max) {
      counters_.Set(idx, c + 1);
      if (c + 1 == max) ++saturated_;
    }
  }
  ++num_keys_;
  return true;
}

bool CountingBloomFilter::Erase(HashedKey key) {
  if (Count(key) == 0) return false;
  const uint64_t max = LowMask(counters_.width());
  for (int i = 0; i < num_hashes_; ++i) {
    const uint64_t idx = CounterIndex(key, i);
    const uint64_t c = counters_.Get(idx);
    // Saturated counters are sticky: decrementing one could create a false
    // negative for some other key that pushed it past the maximum.
    if (c > 0 && c < max) counters_.Set(idx, c - 1);
  }
  --num_keys_;
  return true;
}

uint64_t CountingBloomFilter::Count(HashedKey key) const {
  uint64_t min_count = ~uint64_t{0};
  for (int i = 0; i < num_hashes_; ++i) {
    min_count = std::min(min_count, counters_.Get(CounterIndex(key, i)));
  }
  return min_count;
}

CountingBloomFilter CountingBloomFilter::RebuiltWithWiderCounters() const {
  const double bits_per_key =
      NumKeys() == 0
          ? 8.0
          : static_cast<double>(counters_.size()) * counters_.width() * 2 /
                NumKeys();
  CountingBloomFilter wider(std::max<uint64_t>(NumKeys(), 1), bits_per_key,
                            counters_.width() * 2, num_hashes_);
  return wider;
}

SpectralBloomFilter::SpectralBloomFilter(uint64_t expected_keys,
                                         double bits_per_key, int counter_bits,
                                         int num_hashes)
    : counters_(NumCounters(expected_keys, bits_per_key, counter_bits),
                counter_bits),
      num_hashes_(num_hashes > 0
                      ? num_hashes
                      : OptimalNumHashes(bits_per_key, counter_bits)) {}

uint64_t SpectralBloomFilter::CounterIndex(HashedKey key, int i) const {
  const uint64_t h1 = key.Derive(0x83);
  const uint64_t h2 = key.Derive(0x84) | 1;
  return FastRange64(h1 + static_cast<uint64_t>(i) * h2, counters_.size());
}

bool SpectralBloomFilter::Insert(HashedKey key) {
  // Minimum increase: only bump the counters that hold the current minimum.
  uint64_t min_count = ~uint64_t{0};
  for (int i = 0; i < num_hashes_; ++i) {
    min_count = std::min(min_count, counters_.Get(CounterIndex(key, i)));
  }
  const uint64_t max = LowMask(counters_.width());
  for (int i = 0; i < num_hashes_; ++i) {
    const uint64_t idx = CounterIndex(key, i);
    const uint64_t c = counters_.Get(idx);
    if (c == min_count && c < max) counters_.Set(idx, c + 1);
  }
  ++num_keys_;
  return true;
}

uint64_t SpectralBloomFilter::Count(HashedKey key) const {
  uint64_t min_count = ~uint64_t{0};
  for (int i = 0; i < num_hashes_; ++i) {
    min_count = std::min(min_count, counters_.Get(CounterIndex(key, i)));
  }
  return min_count;
}

namespace {

// Shared payload shape of the two counter-array filters.
bool SaveCounterArray(std::ostream& os, const CompactVector& counters,
                      int num_hashes, uint64_t num_keys, uint64_t extra) {
  WriteI32(os, num_hashes);
  WriteU64(os, num_keys);
  WriteU64(os, extra);
  counters.Save(os);
  return os.good();
}

// Reads the shared payload into a fresh filter's fields.
bool ParseCounterArray(std::istream& is, CompactVector* counters,
                      int* num_hashes, uint64_t* num_keys, uint64_t* extra) {
  return ReadI32(is, num_hashes) && *num_hashes >= 1 && *num_hashes <= 64 &&
         ReadU64(is, num_keys) && ReadU64(is, extra) && counters->Load(is) &&
         counters->size() != 0 && counters->width() >= 1;
}

}  // namespace

bool CountingBloomFilter::SavePayload(std::ostream& os) const {
  return SaveCounterArray(os, counters_, num_hashes_, num_keys_, saturated_);
}

bool CountingBloomFilter::LoadPayload(std::istream& is) {
  CountingBloomFilter fresh(1, 1.0);
  return ParseCounterArray(is, &fresh.counters_, &fresh.num_hashes_,
                          &fresh.num_keys_, &fresh.saturated_) &&
         CommitLoaded(*this, std::move(fresh));
}

bool SpectralBloomFilter::SavePayload(std::ostream& os) const {
  return SaveCounterArray(os, counters_, num_hashes_, num_keys_, 0);
}

bool SpectralBloomFilter::LoadPayload(std::istream& is) {
  SpectralBloomFilter fresh(1, 1.0);
  uint64_t unused;
  return ParseCounterArray(is, &fresh.counters_, &fresh.num_hashes_,
                          &fresh.num_keys_, &unused) &&
         CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
