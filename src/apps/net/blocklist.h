#ifndef BBF_APPS_NET_BLOCKLIST_H_
#define BBF_APPS_NET_BLOCKLIST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "adaptive/adaptive_quotient_filter.h"
#include "bloom/bloom_filter.h"
#include "util/compact_vector.h"

namespace bbf::net {

/// Malicious-URL blocking (§3.3): a router stores the malicious URLs as
/// the *yes list* of a filter; false positives send benign traffic through
/// an expensive verification path. The yes/no-list problem asks for a
/// filter that never blocks a designated *no list* of important benign
/// URLs.
///
/// Abstract interface over the three solutions the paper discusses.
class Blocklist {
 public:
  virtual ~Blocklist() = default;

  /// True if the URL should be blocked (sent to verification).
  virtual bool IsBlocked(std::string_view url) const = 0;

  /// Reports that a *benign* URL was wrongly blocked. Adaptive
  /// implementations restructure so the same URL passes next time;
  /// static ones ignore it and return false.
  virtual bool ReportFalseBlock(std::string_view /*url*/) { return false; }

  virtual size_t SpaceBits() const = 0;
  virtual std::string_view Name() const = 0;
};

/// Baseline: a plain Bloom filter of the malicious URLs. Every benign URL
/// keeps paying the FPR forever.
std::unique_ptr<Blocklist> MakeBloomBlocklist(
    const std::vector<std::string>& malicious, double bits_per_key);

/// Static yes/no list via the Integrated-Filter idea [Reviriego et al.;
/// Chazelle et al.]: an XOR/Bloomier table over yes ∪ no keys where no-list
/// keys are written with a deliberately mismatched fingerprint, so they are
/// *guaranteed* to pass while unknown URLs see the usual 2^-f FPR. A URL
/// given twice counts once, and a URL on both lists is blocked: the yes
/// list wins.
std::unique_ptr<Blocklist> MakeIntegratedBlocklist(
    const std::vector<std::string>& malicious,
    const std::vector<std::string>& benign_no_list, int fingerprint_bits);

/// Dynamic yes/no list via an adaptive filter [Wen et al. 2025]: benign
/// URLs join the no list the first time they are wrongly blocked, and
/// adaptation guarantees they are never blocked again.
std::unique_ptr<Blocklist> MakeAdaptiveBlocklist(
    const std::vector<std::string>& malicious, double fpr);

}  // namespace bbf::net

#endif  // BBF_APPS_NET_BLOCKLIST_H_
