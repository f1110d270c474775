#include "maplet/maplet.h"

namespace bbf {

ResultSizes MeasureResultSizes(const Maplet& maplet,
                               const std::vector<uint64_t>& present,
                               const std::vector<uint64_t>& absent) {
  double prs = 0;
  for (uint64_t k : present) prs += maplet.Lookup(k).size();
  double nrs = 0;
  for (uint64_t k : absent) nrs += maplet.Lookup(k).size();
  return ResultSizes{present.empty() ? 0 : prs / present.size(),
                     absent.empty() ? 0 : nrs / absent.size()};
}

}  // namespace bbf
