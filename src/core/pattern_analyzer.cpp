#include "core/pattern_analyzer.h"

#include <algorithm>

namespace lunule::core {

MigrationIndex compute_mindex(const balancer::Candidate& c) {
  MigrationIndex mi;
  const auto ops = static_cast<double>(c.windows.visits);
  const auto file_visits = static_cast<double>(c.windows.file_visits);
  const auto first = static_cast<double>(c.windows.first_visits);
  const auto recurrent = static_cast<double>(c.windows.recurrent);

  // alpha / beta are fractions over *logical* file visits (the first op on
  // a file per epoch): the several metadata ops composing one file access
  // carry no locality information of their own.
  if (file_visits > 0.0) {
    mi.alpha = recurrent / file_visits;
    mi.beta = first / file_visits;
  } else {
    // Cold subtree: no recent visits.  If unvisited inodes remain, the
    // subtree is a pure spatial-locality candidate (it may be scanned
    // next); if everything has been visited already, both factors are 0
    // and so is the migration index.
    mi.alpha = 0.0;
    mi.beta = c.unvisited > 0 ? 1.0 : 0.0;
  }

  // Metadata ops per logical visit: converts file-granularity predictions
  // back into the op units the load model works in.
  const double ops_per_visit =
      file_visits > 0.0 ? ops / file_visits : 1.0;

  mi.l_t = ops;
  // Predicted spatial visits decompose into (a) first *reads*, which
  // cannot exceed the inodes still unvisited — a directory the scan has
  // fully consumed has no spatial future however many first visits it
  // produced recently — and (b) *creates*, which mint new inodes and
  // therefore predict future load without that bound (MDtest-style
  // write-only streams keep creating).
  const auto creates = static_cast<double>(c.windows.creates);
  const double first_reads = std::max(0.0, first - creates);
  const double spatial_files =
      std::min(first_reads + c.windows.sibling_credit,
               static_cast<double>(c.unvisited)) +
      creates;
  mi.l_s = spatial_files * ops_per_visit;
  mi.mindex = mi.alpha * mi.l_t + mi.beta * mi.l_s;
  return mi;
}

}  // namespace lunule::core
