// Epoch-boundary conservation checks over the whole stats substrate.
//
// The paper's headline numbers (Imbalance Factor, Section 3.4 overhead
// table, per-MDS IOPS series) are all derived from the accounting this
// checker audits, so a silent bookkeeping bug corrupts every figure the
// repo reproduces.  The checker runs at epoch close — after load sampling,
// before the balancer reacts — and verifies:
//
//   1. Load conservation: the sampled per-MDS loads are exactly the
//      servers' last-epoch loads, and their sum times the epoch length
//      equals the operations actually served since the previous check.
//   2. Unused.  The flight recorder's counters are reads of the totals
//      the other sections audit (obs/counter_registry.h), so there is no
//      copy to compare; the numbering stays because the docs cite it.
//   3. Authority partition: every directory and dirfrag resolves to a
//      valid MDS rank, per-frag file counts tile each directory exactly,
//      and billing every inode to its resolved authority covers the
//      namespace exactly once.
//   4. Migration-engine sanity: tasks have positive inode counts, distinct
//      endpoints in range, bounded progress, and per-exporter active counts
//      within the configured in-flight limit.
//   5. Journal coherence: the newest retained ESubtreeMap checkpoint of
//      every alive rank matches what the rank actually owns.
//   6. Hot-path caches: the flat resolved-authority cache agrees with the
//      pin-chain oracle for every directory, no fragment's statistics run
//      ahead of the statistics clock, and every fragment outside the access
//      recorder's active set is fully drained once rolled forward — i.e.
//      the lazy epoch close never expired a directory that still carried
//      signal.
//   7. Elasticity: ranks outside the serving set own/serve/carry nothing,
//      and a draining rank is up.
//   8. Proxy cache-tier coherence (when a tier is installed): no live
//      lease that a completed invalidation — mutation, split, migration,
//      crash, drain — should have revoked, TTLs bounded, and the tier's
//      lifetime totals obey the lease algebra (see docs/CACHING.md).
//   9. Async journal mode (journal.async_mode only): the acknowledged-but-
//      not-yet-durable window stays bounded (un-flushed EUpdate count at or
//      under max_unflushed_entries — the documented loss window), every
//      retained entry's dependency strictly precedes it and every durable
//      entry's dependency is itself durable (prefix consistency; what
//      replay.cpp audits after a crash must already hold before one), and
//      a rank never acknowledges more entries than it appended.
//
// Violations are returned as human-readable strings rather than aborted on,
// so tests can assert that a deliberately corrupted cluster is flagged; the
// simulation loop turns a non-empty result into a fatal LUNULE_CHECK.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "mds/cluster.h"

namespace lunule::obs {

class InvariantChecker {
 public:
  /// Audits one just-closed epoch.  Returns the violated invariants
  /// (empty = all hold).  Stateful: load conservation is checked against
  /// the served-operation total seen at the previous call, so use one
  /// checker instance per cluster for the whole run.
  [[nodiscard]] std::vector<std::string> check_epoch(
      const mds::MdsCluster& cluster, std::span<const Load> loads);

  [[nodiscard]] std::uint64_t epochs_checked() const {
    return epochs_checked_;
  }

 private:
  std::uint64_t last_served_total_ = 0;
  std::uint64_t epochs_checked_ = 0;
  /// Per-rank up/down state at the previous check: a rank that went down
  /// mid-epoch (crash) legitimately closes that epoch with the load it
  /// served before dying, so zero-load is only demanded of ranks that
  /// were already down when the previous epoch closed.
  std::vector<bool> was_down_;
};

}  // namespace lunule::obs
