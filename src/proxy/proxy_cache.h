// Hotspot-absorbing proxy metadata cache tier (MIDAS direction).
//
// Lunule's own evaluation is weakest on read-hotspot mixes: rebalancing
// cannot help when one directory absorbs most of the traffic, because the
// hot subtree is indivisible.  The proxy tier attacks the problem from the
// other side: directories the adaptive policy identifies as flash crowds
// are *promoted* into the tier, and repeated metadata reads of a promoted
// directory are served from the proxy's cached entries under a
// bounded-TTL lease instead of reaching the MDS at all.
//
// Coherence is lease-based and strictly conservative:
//   * A lease is granted (or renewed) by the first MDS-served read of a
//     promoted directory and is valid while `now < grant + lease_ticks`.
//     The grant snapshots the directory's authority rank, file count, and
//     fragmentation level.
//   * Every event that could make cached entries stale revokes the lease
//     at the exact point the cluster applies it: a mutation in the
//     directory, a dirfrag split, a migration commit changing its
//     authority, a crash of the granting rank, or a scale-down drain
//     (a draining rank also stops granting until the drain ends).
//   * Expiry is passive: the first absorb attempt at or past the deadline
//     falls through to the MDS (which re-grants).  `now == grant +
//     lease_ticks` is already expired, so a lease spanning an epoch
//     boundary dies on the boundary tick, never one tick later.
//
// Absorbed reads complete the client operation without touching MDS
// budgets, the served-op tallies, or the access recorder — the MDS
// genuinely never saw them.  Total completed client ops are conserved:
// off.total_served == on.total_served + on.reads_absorbed when both runs
// finish (a proptest oracle pins this).
//
// The promotion policy runs at epoch close on the access recorder's
// deterministic top-k hot-directory query and composes with hot-dirfrag
// replication: a promoted directory that is also replicated serves
// lease-miss reads through the least-loaded replica holder as before.
//
// Everything is off by default: without a tier installed (proxy.enabled =
// false) no hook fires, the counter dump carries no proxy.* name, and every
// trace is byte-identical to the pre-proxy behavior (pinned by a tier1
// test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mds/cache_tier.h"

namespace lunule::fs {
class NamespaceTree;
}

namespace lunule::proxy {

struct ProxyParams {
  /// Master switch; false = no tier is constructed at all.
  bool enabled = false;
  /// Lease TTL in ticks; a lease granted at tick g serves absorbs for
  /// ticks [g+1, g+lease_ticks) and is expired at g+lease_ticks exactly.
  Tick lease_ticks = 20;
  /// Last-epoch MDS-served rate (IOPS) above which a hot directory is
  /// promoted into the tier.
  double promote_threshold_iops = 500.0;
  /// Combined rate (MDS-served + absorbed, IOPS) below which a promoted
  /// directory is demoted; 0 means promote_threshold_iops / 8.
  double demote_threshold_iops = 0.0;
  /// Capacity of the tier in directories (top-k of the promotion query).
  std::size_t max_promoted = 8;
};

/// Why a lease was recalled (the `n1` payload of lease_recall events).
enum class RecallReason : std::uint8_t {
  kMutation = 0,   // create landed in the leased directory
  kSplit = 1,      // dirfrag split changed the fragmentation level
  kMigration = 2,  // migration commit moved its authority
  kCrash = 3,      // the granting rank went down
  kDrain = 4,      // the granting rank began a scale-down drain
  kDemotion = 5,   // the policy demoted the directory on cool-down
};

class ProxyCacheTier final : public mds::CacheTier {
 public:
  ProxyCacheTier(fs::NamespaceTree& tree, ProxyParams params);

  void set_tracer(obs::TraceRecorder* trace) override;

  [[nodiscard]] bool tracks(DirId d) const override {
    return static_cast<std::size_t>(d) < tracked_.size() &&
           tracked_[static_cast<std::size_t>(d)] != 0;
  }

  bool try_absorb(DirId d, FileIndex i, Tick now) override;
  void on_served_read(DirId d, Tick now) override;
  void on_mutation(DirId d, Tick now) override;
  void on_split(DirId d, Tick now) override;
  void on_authority_change(DirId d, Tick now) override;
  void on_rank_down(MdsId m, Tick now) override;
  void on_drain(MdsId m, Tick now) override;
  void on_drain_end(MdsId m) override;
  void on_epoch_close(mds::MdsCluster& cluster) override;
  [[nodiscard]] std::vector<std::string> check_coherence(
      const mds::MdsCluster& cluster) const override;
  void add_counters(obs::Counters& out) const override;

  /// Lifetime totals; the proxy.* counters read these.
  struct Totals {
    std::uint64_t reads_absorbed = 0;
    std::uint64_t lease_grants = 0;
    std::uint64_t lease_recalls = 0;
    std::uint64_t lease_expiries = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

  /// Promoted directories, ascending (tests and reporting).
  [[nodiscard]] std::vector<DirId> promoted_dirs() const;
  /// True when `d` currently holds a live lease at tick `now`.
  [[nodiscard]] bool leased(DirId d, Tick now) const;

  [[nodiscard]] const ProxyParams& params() const { return params_; }

 private:
  /// One promoted directory.  `grant_tick < 0` means no live lease; the
  /// snapshot fields are only meaningful while a lease is live.
  struct Entry {
    DirId dir = kNoDir;
    Tick grant_tick = -1;
    Tick lease_until = -1;
    MdsId grantor = kNoMds;
    std::uint32_t file_count_at_grant = 0;
    std::uint8_t frag_bits_at_grant = 0;
    /// Reads absorbed since the last epoch close (the demotion signal).
    std::uint64_t hits_epoch = 0;
  };

  [[nodiscard]] Entry* find(DirId d);
  void recall(Entry& e, RecallReason reason);
  void promote(DirId d, double rate_iops);
  void demote(Entry& e, double rate_iops);
  /// True when `ancestor` lies on `d`'s root path (authority inheritance).
  [[nodiscard]] bool inherits_through(DirId d, DirId ancestor) const;

  fs::NamespaceTree& tree_;
  ProxyParams params_;
  double demote_threshold_;
  obs::TraceRecorder* trace_ = nullptr;
  /// Promoted entries, sorted ascending by dir (deterministic iteration).
  std::vector<Entry> entries_;
  /// Promotion bitmap indexed by DirId (lazily grown); the concurrent-safe
  /// `tracks()` read.
  std::vector<std::uint8_t> tracked_;
  /// Ranks currently draining: leases recalled, grants refused.
  std::vector<std::uint8_t> no_grant_;
  Totals totals_;
  /// Scratch for the epoch-close demotion sweep.
  std::vector<DirId> demote_scratch_;
};

}  // namespace lunule::proxy
