// Abstract cache-tier hook the cluster serves through.
//
// A cache tier sits between the clients and the MDS ranks: reads of
// directories the tier currently *tracks* may be absorbed (completed
// without spending MDS budget) under a lease, and every state change that
// could invalidate a cached entry — mutation, dirfrag split, migration
// commit, rank crash, scale-down drain — is reported to the tier at the
// exact point the cluster applies it, so revocation is deterministic.
//
// The interface lives in mds/ (below the concrete tier in proxy/) so the
// cluster can call through it without a dependency cycle: MdsCluster holds
// a non-owning pointer, the Simulation owns the instance.  No tier
// installed means zero overhead and byte-identical behavior — every hook
// site is gated on the pointer.
//
// Threading contract (sharded tick engine): `tracks()` must be safe to
// call from concurrent rank streams (the client binding queries it), and
// the tracked set may only change at serial points (epoch close).  All
// other hooks are invoked serially: ops on tracked directories are routed
// through the serial deferred pass precisely so absorb/grant may mutate
// the lease table without synchronization.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace lunule::obs {
class Counters;
class TraceRecorder;
}

namespace lunule::mds {

class MdsCluster;

class CacheTier {
 public:
  virtual ~CacheTier() = default;

  /// Wired by MdsCluster::set_cache_tier so lease/invalidation events ride
  /// the cluster's flight recorder.
  virtual void set_tracer(obs::TraceRecorder* trace) = 0;

  /// True when directory `d` is currently promoted into the tier.  Pure
  /// read; safe from concurrent rank streams.
  [[nodiscard]] virtual bool tracks(DirId d) const = 0;

  /// Attempts to absorb a read of file `i` in directory `d`.  Returns true
  /// when the tier served it (the MDS must not be charged).  May mutate
  /// tier state only for tracked directories, which run serially.
  virtual bool try_absorb(DirId d, FileIndex i, Tick now) = 0;

  /// An MDS-served read of `d` completed; grants (or renews) the lease on
  /// a tracked directory.
  virtual void on_served_read(DirId d, Tick now) = 0;

  // -- Invalidation sources -------------------------------------------------
  /// A mutation (create) landed in `d`.
  virtual void on_mutation(DirId d, Tick now) = 0;
  /// Directory `d` was fragmented one level deeper.
  virtual void on_split(DirId d, Tick now) = 0;
  /// A migration commit changed the authority of `d` (leases on `d` and on
  /// any tracked descendant inheriting authority through it are stale).
  virtual void on_authority_change(DirId d, Tick now) = 0;
  /// Rank `m` crashed: every lease it granted is gone with its state.
  virtual void on_rank_down(MdsId m, Tick now) = 0;
  /// Rank `m` began a scale-down drain: recall its leases and stop
  /// granting through it until the drain ends.
  virtual void on_drain(MdsId m, Tick now) = 0;
  /// The drain on `m` ended (cancelled, or the rank retired).
  virtual void on_drain_end(MdsId m) = 0;

  /// Epoch-close policy hook (promotion / demotion); runs serially inside
  /// MdsCluster::close_epoch after replica management.
  virtual void on_epoch_close(MdsCluster& cluster) = 0;

  /// Coherence audit for the invariant checker: returns one message per
  /// violated condition (empty = clean).  A live lease that a completed
  /// invalidation should have revoked must be reported here.
  [[nodiscard]] virtual std::vector<std::string> check_coherence(
      const MdsCluster& cluster) const = 0;

  /// Adds the tier's counters to the cluster's counter dump, each read
  /// from the tier's own lifetime tally.
  virtual void add_counters(obs::Counters& out) const = 0;
};

}  // namespace lunule::mds
