// The metadata-server cluster: servers + access recording + migration.
//
// MdsCluster is the substrate every balancer operates on.  It routes each
// metadata operation to the authoritative MDS of its target (respecting
// dirfrag pins), enforces per-tick service capacity, stalls operations whose
// subtree is frozen mid-migration, applies the migration capacity penalty,
// and closes balancer epochs (load sampling + statistics roll-over).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/worker_pool.h"
#include "fs/namespace_tree.h"
#include "journal/journal.h"
#include "journal/replay.h"
#include "mds/access_recorder.h"
#include "mds/cache_tier.h"
#include "mds/migration.h"
#include "mds/migration_audit.h"
#include "mds/mds_server.h"
#include "obs/trace_recorder.h"

namespace lunule::mds {

struct ClusterParams {
  std::size_t n_mds = 5;
  /// Ranks serving at construction; the rest start as cold standbys (down,
  /// owning nothing) that an autoscaler can `activate` later.  0 — the
  /// default — means all `n_mds` ranks start active, which reproduces the
  /// fixed-pool behavior byte for byte.
  std::size_t initial_active = 0;
  /// Theoretical per-MDS capacity C in IOPS (Eq. 2 of the paper).
  double mds_capacity_iops = 2500.0;
  /// Ticks (simulated seconds) per balancer epoch; the paper's default
  /// re-balance interval is 10 seconds.
  int epoch_ticks = 10;
  MigrationParams migration;
  RecorderParams recorder;
  /// CephFS-style hot-dirfrag read replication
  /// (mds_bal_replicate_threshold): a fragment serving more reads per
  /// second than this gets replicated to every peer, and reads are served
  /// by the least-loaded holder; below `unreplicate_threshold_iops` the
  /// replicas are dropped.  0 disables replication (the default: the
  /// paper's balancers are evaluated without it).
  double replicate_threshold_iops = 0.0;
  double unreplicate_threshold_iops = 0.0;
  /// Per-rank metadata journal (off by default: with `journal.enabled`
  /// false no journal exists, the counter dump carries no journal.* name,
  /// and every trace is byte-identical to the journal-free behavior).
  journal::JournalParams journal;
  std::uint64_t seed = 42;
};

enum class ServeResult {
  kServed,     // operation completed this tick
  kSaturated,  // authoritative MDS out of capacity this tick
  kFrozen,     // target subtree frozen by an in-flight migration
};

/// Per-rank effect buffer for the sharded tick engine.  During a shard
/// phase every operation bound to rank r applies rank-local effects (r's
/// server budget, r's journal, the target fragment's counters) in place
/// and escrows everything that touches shared or foreign state here; the
/// serial merge drains the lanes in ascending rank order, so the result
/// is one canonical outcome independent of how ranks were grouped into
/// shards or scheduled onto workers.
struct TickLane {
  /// The rank whose operation stream fills this lane.
  MdsId rank = kNoMds;
  /// Cross-rank forward charges, indexed by target rank.
  std::vector<std::uint32_t> forwards;
  /// Escrowed recorder effects (sibling credits, touched marks).
  RecorderLane recorder;

  void reset(MdsId r, std::size_t n_ranks) {
    rank = r;
    forwards.assign(n_ranks, 0);
    recorder.credits.clear();
    recorder.touched.clear();
  }
};

class MdsCluster {
 public:
  MdsCluster(fs::NamespaceTree& tree, ClusterParams params);
  // Hooks into the tree, the migration engine and the recorder hold `this`.
  MdsCluster(const MdsCluster&) = delete;
  MdsCluster& operator=(const MdsCluster&) = delete;

  // -- Tick / epoch lifecycle ---------------------------------------------
  /// Opens a tick: refreshes per-server budgets (with migration penalties).
  void begin_tick(Tick now);
  /// Closes a tick: advances in-flight migrations.
  void end_tick();
  /// Closes an epoch and returns the per-MDS loads (IOPS) observed in it.
  std::vector<Load> close_epoch();

  // -- Request service ------------------------------------------------------
  /// Serves a lookup/read of file `i` in directory `d`.  With a lane, the
  /// op must be bound to the lane's rank and shared-state effects are
  /// escrowed for the merge.
  ServeResult try_serve(DirId d, FileIndex i, TickLane* lane = nullptr);
  /// Serves a create in directory `d`; on success the file exists afterwards.
  ServeResult try_create(DirId d, TickLane* lane = nullptr);
  /// Charges a path-traversal forward (redirect) to MDS `m`; buffered in
  /// the lane when `m` is not the lane's own rank.
  void charge_forward(MdsId m, TickLane* lane = nullptr);

  /// Drains per-rank lanes in ascending rank order (serial phase of the
  /// sharded engine): forwards and recorder effects, one lane at a time.
  void merge_lanes(std::span<TickLane> lanes);

  /// Worker pool for intra-tick parallel phases (epoch-close fold,
  /// candidate collection); null means run serially.
  void set_shard_pool(WorkerPool* pool) { shard_pool_ = pool; }
  [[nodiscard]] WorkerPool* shard_pool() const { return shard_pool_; }

  // -- Topology -------------------------------------------------------------
  /// Adds one MDS at runtime (cluster-expansion experiments, Fig. 12a).
  MdsId add_server();

  // -- Elasticity -----------------------------------------------------------
  /// Scale-up: joins standby rank `m` to the serving set via the journal
  /// cold-start path.  Unlike `set_up` (crash recovery) this is a planned
  /// membership change: it counts an activation, records
  /// `mds_activate`, and — when journaling is on — charges the base replay
  /// window (the newcomer must open a journal and rejoin the MDS map before
  /// serving at full capacity).  A no-op when `m` is already up.
  void activate(MdsId m);
  /// Scale-down step 1: marks `m` as leaving the serving set.  The rank
  /// stays up and keeps serving, but the migration engine refuses new
  /// imports into it and its queued imports are cancelled; the caller then
  /// drains its subtrees via normal migration submits.
  void begin_drain(MdsId m);
  /// Aborts an in-progress drain (the autoscaler reverses a scale-down when
  /// load returns before the rank empties).
  void cancel_drain(MdsId m);
  /// Scale-down step 2: retires a drained rank.  Succeeds (returns true)
  /// only once `m` owns no subtree units and no migration task touches it;
  /// the rank then leaves the serving set without a failover.  Requires
  /// another rank to be up.
  bool retire(MdsId m);
  [[nodiscard]] bool is_draining(MdsId m) const {
    return draining_[static_cast<std::size_t>(m)] != 0;
  }
  /// True when `m` may accept migration imports: up and not draining.
  [[nodiscard]] bool is_importable(MdsId m) const {
    return is_up(m) && !is_draining(m);
  }
  /// Everything rank `m` is currently authoritative for (public view of the
  /// ESubtreeMap payload; the autoscaler drains exactly this set).
  [[nodiscard]] std::vector<fs::SubtreeRef> owned_subtrees(MdsId m) const {
    return owned_units(m);
  }

  /// Lifetime totals of planned membership changes (the autoscaler.*
  /// counters read these).
  struct ElasticityTotals {
    std::uint64_t activations = 0;
    std::uint64_t drains_started = 0;
    std::uint64_t retirements = 0;
  };
  [[nodiscard]] const ElasticityTotals& elasticity() const {
    return elasticity_;
  }

  // -- Faults ---------------------------------------------------------------
  /// What a fail-over moved, for reporting and trace events.
  struct FailoverStats {
    std::uint64_t subtrees = 0;        // dirs + frags reassigned
    std::uint64_t inodes = 0;          // exclusive inodes failed over
    std::uint64_t aborted_migrations = 0;
    // Journal-replay metrics (all zero when journaling is disabled):
    std::uint64_t replayed_entries = 0;    // durable entries scanned
    std::uint64_t lost_entries = 0;        // unflushed tail, gone for good
    double replay_seconds = 0.0;           // modeled replay wall time
    std::uint64_t journaled_subtrees = 0;  // units the replay reconstructed
    // Async-mode loss window: of the lost entries, those acknowledged to
    // clients before the crash (0 in sync mode), plus the replay's
    // prefix-consistency audit (must stay 0; see replay.h).
    std::uint64_t acked_lost_entries = 0;
    std::uint64_t dependency_violations = 0;

    /// Field-wise sum (the fault injector's lifetime totals).
    FailoverStats& operator+=(const FailoverStats& o) {
      subtrees += o.subtrees;
      inodes += o.inodes;
      aborted_migrations += o.aborted_migrations;
      replayed_entries += o.replayed_entries;
      lost_entries += o.lost_entries;
      replay_seconds += o.replay_seconds;
      journaled_subtrees += o.journaled_subtrees;
      acked_lost_entries += o.acked_lost_entries;
      dependency_violations += o.dependency_violations;
      return *this;
    }
  };

  /// Lifetime tallies of the faults applied to this cluster (by a plan or
  /// a direct call), read by the faults.*, journal.stalls and journal.*
  /// replay counters.  faults::FaultTotals counts only its plan's faults
  /// and adds forced aborts.
  struct FaultTallies {
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;  // set_up calls that revived a rank
    std::uint64_t degradations = 0;
    std::uint64_t journal_stalls = 0;
    FailoverStats failovers;  // every crash's fail-over, summed
  };
  [[nodiscard]] const FaultTallies& fault_tallies() const {
    return fault_tallies_;
  }

  /// Crashes MDS `m`: its budget drops to zero, every subtree and dirfrag it
  /// owned fails over to the surviving ranks, its replicas are dropped, and
  /// every in-flight migration touching it aborts.  Survivor choice is
  /// deterministic: each orphaned unit goes to the alive rank with the
  /// smallest running takeover-inode tally (ties to the lowest rank), so the
  /// hand-off spreads rather than dog-piling one peer.  Requires at least
  /// one other rank to be up.
  FailoverStats set_down(MdsId m);
  /// Revives MDS `m` with a cleared load history (it rejoins after journal
  /// replay with no usable load record); it owns nothing until a balancer
  /// migrates load back.
  void set_up(MdsId m);
  /// Applies a persistent capacity factor in (0, 1] to `m` (1.0 restores).
  void set_degrade(MdsId m, double factor);
  [[nodiscard]] bool is_up(MdsId m) const {
    return servers_[static_cast<std::size_t>(m)].up();
  }
  [[nodiscard]] std::size_t alive_count() const;

  // -- Journal --------------------------------------------------------------
  [[nodiscard]] bool journaling() const { return params_.journal.enabled; }
  /// Rank `m`'s journal; only meaningful when `journaling()`.
  [[nodiscard]] const journal::MdsJournal& journal(MdsId m) const {
    return journals_[static_cast<std::size_t>(m)];
  }
  /// Fault injection (`journal_stall`): no flush on `m` completes before
  /// tick `until`.  Appends continue, the backlog grows, and once it hits
  /// `JournalParams::max_unflushed_entries` creates are refused
  /// (backpressure).  A no-op when journaling is disabled.
  void stall_journal(MdsId m, Tick until);

  /// Cluster-wide journal lifetime totals (all zero when disabled).
  struct JournalTotals {
    std::uint64_t appends = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t flushes = 0;
    std::uint64_t segments_trimmed = 0;
    // Async-mode background-lane totals (all zero in sync mode): entries
    // acknowledged before they were durable, IOPS charges the lane absorbed
    // and their summed cost in ops, and ticks any rank's backlog sat over
    // the high-water mark (foreground service throttled).
    std::uint64_t async_acked = 0;
    std::uint64_t async_background_charges = 0;
    double async_background_ops = 0.0;
    std::uint64_t async_throttle_ticks = 0;
  };
  [[nodiscard]] JournalTotals journal_totals() const;


  [[nodiscard]] std::size_t size() const { return servers_.size(); }
  [[nodiscard]] const MdsServer& server(MdsId m) const {
    return servers_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] MdsServer& server(MdsId m) {
    return servers_[static_cast<std::size_t>(m)];
  }

  [[nodiscard]] fs::NamespaceTree& tree() { return tree_; }
  [[nodiscard]] const fs::NamespaceTree& tree() const { return tree_; }
  [[nodiscard]] AccessRecorder& recorder() { return *recorder_; }
  [[nodiscard]] const AccessRecorder& recorder() const { return *recorder_; }
  [[nodiscard]] MigrationEngine& migration() { return *migration_; }
  [[nodiscard]] const MigrationEngine& migration() const {
    return *migration_;
  }
  /// Post-migration validity auditor (the paper's "never visited after
  /// migration" diagnostic, Section 2.2).
  [[nodiscard]] const MigrationAudit& audit() const { return audit_; }

  /// The cluster's flight recorder.  Balancers and tests record through it;
  /// it is returned non-const from a const cluster (like a logger) so
  /// read-only consumers can still record events; its counters() reads
  /// this cluster's tallies (counter_view).
  [[nodiscard]] obs::TraceRecorder& trace() const { return *trace_; }
  [[nodiscard]] const ClusterParams& params() const { return params_; }
  [[nodiscard]] EpochId epoch() const { return epoch_; }
  [[nodiscard]] double epoch_seconds() const {
    return static_cast<double>(params_.epoch_ticks);
  }
  [[nodiscard]] std::uint64_t total_served() const;
  [[nodiscard]] std::uint64_t total_forwards() const;
  /// Dirfrag splits applied to the tree since construction.
  [[nodiscard]] std::uint64_t dirfrag_splits() const {
    return dirfrag_splits_;
  }

  /// Current per-MDS loads from the last closed epoch.
  [[nodiscard]] std::vector<Load> current_loads() const;

  /// Number of dirfrags currently replicated (reporting).
  [[nodiscard]] std::uint64_t replicated_frags() const;

  // -- Cache tier -----------------------------------------------------------
  /// Installs (or clears, with nullptr) the cache tier the cluster serves
  /// through.  Non-owning — the Simulation owns the instance.  Wires the
  /// cluster's flight recorder into the tier so lease events ride the
  /// existing spine; while installed, its proxy.* counters join the dump.
  void set_cache_tier(CacheTier* tier) {
    cache_tier_ = tier;
    if (cache_tier_ != nullptr) cache_tier_->set_tracer(trace_.get());
  }
  [[nodiscard]] CacheTier* cache_tier() const { return cache_tier_; }
  /// True when the tier currently tracks `d` (ops on tracked directories
  /// must route through the serial deferred pass).  Safe from concurrent
  /// rank streams; false without a tier.
  [[nodiscard]] bool cache_tier_tracks(DirId d) const {
    return cache_tier_ != nullptr && cache_tier_->tracks(d);
  }

  /// Directories worth considering for heat-based candidate collection
  /// (Vanilla, Mantle, Lunule-Light): the recorder's active set, sorted
  /// ascending after every close.  Never null; every directory outside it
  /// is drained (zero heat, zero windows) and would score zero.
  [[nodiscard]] const std::vector<DirId>* candidate_dirs() const {
    return &recorder_->active_dirs();
  }
  /// Directories worth considering for window-based collection (Lunule's
  /// mIndex and hottest-shard rules): the recorder's window-live set, a
  /// subset of candidate_dirs() that drops the heat-only tail.  Never
  /// null; every unit outside it has zero window sums, hence a zero
  /// migration index and zero last-epoch visits.
  [[nodiscard]] const std::vector<DirId>* window_live_dirs() const {
    return &recorder_->window_live_dirs();
  }

 private:
  /// Replica management at epoch close (replicate hot frags, drop cold).
  void update_replicas();
  /// Everything rank `m` is authoritative for (explicit dir pins + dirfrag
  /// pins), in deterministic namespace order — the ESubtreeMap payload.
  [[nodiscard]] std::vector<fs::SubtreeRef> owned_units(MdsId m) const;
  /// Journals a committed migration on both endpoints.
  void journal_commit(const fs::SubtreeRef& ref, MdsId from, MdsId to);
  /// Epoch-close checkpoint: ESubtreeMap per alive rank + flush + trim.
  /// In async mode the checkpoint is *not* force-flushed — durability
  /// trails the group-commit cadence and a `durability_lag` event records
  /// the backlog per alive rank.
  void journal_checkpoint();
  /// Charges one append's IOPS cost for rank `m`: foreground debt in sync
  /// mode (or async over the high-water mark), background lane otherwise.
  void charge_journal_append(MdsId m);
  /// The flight recorder's counter source: names each counter once, with
  /// the tally that owns it and the rule that puts it in the dump.
  [[nodiscard]] obs::Counters counter_view() const;
  fs::NamespaceTree& tree_;
  ClusterParams params_;
  std::vector<MdsServer> servers_;
  /// Per-rank drain flag (scale-down in progress); parallel to `servers_`.
  std::vector<std::uint8_t> draining_;
  ElasticityTotals elasticity_;
  /// One journal per rank; empty when `params_.journal.enabled` is false.
  std::vector<journal::MdsJournal> journals_;
  std::unique_ptr<AccessRecorder> recorder_;
  std::unique_ptr<MigrationEngine> migration_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  /// total_served() as of the last epoch close.
  std::uint64_t last_epoch_served_ = 0;
  /// journal_totals() as of the last epoch close (its checkpoint).
  JournalTotals journal_at_close_;
  std::uint64_t dirfrag_splits_ = 0;
  FaultTallies fault_tallies_;
  MigrationAudit audit_;
  /// Optional cache tier (null = no tier, zero overhead); see cache_tier.h.
  CacheTier* cache_tier_ = nullptr;
  EpochId epoch_ = 0;
  Tick now_ = 0;  // last tick opened by begin_tick
  WorkerPool* shard_pool_ = nullptr;
};

}  // namespace lunule::mds
