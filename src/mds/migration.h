// The subtree migration engine (CephFS's Migrator, Section 2.1 step 4).
//
// CephFS migrates a subtree with a two-phase-commit protocol: the exporter
// freezes the subtree, streams its metadata to the importer, and the
// authority switches atomically at commit.  We reproduce the three effects
// that matter for load balancing:
//   1. *Lag* — a migration takes time proportional to its inode count
//      (bounded migration bandwidth), so a balancing decision only takes
//      effect epochs later.  Ignoring this lag is exactly what the paper
//      blames for the vanilla balancer's over-migration / ping-pong.
//   2. *Cost* — both endpoints lose a slice of their service capacity while
//      a transfer is active (migration contends with foreground requests).
//   3. *Freeze* — requests to a subtree stall during its final commit
//      window.
//
// Only `max_inflight_per_exporter` tasks progress concurrently per exporter
// (the paper observed "15 subtrees in the migration task queue, but only 2
// were successfully migrated"); the rest wait in a FIFO queue.  Balancers
// may drop their stale queued tasks at the next epoch (Lunule does; the
// vanilla balancer, faithfully, does not).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/types.h"
#include "fs/namespace_tree.h"
#include "obs/trace_recorder.h"

namespace lunule::mds {

struct MigrationParams {
  /// Inodes streamed per simulated second per active task.  Calibrated to
  /// the paper's observations (~98% of one MDS's ~1M inodes moved within
  /// ~5 minutes on the Zipf workload => a few thousand inodes/s); large
  /// subtrees still take multiple epochs, so the *lag* of migration — which
  /// the vanilla balancer ignores — remains load-bearing.
  double bandwidth_inodes_per_tick = 1500.0;
  /// Concurrent active exports per exporter MDS.
  int max_inflight_per_exporter = 2;
  /// Trailing fraction of the transfer during which the subtree is frozen.
  double freeze_fraction = 0.1;
  /// Fractional capacity lost by an MDS participating in a transfer.
  double capacity_penalty = 0.15;
  /// Exports of subtrees under heavier load than this (IOPS) abort: the
  /// CephFS Migrator cannot freeze a subtree that keeps receiving requests
  /// — the paper observed 15 queued subtrees with only 2 migrating.  This
  /// is why the scan-front directory of the CNN/NLP workloads never moves.
  double hot_abort_iops = 300.0;
  /// Epoch length used to convert the last closed epoch's visit counts
  /// into an IOPS rate (overridden by MdsCluster from its own config).
  double epoch_seconds = 10.0;
  /// Forced aborts (fault injection) requeue the task up to this many
  /// times before dropping it for good.
  int max_retries = 3;
  /// Ticks a requeued task waits before it may restart; doubles with each
  /// further retry (bounded exponential backoff).
  Tick retry_backoff_ticks = 5;
};

struct ExportTask {
  fs::SubtreeRef subtree;
  MdsId from = kNoMds;
  MdsId to = kNoMds;
  std::uint64_t inodes = 0;       // snapshot at submission
  double transferred = 0.0;
  bool active = false;
  /// Forced-abort count so far (bounded by MigrationParams::max_retries).
  int retries = 0;
  /// A requeued task may not restart before this engine tick (backoff).
  Tick not_before = 0;

  [[nodiscard]] bool frozen(double freeze_fraction) const {
    return active &&
           transferred >= static_cast<double>(inodes) * (1.0 - freeze_fraction);
  }
};

class MigrationEngine {
 public:
  MigrationEngine(fs::NamespaceTree& tree, MigrationParams params);

  /// Queues an export of `ref` to `to`.  Returns false (and does nothing)
  /// if the subtree is already queued/active, already owned by `to`, or
  /// empty.
  bool submit(const fs::SubtreeRef& ref, MdsId to);

  /// Advances all active transfers by one tick, starting queued tasks as
  /// slots free up and committing completed ones.
  void tick();

  /// True when serving (d, i) must stall because a covering subtree is in
  /// its frozen commit window.  Reads only the frozen set, which the
  /// serial mutators re-derive (safe to call from concurrent rank streams).
  [[nodiscard]] bool is_frozen(DirId d, FileIndex i) const;

  /// True when `m` is exporter or importer of any active transfer.
  [[nodiscard]] bool involved(MdsId m) const;

  /// Number of queued + active tasks exported by `m`.
  [[nodiscard]] std::size_t pending_exports(MdsId m) const;

  /// Drops tasks from `m` that have not started streaming yet.
  void drop_queued(MdsId m);

  /// Crash handling: aborts and drops every task whose exporter or importer
  /// is `m`.  An exporter's in-flight transfers roll back (authority never
  /// moved — the commit is atomic), an importer's are cancelled; either way
  /// the balancer re-plans from the failed-over authority map at the next
  /// epoch.  Returns the number of tasks dropped.
  std::size_t abort_involving(MdsId m);

  /// Fault injection: force-aborts active tasks (all of them, or only those
  /// exported by `exporter` when given).  Progress is discarded — the
  /// two-phase protocol rolls back — and the task requeues with bounded
  /// exponential backoff until MigrationParams::max_retries is exhausted,
  /// after which it is dropped.  Returns the number of tasks hit.
  std::size_t force_abort_active(MdsId exporter = kNoMds);

  /// Liveness probe installed by the owning cluster: submissions whose
  /// endpoints are down are refused, so balancers chasing a stale target
  /// fail closed.  The same probe re-validates both endpoints whenever a
  /// queued task (fresh or in its retry-backoff window) is about to start
  /// streaming: a rank taken down or scaled away *after* the requeue must
  /// not be restarted against — such tasks are dropped for good with
  /// `migration_retries_exhausted` semantics.  Null (the default) accepts
  /// every rank.
  using LivenessProbe = std::function<bool(MdsId)>;
  void set_liveness_probe(LivenessProbe probe) {
    liveness_ = std::move(probe);
  }

  /// Import-eligibility probe: refuses *new* submissions into ranks that
  /// are alive but leaving the serving set (draining for scale-down).
  /// Unlike the liveness probe it is only consulted at submit time — tasks
  /// already queued into a rank when its drain begins are cancelled
  /// explicitly via `abort_queued_imports`.  Null accepts every rank.
  void set_import_probe(LivenessProbe probe) {
    import_ok_ = std::move(probe);
  }

  /// Drain support: aborts every task importing into `to` that has not
  /// started streaming yet (active imports are allowed to finish — the
  /// rank is still up).  Returns the number of tasks dropped.
  std::size_t abort_queued_imports(MdsId to);

  /// True when any task (queued or active) has `m` as an endpoint; a
  /// draining rank may only retire once this is false.
  [[nodiscard]] bool touches(MdsId m) const;

  /// Inodes still to stream across all queued + active tasks (a measure of
  /// the migration backlog; lag-aware balancers consult this before
  /// issuing new plans).
  [[nodiscard]] std::uint64_t backlog_inodes() const;

  // -- Reporting ----------------------------------------------------------
  /// Cumulative inodes whose authority has switched (Figure 4's metric).
  [[nodiscard]] std::uint64_t total_migrated_inodes() const {
    return total_migrated_;
  }
  [[nodiscard]] std::uint64_t migrations_completed() const {
    return completed_;
  }
  [[nodiscard]] std::uint64_t migrations_submitted() const {
    return submitted_;
  }
  [[nodiscard]] std::uint64_t migrations_aborted() const {
    return aborted_;
  }
  /// Tasks dropped for good after exhausting their forced-abort retries
  /// (each drop also emits a terminal `migration_retries_exhausted` event).
  [[nodiscard]] std::uint64_t retries_exhausted() const {
    return retries_exhausted_;
  }

  /// Request rate (IOPS) observed on `ref` during the last closed epoch.
  [[nodiscard]] double subtree_rate(const fs::SubtreeRef& ref) const;

  /// Invoked after every commit with the migrated unit, both endpoints, and
  /// the inode count actually moved (used by the migration-validity auditor
  /// and the exporter/importer journal hooks).
  using CommitHook = std::function<void(const fs::SubtreeRef&, MdsId from,
                                        MdsId to, std::uint64_t moved)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// Attaches the owning cluster's flight recorder.  Every submit, start,
  /// commit, and abort is recorded as a trace event; the migration.*
  /// counters read the totals above.  Null detaches (the default — engines
  /// constructed directly in tests run untraced).
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }
  [[nodiscard]] const std::deque<ExportTask>& tasks() const { return tasks_; }
  [[nodiscard]] const MigrationParams& params() const { return params_; }

 private:
  [[nodiscard]] std::size_t active_count(MdsId exporter) const;

  void record_abort(const ExportTask& t, double rate);

  /// Counts and emits the terminal `migration_retries_exhausted` event for a
  /// task dropped for good (retry budget spent, or its endpoint is gone).
  void record_terminal_drop(const ExportTask& t);

  /// Re-derives frozen_ from tasks_.  A task enters or leaves its commit
  /// window only in tick(), abort_involving and force_abort_active (the
  /// other mutators drop queued tasks, which are never frozen), so each of
  /// those calls this before returning.
  void refresh_frozen();

  fs::NamespaceTree& tree_;
  MigrationParams params_;
  std::deque<ExportTask> tasks_;
  /// Units of the tasks in their frozen commit window (nearly always
  /// empty), so is_frozen does not walk every queued and active task.
  std::vector<fs::SubtreeRef> frozen_;
  Tick now_ = 0;  // engine-local clock: ticks seen so far
  std::uint64_t total_migrated_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t retries_exhausted_ = 0;
  CommitHook commit_hook_;
  LivenessProbe liveness_;
  LivenessProbe import_ok_;
  obs::TraceRecorder* tracer_ = nullptr;
};

}  // namespace lunule::mds
