#include "mds/migration.h"

#include <algorithm>

#include "common/assert.h"

namespace lunule::mds {

MigrationEngine::MigrationEngine(fs::NamespaceTree& tree,
                                 MigrationParams params)
    : tree_(tree), params_(params) {
  LUNULE_CHECK(params_.bandwidth_inodes_per_tick > 0.0);
  LUNULE_CHECK(params_.max_inflight_per_exporter >= 1);
  LUNULE_CHECK(params_.freeze_fraction >= 0.0 &&
               params_.freeze_fraction < 1.0);
  LUNULE_CHECK(params_.capacity_penalty >= 0.0 &&
               params_.capacity_penalty < 1.0);
  LUNULE_CHECK(params_.max_retries >= 0);
  LUNULE_CHECK(params_.retry_backoff_ticks >= 0);
}

bool MigrationEngine::submit(const fs::SubtreeRef& ref, MdsId to) {
  const MdsId from = tree_.auth_of_subtree(ref);
  if (from == to) return false;
  // Refuse endpoints the cluster reports as down: a balancer holding a
  // stale view of the MDS set must not queue exports into a crashed rank.
  if (liveness_ && (!liveness_(to) || !liveness_(from))) return false;
  // Refuse imports into ranks leaving the serving set (draining for
  // scale-down): their queue is being emptied, not refilled.
  if (import_ok_ && !import_ok_(to)) return false;
  const std::uint64_t inodes = tree_.exclusive_inodes(ref);
  if (inodes == 0) return false;
  for (const ExportTask& t : tasks_) {
    if (t.subtree == ref) return false;  // already pending
    // A pending whole-directory export covering `ref` also blocks it.
    if (!t.subtree.is_frag() &&
        tree_.is_ancestor(t.subtree.dir, ref.dir)) {
      return false;
    }
  }
  tasks_.push_back(ExportTask{
      .subtree = ref, .from = from, .to = to, .inodes = inodes});
  ++submitted_;
  if (tracer_) {
    tracer_->record(obs::Component::kMigration,
                    {.kind = obs::EventKind::kMigrationSubmit,
                     .a = from,
                     .b = to,
                     .n0 = static_cast<std::int64_t>(ref.dir),
                     .n1 = ref.frag,
                     .v0 = static_cast<double>(inodes)});
  }
  return true;
}

double MigrationEngine::subtree_rate(const fs::SubtreeRef& ref) const {
  auto frag_visits = [this](fs::FragStats& f) -> double {
    tree_.advance_frag_stats(f);
    return static_cast<double>(f.windows.size() == 0
                                   ? f.open.visits
                                   : f.windows.newest().visits);
  };
  double visits = 0.0;
  if (ref.is_frag()) {
    visits = frag_visits(tree_.frag(ref.dir, ref.frag));
  } else {
    // Leaf-unit candidates hold their files directly; include any unpinned
    // descendants for completeness (namespaces are shallow).
    for (fs::FragStats& f : tree_.frags(ref.dir)) {
      if (f.auth_pin == kNoMds) visits += frag_visits(f);
    }
    for (const DirId c : tree_.dir(ref.dir).children()) {
      if (tree_.explicit_auth(c) == kNoMds) {
        visits += subtree_rate(fs::SubtreeRef{.dir = c}) *
                  params_.epoch_seconds;
      }
    }
  }
  return visits / params_.epoch_seconds;
}

void MigrationEngine::record_abort(const ExportTask& t, double rate) {
  ++aborted_;
  if (tracer_) {
    tracer_->record(obs::Component::kMigration,
                    {.kind = obs::EventKind::kMigrationAbort,
                     .a = t.from,
                     .b = t.to,
                     .n0 = static_cast<std::int64_t>(t.subtree.dir),
                     .n1 = t.subtree.frag,
                     .v0 = static_cast<double>(t.inodes),
                     .v1 = rate});
  }
}

void MigrationEngine::record_terminal_drop(const ExportTask& t) {
  ++retries_exhausted_;
  if (tracer_) {
    tracer_->record(obs::Component::kMigration,
                    {.kind = obs::EventKind::kMigrationRetriesExhausted,
                     .a = t.from,
                     .b = t.to,
                     .n0 = static_cast<std::int64_t>(t.subtree.dir),
                     .n1 = t.retries,
                     .v0 = static_cast<double>(t.inodes)});
  }
}

std::size_t MigrationEngine::abort_involving(MdsId m) {
  std::size_t dropped = 0;
  std::erase_if(tasks_, [this, m, &dropped](const ExportTask& t) {
    if (t.from != m && t.to != m) return false;
    record_abort(t, 0.0);
    ++dropped;
    return true;
  });
  refresh_frozen();
  return dropped;
}

std::size_t MigrationEngine::force_abort_active(MdsId exporter) {
  std::size_t hit = 0;
  std::erase_if(tasks_, [this, exporter, &hit](ExportTask& t) {
    if (!t.active) return false;
    if (exporter != kNoMds && t.from != exporter) return false;
    record_abort(t, 0.0);
    ++hit;
    if (t.retries >= params_.max_retries) {
      // Retries exhausted: the task is dropped for good.  Say so — a
      // silently vanishing plan looks like a migration that never existed,
      // and the balancer's operator deserves a terminal event to grep for.
      record_terminal_drop(t);
      return true;
    }
    // Roll back and requeue with exponential backoff: the two-phase
    // protocol discarded the partial stream, so progress restarts at zero.
    t.active = false;
    t.transferred = 0.0;
    ++t.retries;
    t.not_before = now_ + (params_.retry_backoff_ticks << (t.retries - 1));
    if (tracer_) {
      tracer_->record(obs::Component::kMigration,
                      {.kind = obs::EventKind::kMigrationRequeue,
                       .a = t.from,
                       .b = t.to,
                       .n0 = static_cast<std::int64_t>(t.subtree.dir),
                       .n1 = t.retries,
                       .v0 = static_cast<double>(t.inodes),
                       .v1 = static_cast<double>(t.not_before)});
    }
    return false;
  });
  refresh_frozen();
  return hit;
}

void MigrationEngine::tick() {
  ++now_;
  // Abort exports of subtrees under heavy load: the freeze step of the
  // two-phase protocol cannot complete while requests keep arriving.
  std::erase_if(tasks_, [this](const ExportTask& t) {
    const double rate = subtree_rate(t.subtree);
    if (rate <= params_.hot_abort_iops) return false;
    record_abort(t, rate);
    return true;
  });
  // Re-validate endpoint liveness for tasks that have not started streaming
  // yet: a rank taken down or scaled away *after* a requeue (the submit-time
  // probe only ran once) must not be restarted against when the backoff
  // window expires.  The drop is terminal — the endpoint is gone, so this
  // is `migration_retries_exhausted`, not another retry.
  if (liveness_) {
    std::erase_if(tasks_, [this](const ExportTask& t) {
      if (t.active) return false;
      if (liveness_(t.from) && liveness_(t.to)) return false;
      record_abort(t, 0.0);
      record_terminal_drop(t);
      return true;
    });
  }
  // Activate queued tasks while their exporter has a free slot (requeued
  // tasks additionally wait out their backoff window).
  for (ExportTask& t : tasks_) {
    if (!t.active && now_ >= t.not_before &&
        active_count(t.from) <
                         static_cast<std::size_t>(
                             params_.max_inflight_per_exporter)) {
      t.active = true;
      if (tracer_) {
        tracer_->record(obs::Component::kMigration,
                        {.kind = obs::EventKind::kMigrationStart,
                         .a = t.from,
                         .b = t.to,
                         .n0 = static_cast<std::int64_t>(t.subtree.dir),
                         .n1 = t.subtree.frag,
                         .v0 = static_cast<double>(t.inodes)});
      }
    }
  }
  // Stream active tasks; an exporter's bandwidth is shared by its slots.
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    ExportTask& t = tasks_[i];
    if (!t.active) continue;
    const auto share = static_cast<double>(active_count(t.from));
    t.transferred += params_.bandwidth_inodes_per_tick / std::max(1.0, share);
    if (t.transferred >= static_cast<double>(t.inodes)) {
      done.push_back(i);
    }
  }
  // Commit completed transfers (authority switch).
  for (auto it = done.rbegin(); it != done.rend(); ++it) {
    ExportTask& t = tasks_[*it];
    if (commit_hook_) commit_hook_(t.subtree, t.from, t.to, t.inodes);
    const std::uint64_t moved = tree_.migrate_subtree(t.subtree, t.to);
    total_migrated_ += moved;
    ++completed_;
    if (tracer_) {
      tracer_->record(obs::Component::kMigration,
                      {.kind = obs::EventKind::kMigrationFinish,
                       .a = t.from,
                       .b = t.to,
                       .n0 = static_cast<std::int64_t>(t.subtree.dir),
                       .n1 = t.subtree.frag,
                       .v0 = static_cast<double>(moved)});
    }
    tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  if (!done.empty()) tree_.simplify_auth();
  refresh_frozen();
}

void MigrationEngine::refresh_frozen() {
  frozen_.clear();
  for (const ExportTask& t : tasks_) {
    if (t.frozen(params_.freeze_fraction)) frozen_.push_back(t.subtree);
  }
}

bool MigrationEngine::is_frozen(DirId d, FileIndex i) const {
  for (const fs::SubtreeRef& ref : frozen_) {
    if (ref.is_frag()) {
      if (ref.dir == d && tree_.frag_of(d, i) == ref.frag) return true;
    } else if (tree_.is_ancestor(ref.dir, d)) {
      return true;
    }
  }
  return false;
}

bool MigrationEngine::involved(MdsId m) const {
  return std::any_of(tasks_.begin(), tasks_.end(), [m](const ExportTask& t) {
    return t.active && (t.from == m || t.to == m);
  });
}

std::size_t MigrationEngine::pending_exports(MdsId m) const {
  return static_cast<std::size_t>(
      std::count_if(tasks_.begin(), tasks_.end(),
                    [m](const ExportTask& t) { return t.from == m; }));
}

void MigrationEngine::drop_queued(MdsId m) {
  std::erase_if(tasks_, [m](const ExportTask& t) {
    return t.from == m && !t.active;
  });
}

std::size_t MigrationEngine::abort_queued_imports(MdsId to) {
  std::size_t dropped = 0;
  std::erase_if(tasks_, [this, to, &dropped](const ExportTask& t) {
    if (t.to != to || t.active) return false;
    record_abort(t, 0.0);
    ++dropped;
    return true;
  });
  return dropped;
}

bool MigrationEngine::touches(MdsId m) const {
  return std::any_of(tasks_.begin(), tasks_.end(), [m](const ExportTask& t) {
    return t.from == m || t.to == m;
  });
}

std::uint64_t MigrationEngine::backlog_inodes() const {
  double backlog = 0.0;
  for (const ExportTask& t : tasks_) {
    backlog += static_cast<double>(t.inodes) - t.transferred;
  }
  return backlog > 0.0 ? static_cast<std::uint64_t>(backlog) : 0;
}

std::size_t MigrationEngine::active_count(MdsId exporter) const {
  return static_cast<std::size_t>(std::count_if(
      tasks_.begin(), tasks_.end(), [exporter](const ExportTask& t) {
        return t.active && t.from == exporter;
      }));
}

}  // namespace lunule::mds
