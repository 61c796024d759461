#include "mds/cluster.h"

#include <cmath>

#include "common/assert.h"

namespace lunule::mds {

namespace {

journal::JournalEntry make_entry(journal::EntryType type, Tick tick,
                                 EpochId epoch, DirId dir, FragId frag,
                                 MdsId peer) {
  journal::JournalEntry e;
  e.type = type;
  e.tick = tick;
  e.epoch = epoch;
  e.dir = dir;
  e.frag = frag;
  e.peer = peer;
  return e;
}

}  // namespace

MdsCluster::MdsCluster(fs::NamespaceTree& tree, ClusterParams params)
    : tree_(tree), params_(params) {
  LUNULE_CHECK(params_.n_mds >= 1);
  LUNULE_CHECK(params_.epoch_ticks >= 1);
  // Replica masks are a fixed-width rank bitmask; fail loudly instead of
  // shifting past the mask width on big clusters.
  if (params_.replicate_threshold_iops > 0.0) {
    LUNULE_CHECK_MSG(params_.n_mds <= fs::kMaxReplicaRanks,
                     "read replication supports at most kMaxReplicaRanks "
                     "(64) MDS ranks");
  }
  LUNULE_CHECK(params_.initial_active <= params_.n_mds);
  servers_.reserve(params_.n_mds);
  for (std::size_t i = 0; i < params_.n_mds; ++i) {
    servers_.emplace_back(static_cast<MdsId>(i), params_.mds_capacity_iops);
    // Ranks past `initial_active` start as cold standbys: down (zero
    // budget, no checkpoints, invisible to balancers) until `activate`.
    // Marked silently — a standby never existed as far as the fault
    // counters and trace are concerned.
    if (params_.initial_active != 0 && i >= params_.initial_active) {
      servers_.back().set_up(false);
    }
  }
  draining_.assign(params_.n_mds, 0);
  recorder_ = std::make_unique<AccessRecorder>(
      tree_, params_.recorder, Rng(params_.seed).fork(/*stream=*/1));
  MigrationParams mig = params_.migration;
  mig.epoch_seconds = epoch_seconds();
  migration_ = std::make_unique<MigrationEngine>(tree_, mig);
  migration_->set_liveness_probe([this](MdsId m) {
    return static_cast<std::size_t>(m) < servers_.size() && is_up(m);
  });
  migration_->set_import_probe([this](MdsId m) {
    return static_cast<std::size_t>(m) < servers_.size() && is_importable(m);
  });
  migration_->set_commit_hook([this](const fs::SubtreeRef& ref, MdsId from,
                                     MdsId to, std::uint64_t moved) {
    audit_.on_commit(tree_, ref, moved, epoch_);
    journal_commit(ref, from, to);
    // The commit just re-homed ref.dir: any lease granted against the old
    // authority is stale the instant the switch lands.
    if (cache_tier_ != nullptr) cache_tier_->on_authority_change(ref.dir, now_);
  });

  if (params_.journal.enabled) {
    journals_.reserve(params_.n_mds);
    for (std::size_t i = 0; i < params_.n_mds; ++i) {
      journals_.emplace_back(static_cast<MdsId>(i), params_.journal);
    }
  }

  trace_ = std::make_unique<obs::TraceRecorder>();
  trace_->set_clock(/*epoch=*/0, /*tick=*/0);
  trace_->set_counter_source([this] { return counter_view(); });
  migration_->set_tracer(trace_.get());
  tree_.set_fragment_hook(
      [this](DirId d, std::uint8_t old_bits, std::uint8_t new_bits) {
        ++dirfrag_splits_;
        trace_->record(obs::Component::kCluster,
                       {.kind = obs::EventKind::kDirfragSplit,
                        .n0 = static_cast<std::int64_t>(d),
                        .n1 = std::int64_t{1} << new_bits,
                        .v0 = static_cast<double>(1u << old_bits)});
        if (cache_tier_ != nullptr) cache_tier_->on_split(d, now_);
      });
}

void MdsCluster::begin_tick(Tick now) {
  now_ = now;
  trace_->set_clock(epoch_, now);
  for (MdsServer& s : servers_) {
    const bool migrating = migration_->involved(s.id());
    s.begin_tick(migrating ? 1.0 - params_.migration.capacity_penalty : 1.0);
  }
}

void MdsCluster::end_tick() {
  migration_->tick();
  if (journaling()) {
    // Cadenced group commit per alive rank.  Sync mode charges the flush
    // cost as debt against the next tick's budget; async mode routes it to
    // the background durability lane — unless the un-flushed backlog sits
    // over the high-water mark, in which case the lane throttles
    // foreground service by charging the flush as ordinary debt.
    const bool async = params_.journal.async_mode;
    for (MdsServer& s : servers_) {
      if (!s.up()) continue;
      journal::MdsJournal& j = journals_[static_cast<std::size_t>(s.id())];
      if (!async) {
        if (j.maybe_flush(now_)) {
          s.add_journal_debt(params_.journal.flush_cost_ops);
        }
        continue;
      }
      const bool throttled = j.over_high_water();
      if (throttled) j.note_throttle_tick();
      if (j.maybe_flush(now_)) {
        if (throttled) {
          s.add_journal_debt(params_.journal.flush_cost_ops);
        } else {
          j.charge_background(params_.journal.flush_cost_ops);
        }
      }
    }
  }
}

std::vector<Load> MdsCluster::close_epoch() {
  std::vector<Load> loads;
  loads.reserve(servers_.size());
  double aggregate = 0.0;
  for (MdsServer& s : servers_) {
    s.close_epoch(epoch_seconds());
    loads.push_back(s.current_load());
    aggregate += s.current_load();
    trace_->record(obs::Component::kCluster,
                   {.kind = obs::EventKind::kLoadSample,
                    .a = s.id(),
                    .v0 = s.current_load()});
  }
  const std::uint64_t served_total = total_served();
  trace_->record(obs::Component::kCluster,
                 {.kind = obs::EventKind::kEpochClose,
                  .n0 = static_cast<std::int64_t>(served_total -
                                                  last_epoch_served_),
                  .v0 = aggregate});
  last_epoch_served_ = served_total;
  recorder_->close_epoch();
  audit_.on_epoch_close(tree_, epoch_);
  if (params_.replicate_threshold_iops > 0.0) update_replicas();
  // Tier policy runs after replica management so promotion decisions see
  // the same closed-epoch statistics and compose with replication.
  if (cache_tier_ != nullptr) cache_tier_->on_epoch_close(*this);
  if (journaling()) journal_checkpoint();
  ++epoch_;
  trace_->set_clock(epoch_, trace_->tick());
  return loads;
}

void MdsCluster::update_replicas() {
  const double epoch_secs = epoch_seconds();
  // All *alive* peers hold a replica of a hot fragment (a down rank cannot
  // cache anything); the authority's bit is redundant but harmless.  The
  // rank cap is validated at construction/add_server, so the shift is
  // always in range.
  LUNULE_CHECK(servers_.size() <= fs::kMaxReplicaRanks);
  std::uint64_t all_mask = 0;
  for (std::size_t r = 0; r < servers_.size(); ++r) {
    if (servers_[r].up()) all_mask |= std::uint64_t{1} << r;
  }
  for (const DirId d : recorder_->active_dirs()) {
    for (fs::FragStats& frag : tree_.frags(d)) {
      tree_.advance_frag_stats(frag);
      const double rate =
          static_cast<double>(frag.windows.newest().visits) / epoch_secs;
      if (!frag.replicated() && rate > params_.replicate_threshold_iops) {
        frag.replica_mask = all_mask;
      } else if (frag.replicated() &&
                 rate < params_.unreplicate_threshold_iops) {
        frag.replica_mask = 0;
      }
    }
  }
}

std::vector<fs::SubtreeRef> MdsCluster::owned_units(MdsId m) const {
  // Walk the pin index instead of scanning the namespace: dirs ascending,
  // each directory's whole-dir pin before its frag pins.
  std::vector<fs::SubtreeRef> owned;
  for (const DirId d : tree_.pinned_dirs()) {
    if (tree_.explicit_auth(d) == m) owned.push_back(fs::SubtreeRef{.dir = d});
    if (tree_.dir(d).frag_pin_count() == 0) continue;
    for (FragId f = 0; f < static_cast<FragId>(tree_.frag_count(d)); ++f) {
      if (tree_.frag(d, f).auth_pin == m) {
        owned.push_back(fs::SubtreeRef{.dir = d, .frag = f});
      }
    }
  }
  return owned;
}

void MdsCluster::charge_journal_append(MdsId m) {
  journal::MdsJournal& j = journals_[static_cast<std::size_t>(m)];
  if (params_.journal.async_mode && !j.over_high_water()) {
    j.charge_background(params_.journal.append_cost_ops);
  } else {
    servers_[static_cast<std::size_t>(m)].add_journal_debt(
        params_.journal.append_cost_ops);
  }
}

void MdsCluster::journal_commit(const fs::SubtreeRef& ref, MdsId from,
                                MdsId to) {
  if (!journaling()) return;
  // Both endpoints log the authority switch: the exporter so its next
  // replay no longer claims the subtree, the importer so a crash after the
  // commit replays the adoption.
  journals_[static_cast<std::size_t>(from)].append(
      make_entry(journal::EntryType::kExportCommit, now_, epoch_, ref.dir,
                 ref.frag, to));
  journals_[static_cast<std::size_t>(to)].append(
      make_entry(journal::EntryType::kImportStart, now_, epoch_, ref.dir,
                 ref.frag, from));
  charge_journal_append(from);
  charge_journal_append(to);
}

void MdsCluster::journal_checkpoint() {
  const bool async = params_.journal.async_mode;
  for (MdsServer& s : servers_) {
    if (!s.up()) continue;
    journal::MdsJournal& j = journals_[static_cast<std::size_t>(s.id())];
    const std::span<const double> h = s.load_history();
    j.append_checkpoint(now_, epoch_,
                        {.owned = owned_units(s.id()),
                         .load_history = std::vector<double>(h.begin(),
                                                             h.end())});
    charge_journal_append(s.id());
    if (!async) {
      // Force a group commit so the checkpoint is durable immediately (a
      // stalled journal refuses: its checkpoint stays tentative and replay
      // falls back to the previous durable one), then expire segments the
      // durable checkpoint covers.
      if (j.flush(now_)) s.add_journal_debt(params_.journal.flush_cost_ops);
    } else {
      // Async mode never force-flushes: durability trails the group-commit
      // cadence, so the fresh checkpoint stays tentative until the next
      // commit and a crash before it replays from the previous durable one
      // (staleness bounded by the cadence + any stall window).  Record the
      // lag so traces show how far completion ran ahead of durability.
      const Tick since_flush =
          j.last_flush_tick() >= 0 ? now_ - j.last_flush_tick() : now_ + 1;
      trace_->record(obs::Component::kCluster,
                     {.kind = obs::EventKind::kDurabilityLag,
                      .a = s.id(),
                      .n0 = static_cast<std::int64_t>(j.unflushed()),
                      .n1 = static_cast<std::int64_t>(j.durable_seq()),
                      .v0 = static_cast<double>(since_flush)});
    }
    j.trim();
  }
  journal_at_close_ = journal_totals();
}

MdsCluster::JournalTotals MdsCluster::journal_totals() const {
  JournalTotals t;
  for (const journal::MdsJournal& j : journals_) {
    t.appends += j.appends();
    t.bytes_written += j.bytes_written();
    t.flushes += j.flushes();
    t.segments_trimmed += j.segments_trimmed();
    t.async_acked += j.async_acked();
    t.async_background_charges += j.background_charges();
    t.async_background_ops += j.background_ops();
    t.async_throttle_ticks += j.throttle_ticks();
  }
  return t;
}

void MdsCluster::stall_journal(MdsId m, Tick until) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  if (!journaling()) return;
  journal::MdsJournal& j = journals_[static_cast<std::size_t>(m)];
  j.stall_until(until);
  ++fault_tallies_.journal_stalls;
  trace_->record(obs::Component::kFaults,
                 {.kind = obs::EventKind::kJournalStall,
                  .a = m,
                  .n0 = static_cast<std::int64_t>(until),
                  .v0 = static_cast<double>(j.unflushed())});
}

std::uint64_t MdsCluster::replicated_frags() const {
  if (params_.replicate_threshold_iops <= 0.0) return 0;
  std::uint64_t count = 0;
  for (DirId d = 0; d < tree_.dir_count(); ++d) {
    for (const fs::FragStats& frag : tree_.frags(d)) {
      if (frag.replicated()) ++count;
    }
  }
  return count;
}

ServeResult MdsCluster::try_serve(DirId d, FileIndex i, TickLane* lane) {
  // Proxy absorption runs before the frozen check: a leased entry keeps
  // serving while its subtree is frozen mid-migration (the commit recalls
  // the lease).  Tracked directories bind to the serial deferred pass, so
  // a lane never reaches the mutating branch of try_absorb.
  if (cache_tier_ != nullptr && cache_tier_->try_absorb(d, i, now_)) {
    LUNULE_CHECK(lane == nullptr);
    return ServeResult::kServed;
  }
  if (migration_->is_frozen(d, i)) return ServeResult::kFrozen;
  MdsId m = tree_.auth_of_file(d, i);
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());

  // Hot-dirfrag read replication: when the target fragment is replicated,
  // any holder can serve the read — pick the one with the fewest ops this
  // epoch (the authority remains a holder).  The pick reads every rank's
  // open-epoch tally, so the sharded engine routes these ops through the
  // serial deferred pass — a lane must never see one.
  const fs::FragStats& frag = tree_.frag(d, tree_.frag_of(d, i));
  if (frag.replicated()) {
    LUNULE_CHECK(lane == nullptr);
    MdsId best = m;
    std::uint64_t best_served =
        servers_[static_cast<std::size_t>(m)].served_in_open_epoch();
    for (std::size_t r = 0; r < servers_.size(); ++r) {
      if (!frag.replicated_on(static_cast<MdsId>(r))) continue;
      if (!servers_[r].up()) continue;
      const std::uint64_t served = servers_[r].served_in_open_epoch();
      if (served < best_served) {
        best = static_cast<MdsId>(r);
        best_served = served;
      }
    }
    m = best;
  }

  LUNULE_CHECK(lane == nullptr || m == lane->rank);
  if (!servers_[static_cast<std::size_t>(m)].try_serve()) {
    return ServeResult::kSaturated;
  }
  recorder_->record(d, i, epoch_, lane != nullptr ? &lane->recorder : nullptr);
  // The read reply carries a fresh lease when the directory is promoted.
  if (cache_tier_ != nullptr) cache_tier_->on_served_read(d, now_);
  return ServeResult::kServed;
}

ServeResult MdsCluster::try_create(DirId d, TickLane* lane) {
  const FileIndex idx = tree_.dir(d).file_count();
  if (migration_->is_frozen(d, idx)) return ServeResult::kFrozen;
  // The create lands in the fragment the new dentry hashes to, served by
  // that fragment's authority.
  const FragId frag = tree_.frag_of(d, idx);
  const MdsId m = tree_.auth_of_file(d, idx);
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  LUNULE_CHECK(lane == nullptr || m == lane->rank);
  // Journal-full backpressure: a mutation cannot proceed until the backlog
  // of un-flushed entries drains (only reachable under a journal stall).
  if (journaling() && journals_[static_cast<std::size_t>(m)].full()) {
    return ServeResult::kSaturated;
  }
  if (!servers_[static_cast<std::size_t>(m)].try_serve()) {
    return ServeResult::kSaturated;
  }
  // The file lands in place: the create touches only `d` and the fragment
  // it lands in, both served by rank m.
  const FileIndex created = tree_.create_file(d);
  LUNULE_CHECK(created == idx);
  recorder_->record_create(d, created, epoch_,
                           lane != nullptr ? &lane->recorder : nullptr);
  // A mutation in a promoted directory revokes its lease (creates into
  // tracked directories route through the serial deferred pass).
  if (cache_tier_ != nullptr) cache_tier_->on_mutation(d, now_);
  if (journaling()) {
    journals_[static_cast<std::size_t>(m)].append(
        make_entry(journal::EntryType::kUpdate, now_, epoch_, d, frag,
                   kNoMds));
    // Sync mode gates completion on paying the durability debt up front;
    // async mode acknowledges at apply and the background lane absorbs the
    // cost (unless the backlog is over the high-water mark).
    charge_journal_append(m);
  }
  return ServeResult::kServed;
}

void MdsCluster::charge_forward(MdsId m, TickLane* lane) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  if (lane != nullptr && m != lane->rank) {
    // A foreign rank's budget may not be touched mid-phase; the merge
    // applies the charges in bulk (the clamp-at-zero makes a contiguous
    // batch equal to the per-call sequence).
    ++lane->forwards[static_cast<std::size_t>(m)];
    return;
  }
  servers_[static_cast<std::size_t>(m)].charge_forward(1.0);
}

void MdsCluster::merge_lanes(std::span<TickLane> lanes) {
  for (TickLane& lane : lanes) {
    for (std::size_t r = 0; r < lane.forwards.size(); ++r) {
      for (std::uint32_t k = 0; k < lane.forwards[r]; ++k) {
        servers_[r].charge_forward(1.0);
      }
    }
    recorder_->merge_lane(lane.recorder);
  }
}

MdsId MdsCluster::add_server() {
  const auto id = static_cast<MdsId>(servers_.size());
  if (params_.replicate_threshold_iops > 0.0) {
    LUNULE_CHECK_MSG(servers_.size() < fs::kMaxReplicaRanks,
                     "read replication supports at most kMaxReplicaRanks "
                     "(64) MDS ranks");
  }
  servers_.emplace_back(id, params_.mds_capacity_iops);
  draining_.push_back(0);
  if (journaling()) journals_.emplace_back(id, params_.journal);
  return id;
}

void MdsCluster::activate(MdsId m) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  MdsServer& s = servers_[static_cast<std::size_t>(m)];
  if (s.up()) return;
  s.set_up(true);
  s.reset_history();
  draining_[static_cast<std::size_t>(m)] = 0;
  // Cold-start hydration: the newcomer opens a fresh journal and replays
  // its (empty) durable prefix before serving at full capacity — the base
  // replay cost, with no per-entry component.  Free when journaling is off.
  Tick window = 0;
  double hydration_seconds = 0.0;
  if (journaling()) {
    journals_[static_cast<std::size_t>(m)].reset();
    hydration_seconds = params_.journal.replay_base_seconds;
    window = journal::replay_window_ticks(hydration_seconds);
    s.begin_replay(window, params_.journal.replay_capacity_penalty);
  }
  ++elasticity_.activations;
  trace_->record(obs::Component::kCluster,
                 {.kind = obs::EventKind::kMdsActivate,
                  .a = m,
                  .n0 = static_cast<std::int64_t>(window),
                  .v0 = hydration_seconds});
}

void MdsCluster::begin_drain(MdsId m) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  LUNULE_CHECK(is_up(m));
  if (is_draining(m)) return;
  draining_[static_cast<std::size_t>(m)] = 1;
  // Queued imports into the leaving rank are pointless work: cancel them.
  // Active imports run to completion (the rank is still up) and are
  // re-exported by the drain sweep afterwards.
  migration_->abort_queued_imports(m);
  // A retiring rank must shed its leases now and stop granting new ones;
  // the tier re-grants through the adopting ranks as reads land there.
  if (cache_tier_ != nullptr) cache_tier_->on_drain(m, now_);
  ++elasticity_.drains_started;
  trace_->record(obs::Component::kCluster,
                 {.kind = obs::EventKind::kDrainStart,
                  .a = m,
                  .n0 = static_cast<std::int64_t>(owned_units(m).size())});
}

void MdsCluster::cancel_drain(MdsId m) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  draining_[static_cast<std::size_t>(m)] = 0;
  if (cache_tier_ != nullptr) cache_tier_->on_drain_end(m);
}

bool MdsCluster::retire(MdsId m) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  LUNULE_CHECK(is_up(m));
  LUNULE_CHECK(alive_count() >= 2);
  // Not drained yet: still authoritative for something, or a migration
  // (either direction) would be orphaned by its disappearance.
  if (!owned_units(m).empty() || migration_->touches(m)) return false;
  MdsServer& s = servers_[static_cast<std::size_t>(m)];
  s.set_up(false);
  draining_[static_cast<std::size_t>(m)] = 0;
  if (cache_tier_ != nullptr) cache_tier_->on_drain_end(m);
  ++elasticity_.retirements;
  trace_->record(obs::Component::kCluster,
                 {.kind = obs::EventKind::kMdsRetire, .a = m});
  return true;
}

std::size_t MdsCluster::alive_count() const {
  std::size_t n = 0;
  for (const MdsServer& s : servers_) {
    if (s.up()) ++n;
  }
  return n;
}

MdsCluster::FailoverStats MdsCluster::set_down(MdsId m) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  LUNULE_CHECK(is_up(m));
  LUNULE_CHECK(alive_count() >= 2);  // the last rank cannot crash
  servers_[static_cast<std::size_t>(m)].set_up(false);
  // A crash supersedes any scale-down in progress: the rank is gone now.
  draining_[static_cast<std::size_t>(m)] = 0;

  FailoverStats stats;
  // Abort transfers first: an in-flight export whose endpoint died never
  // commits (the protocol is all-or-nothing), so authority stays with the
  // recorded owner and fails over with everything else below.
  stats.aborted_migrations = migration_->abort_involving(m);

  // Every lease the dead rank granted died with its state; recall before
  // the failover reassigns its subtrees so the recall events carry the
  // pre-crash grantor.
  if (cache_tier_ != nullptr) cache_tier_->on_rank_down(m, now_);

  // Replay the dead rank's journal: only the durable prefix survives the
  // crash, and reconstructing from it takes modeled time that the adopting
  // ranks pay as a capacity-penalty window below.
  journal::ReplayResult replay;
  if (journaling()) {
    replay = journal::replay_journal(journals_[static_cast<std::size_t>(m)],
                                     epoch_, params_.journal);
    stats.replayed_entries = replay.entries_replayed;
    stats.lost_entries = replay.lost_entries;
    stats.replay_seconds = replay.replay_seconds;
    stats.journaled_subtrees = replay.owned.size();
    stats.acked_lost_entries = replay.acked_lost_entries;
    stats.dependency_violations = replay.dependency_violations;
  }

  // Deterministic survivor choice: each orphaned unit goes to the alive
  // rank with the smallest takeover tally so far, ties to the lowest rank.
  // Ranks draining for scale-down are passed over while any other survivor
  // exists — handing them orphans would only grow the drain sweep's work.
  std::vector<std::uint64_t> taken(servers_.size(), 0);
  auto pick_survivor = [&]() -> MdsId {
    MdsId best = kNoMds;
    for (int pass = 0; pass < 2 && best == kNoMds; ++pass) {
      for (std::size_t r = 0; r < servers_.size(); ++r) {
        if (!servers_[r].up()) continue;
        if (pass == 0 && draining_[r] != 0) continue;
        if (best == kNoMds ||
            taken[r] < taken[static_cast<std::size_t>(best)]) {
          best = static_cast<MdsId>(r);
        }
      }
    }
    LUNULE_CHECK(best != kNoMds);
    return best;
  };

  // Hands one orphaned unit (a whole directory or one fragment) to a
  // survivor: re-pin, tally, journal the import and trace the takeover.
  auto take_over = [&](const fs::SubtreeRef& ref) {
    const MdsId to = pick_survivor();
    const std::uint64_t moved = tree_.exclusive_inodes(ref);
    if (ref.is_frag()) {
      tree_.set_frag_auth(ref.dir, ref.frag, to);
    } else {
      tree_.set_auth(ref.dir, to);
    }
    taken[static_cast<std::size_t>(to)] += moved;
    ++stats.subtrees;
    stats.inodes += moved;
    if (journaling()) {
      journals_[static_cast<std::size_t>(to)].append(
          make_entry(journal::EntryType::kImportStart, now_, epoch_, ref.dir,
                     ref.frag, m));
    }
    trace_->record(obs::Component::kFaults,
                   {.kind = obs::EventKind::kTakeover,
                    .a = to,
                    .b = m,
                    .n0 = static_cast<std::int64_t>(ref.dir),
                    .n1 = ref.frag,
                    .v0 = static_cast<double>(moved)});
  };

  // Only pinned directories can reference the dead rank, so walk the pin
  // index in ascending order.  A take-over re-pins a unit of the current
  // directory to another rank, which keeps the directory in the index and
  // adds none, so the walk may re-pin as it goes.
  for (const DirId d : tree_.pinned_dirs()) {
    if (tree_.explicit_auth(d) == m) take_over({.dir = d});
    for (FragId f = 0; f < static_cast<FragId>(tree_.frag_count(d)); ++f) {
      if (tree_.frag(d, f).auth_pin == m) take_over({.dir = d, .frag = f});
    }
  }
  tree_.simplify_auth();

  // Drop the crashed rank's replica bits: its cached copies are gone.  With
  // replication disabled no mask can ever be non-zero (update_replicas is
  // the only setter), so the scan is skipped entirely.
  if (params_.replicate_threshold_iops > 0.0) {
    LUNULE_CHECK(static_cast<std::size_t>(m) < fs::kMaxReplicaRanks);
    const std::uint64_t dead_bit = std::uint64_t{1}
                                   << static_cast<std::uint32_t>(m);
    for (DirId d = 0; d < tree_.dir_count(); ++d) {
      for (fs::FragStats& frag : tree_.frags(d)) {
        frag.replica_mask &= ~dead_bit;
      }
    }
  }

  if (journaling()) {
    // Replay-based takeover: the adopting ranks pay a capacity penalty for
    // the replay window, and the primary adopter (most inodes, ties to the
    // lowest rank) inherits the replayed — decayed — load history, so the
    // next forecast starts from a stale-but-real signal instead of nothing.
    MdsId primary = kNoMds;
    for (std::size_t r = 0; r < servers_.size(); ++r) {
      if (!servers_[r].up() || taken[r] == 0) continue;
      if (primary == kNoMds || taken[r] > taken[static_cast<std::size_t>(primary)]) {
        primary = static_cast<MdsId>(r);
      }
    }
    const Tick window = journal::replay_window_ticks(replay.replay_seconds);
    for (std::size_t r = 0; r < servers_.size(); ++r) {
      if (!servers_[r].up() || taken[r] == 0) continue;
      servers_[r].begin_replay(window,
                               params_.journal.replay_capacity_penalty);
    }
    if (primary != kNoMds) {
      servers_[static_cast<std::size_t>(primary)].restore_history(
          replay.load_history);
    }
    trace_->record(obs::Component::kFaults,
                   {.kind = obs::EventKind::kReplay,
                    .a = primary,
                    .b = m,
                    .n0 = static_cast<std::int64_t>(replay.entries_replayed),
                    .n1 = static_cast<std::int64_t>(replay.lost_entries),
                    .v0 = replay.replay_seconds,
                    .v1 = static_cast<double>(replay.owned.size())});
  }

  ++fault_tallies_.crashes;
  fault_tallies_.failovers += stats;
  trace_->record(obs::Component::kFaults,
                 {.kind = obs::EventKind::kMdsCrash,
                  .a = m,
                  .n0 = static_cast<std::int64_t>(stats.subtrees),
                  .n1 = static_cast<std::int64_t>(stats.aborted_migrations),
                  .v0 = static_cast<double>(stats.inodes)});
  return stats;
}

void MdsCluster::set_up(MdsId m) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  MdsServer& s = servers_[static_cast<std::size_t>(m)];
  if (s.up()) return;
  s.set_up(true);
  s.reset_history();
  // The revived incarnation starts a fresh journal: the old content was
  // consumed by the take-over replay (sequence numbers keep counting).
  if (journaling()) journals_[static_cast<std::size_t>(m)].reset();
  ++fault_tallies_.recoveries;
  trace_->record(obs::Component::kFaults,
                 {.kind = obs::EventKind::kMdsRecover, .a = m});
}

void MdsCluster::set_degrade(MdsId m, double factor) {
  LUNULE_CHECK(static_cast<std::size_t>(m) < servers_.size());
  servers_[static_cast<std::size_t>(m)].set_degrade_factor(factor);
  ++fault_tallies_.degradations;
  trace_->record(obs::Component::kFaults,
                 {.kind = obs::EventKind::kMdsDegrade, .a = m, .v0 = factor});
}

obs::Counters MdsCluster::counter_view() const {
  // Served ops and journal activity read as of the last epoch close; every
  // other counter reads its tally live.  Most names enter the dump with
  // their tally's first event, so a run that never exercises a component
  // carries none of its names.
  obs::Counters c;
  c.set("cluster.ops_served", last_epoch_served_);
  c.set_nonzero("cluster.dirfrag_splits", dirfrag_splits_);

  const MigrationEngine& mig = *migration_;
  c.set_nonzero("migration.submitted", mig.migrations_submitted());
  c.set_nonzero("migration.aborted", mig.migrations_aborted());
  c.set_nonzero("migration.retries_exhausted", mig.retries_exhausted());
  if (mig.migrations_completed() > 0) {
    c.set("migration.completed", mig.migrations_completed());
    c.set("migration.migrated_inodes", mig.total_migrated_inodes());
  }

  const FaultTallies& f = fault_tallies_;
  if (f.crashes > 0) {
    c.set("faults.crashes", f.crashes);
    c.set("faults.takeover_subtrees", f.failovers.subtrees);
  }
  c.set_nonzero("faults.recoveries", f.recoveries);
  c.set_nonzero("faults.degradations", f.degradations);

  c.set_nonzero("autoscaler.scale_ups", elasticity_.activations);
  c.set_nonzero("autoscaler.drains", elasticity_.drains_started);
  c.set_nonzero("autoscaler.scale_downs", elasticity_.retirements);

  if (journaling()) {
    // Sync-mode runs carry no async_* name.
    const bool async = params_.journal.async_mode;
    if (epoch_ > 0) {
      const JournalTotals& t = journal_at_close_;
      c.set("journal.appends", t.appends);
      c.set("journal.bytes_written", t.bytes_written);
      c.set("journal.flushes", t.flushes);
      c.set("journal.segments_trimmed", t.segments_trimmed);
      if (async) {
        c.set("journal.async_acked", t.async_acked);
        c.set("journal.async_background_charges",
              t.async_background_charges);
        c.set("journal.async_throttle_ticks", t.async_throttle_ticks);
      }
    }
    if (f.crashes > 0) {
      // Every crash of a journaling cluster replays the dead rank's journal.
      c.set("journal.replays", f.crashes);
      c.set("journal.replayed_entries", f.failovers.replayed_entries);
      c.set("journal.lost_entries", f.failovers.lost_entries);
      if (async) {
        c.set("journal.async_acked_lost", f.failovers.acked_lost_entries);
      }
    }
  }
  c.set_nonzero("journal.stalls", f.journal_stalls);

  if (cache_tier_ != nullptr) cache_tier_->add_counters(c);
  return c;
}

std::uint64_t MdsCluster::total_served() const {
  std::uint64_t acc = 0;
  for (const MdsServer& s : servers_) acc += s.total_served();
  return acc;
}

std::uint64_t MdsCluster::total_forwards() const {
  std::uint64_t acc = 0;
  for (const MdsServer& s : servers_) acc += s.total_forwards();
  return acc;
}

std::vector<Load> MdsCluster::current_loads() const {
  std::vector<Load> loads;
  loads.reserve(servers_.size());
  for (const MdsServer& s : servers_) loads.push_back(s.current_load());
  return loads;
}

}  // namespace lunule::mds
