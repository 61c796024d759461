#include "obs/invariant_checker.h"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "obs/trace_recorder.h"

namespace lunule::obs {

namespace {

/// Collects violations with printf-free formatting.
class Violations {
 public:
  template <typename... Parts>
  void add(Parts&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    items_.push_back(os.str());
  }

  [[nodiscard]] std::vector<std::string> take() { return std::move(items_); }

 private:
  std::vector<std::string> items_;
};

}  // namespace

std::vector<std::string> InvariantChecker::check_epoch(
    const mds::MdsCluster& cluster, std::span<const Load> loads) {
  Violations v;
  const std::size_t n = cluster.size();
  const double epoch_seconds = cluster.epoch_seconds();

  // 1. Load conservation: sampled loads are the servers' last-epoch loads,
  //    and their sum accounts exactly for the operations served since the
  //    previous check (Σ per-MDS load == aggregate).
  if (loads.size() != n) {
    v.add("load vector size ", loads.size(), " != cluster size ", n);
  } else {
    double sum_loads = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Load server_load =
          cluster.server(static_cast<MdsId>(i)).current_load();
      if (loads[i] != server_load) {
        v.add("mds.", i, " sampled load ", loads[i],
              " != server last-epoch load ", server_load);
      }
      if (loads[i] < 0.0) v.add("mds.", i, " negative load ", loads[i]);
      sum_loads += loads[i];
    }
    const std::uint64_t served_total = cluster.total_served();
    const auto served_delta =
        static_cast<double>(served_total - last_served_total_);
    if (std::abs(sum_loads * epoch_seconds - served_delta) > 1e-6) {
      v.add("aggregate load ", sum_loads, " IOPS x ", epoch_seconds,
            " s != ", served_delta, " ops served this epoch");
    }
    last_served_total_ = served_total;
  }

  // 2. Unused (see the header): the counters read the tallies audited here.

  // 3. Subtree authority is a partition of the namespace: every unit
  //    resolves to a valid, live rank, and each directory's fragment file
  //    counts sum to its file count.
  const fs::NamespaceTree& tree = cluster.tree();
  for (DirId d = 0; d < tree.dir_count(); ++d) {
    const fs::Directory& dir = tree.dir(d);
    const MdsId dir_auth = tree.auth_of(d);
    if (dir_auth < 0 || static_cast<std::size_t>(dir_auth) >= n) {
      v.add("dir ", d, " resolves to invalid authority ", dir_auth);
      continue;
    }
    // Fail-over completeness: nothing may still resolve to a crashed rank
    // once the epoch closes (set_down reassigns synchronously).
    if (!cluster.is_up(dir_auth)) {
      v.add("dir ", d, " resolves to down authority ", dir_auth);
    }
    std::uint64_t frag_files = 0;
    for (std::size_t f = 0; f < tree.frags(d).size(); ++f) {
      const fs::FragStats& frag = tree.frags(d)[f];
      const MdsId a = frag.auth_pin != kNoMds ? frag.auth_pin : dir_auth;
      if (a < 0 || static_cast<std::size_t>(a) >= n) {
        v.add("dirfrag ", d, "/", f, " resolves to invalid authority ", a);
      } else if (!cluster.is_up(a)) {
        v.add("dirfrag ", d, "/", f, " resolves to down authority ", a);
      }
      frag_files += frag.file_count;
    }
    if (frag_files != dir.file_count()) {
      v.add("dir ", d, " frag file counts sum to ", frag_files,
            " but the directory holds ", dir.file_count());
    }
  }

  // 4. Migration-engine task sanity.
  const mds::MigrationEngine& migration = cluster.migration();
  const auto max_inflight =
      static_cast<std::size_t>(migration.params().max_inflight_per_exporter);
  std::vector<std::size_t> active_per_exporter(n, 0);
  for (const mds::ExportTask& t : migration.tasks()) {
    if (t.from == t.to) v.add("migration task exports to itself (", t.from, ")");
    if (t.from < 0 || static_cast<std::size_t>(t.from) >= n ||
        t.to < 0 || static_cast<std::size_t>(t.to) >= n) {
      v.add("migration task endpoints out of range: ", t.from, " -> ", t.to);
      continue;
    }
    if (t.inodes == 0) v.add("migration task with zero inodes queued");
    // Crash handling drops every task touching a downed rank; one
    // surviving here means abort_involving missed it.
    if (!cluster.is_up(t.from) || !cluster.is_up(t.to)) {
      v.add("migration task with down endpoint: ", t.from, " -> ", t.to);
    }
    if (t.transferred < 0.0 ||
        t.transferred > static_cast<double>(t.inodes)) {
      v.add("migration task progress ", t.transferred, " outside [0, ",
            t.inodes, "]");
    }
    if (t.active) ++active_per_exporter[static_cast<std::size_t>(t.from)];
  }
  for (std::size_t m = 0; m < n; ++m) {
    if (active_per_exporter[m] > max_inflight) {
      v.add("mds.", m, " has ", active_per_exporter[m],
            " active exports, limit ", max_inflight);
    }
  }

  // 5. Journal coherence (only when the cluster journals).  The epoch just
  //    closed appended one ESubtreeMap per alive rank, so the newest
  //    retained checkpoint must describe exactly what the rank owns now —
  //    a drifting checkpoint means a journal hook was missed and a replay
  //    from it would reconstruct the wrong authority map.  Every rank's
  //    live authority set comes from one ascending pass over the namespace
  //    (not from the pin index the cluster's checkpoints walk): dirs
  //    ascending, a whole-directory pin before that directory's fragment
  //    pins.
  if (cluster.journaling()) {
    std::vector<std::vector<fs::SubtreeRef>> owned(n);
    const auto claim = [&](MdsId m, const fs::SubtreeRef& ref) {
      if (m >= 0 && static_cast<std::size_t>(m) < n) {
        owned[static_cast<std::size_t>(m)].push_back(ref);
      }
    };
    for (DirId d = 0; d < tree.dir_count(); ++d) {
      claim(tree.explicit_auth(d), fs::SubtreeRef{.dir = d});
      for (FragId f = 0; f < static_cast<FragId>(tree.frag_count(d)); ++f) {
        claim(tree.frag(d, f).auth_pin, fs::SubtreeRef{.dir = d, .frag = f});
      }
    }
    for (std::size_t m = 0; m < n; ++m) {
      const journal::MdsJournal& j = cluster.journal(static_cast<MdsId>(m));
      if (j.durable_seq() > j.seq()) {
        v.add("mds.", m, " journal durable seq ", j.durable_seq(),
              " ahead of head seq ", j.seq());
      }
      std::uint64_t retained = 0;
      for (const journal::JournalSegment& seg : j.segments()) {
        retained += seg.entries.size();
        if (seg.entries.size() > j.params().segment_entries) {
          v.add("mds.", m, " journal segment holds ", seg.entries.size(),
                " entries, cap ", j.params().segment_entries);
        }
      }
      if (retained != j.entries_retained()) {
        v.add("mds.", m, " journal retains ", retained,
              " entries but reports ", j.entries_retained());
      }
      if (!cluster.is_up(static_cast<MdsId>(m))) continue;
      // Compare the rank's live authority set against the newest retained
      // checkpoint.
      if (j.checkpoints().empty()) {
        v.add("mds.", m, " (alive) has no retained ESubtreeMap checkpoint");
      } else if (const std::vector<fs::SubtreeRef>& newest =
                     j.checkpoints().back().snapshot.owned;
                 newest != owned[m]) {
        v.add("mds.", m, " newest ESubtreeMap describes ", newest.size(),
              " units but the rank owns ", owned[m].size());
      }
    }
  }

  // 6. Hot-path caches.  The flat authority cache must agree with the
  //    pin-chain oracle for every directory; fragment statistics may never
  //    run ahead of the statistics clock; every fragment outside the
  //    recorder's active set must be fully drained once rolled forward —
  //    a violation means the lazy close expired a still-live directory;
  //    and every fragment outside the window-live set must have six zero
  //    cutting windows once rolled forward — a violation means Lunule's
  //    window-based rules skipped a unit that could score.  The list
  //    those rules collect from, window_live_dirs(), must hold exactly
  //    the directories is_window_live() names.
  {
    const mds::AccessRecorder& recorder = cluster.recorder();
    const EpochId clock = tree.stats_clock();
    const double decay = recorder.params().heat_decay;
    std::vector<std::uint8_t> listed(tree.dir_count(), 0);
    for (const DirId d : recorder.window_live_dirs()) listed[d] = 1;
    for (DirId d = 0; d < tree.dir_count(); ++d) {
      const MdsId cached = tree.auth_of(d);
      const MdsId oracle = tree.resolve_auth_uncached(d);
      if (cached != oracle) {
        v.add("dir ", d, " cached authority ", cached,
              " != recomputed authority ", oracle);
      }
      const bool active = recorder.is_active(d);
      const bool window_live = recorder.is_window_live(d);
      if (window_live != (listed[d] != 0)) {
        v.add("dir ", d,
              window_live ? " is window-live but missing from"
                          : " is not window-live but listed in",
              " window_live_dirs()");
      }
      for (std::size_t f = 0; f < tree.frags(d).size(); ++f) {
        const fs::FragStats& frag = tree.frags(d)[f];
        if (frag.stats_epoch > clock) {
          v.add("dirfrag ", d, "/", f, " stats epoch ", frag.stats_epoch,
                " is ahead of the statistics clock ", clock);
        }
        if (window_live) continue;
        if (!active && (frag.open != fs::EpochCounts{} ||
                        frag.sibling_credit_epoch != 0.0)) {
          v.add("dirfrag ", d, "/", f,
                " has open accumulators but its directory is not active");
        }
        fs::FragStats copy = frag;
        copy.advance_to(clock, decay);
        if (!active && copy.heat > 0.0) {
          v.add("dirfrag ", d, "/", f,
                " still carries heat but its directory was expired from "
                "the active set");
        }
        if (copy.windows.sums() != fs::WindowSums{}) {
          v.add("dirfrag ", d, "/", f,
                " still carries a non-zero cutting window but its "
                "directory is outside the ",
                active ? "window-live set" : "active set");
        }
      }
    }
  }

  // 7. Elasticity.  Membership changes must conserve the serving model:
  //    a rank outside the serving set (cold standby or retired) owns
  //    nothing (section 3 already flags any unit resolving to it), serves
  //    nothing, and carries zero load; a draining rank is still a serving
  //    member and must be up.  Completed-op conservation across scale
  //    events is covered by section 1: total_served is monotone and every
  //    epoch's delta is billed to sampled loads, so a retirement that lost
  //    ops would trip the conservation check above.
  if (was_down_.size() != n) was_down_.assign(n, false);
  for (std::size_t m = 0; m < n; ++m) {
    const auto id = static_cast<MdsId>(m);
    if (!cluster.is_up(id)) {
      if (cluster.is_draining(id)) {
        v.add("mds.", m, " is down but still marked draining");
      }
      // A rank that crashed mid-epoch closed this epoch with whatever it
      // served before dying — only a rank down for the *whole* epoch
      // (cold standby, retired, or still mid-outage) must carry zero.
      if (was_down_[m] && cluster.server(id).current_load() != 0.0) {
        v.add("mds.", m, " was down for the whole epoch but closed it "
              "with load ", cluster.server(id).current_load());
      }
    }
    was_down_[m] = !cluster.is_up(id);
  }

  // 8. Proxy cache-tier coherence.  No read may be served from a lease a
  //    completed invalidation should have revoked: every live lease must
  //    still match the directory state snapshotted at grant (authority,
  //    file count, fragmentation), its grantor must be up and not
  //    draining, its TTL must be bounded, and its lifetime totals must
  //    obey the lease algebra.  The tier owns the check — it knows its
  //    lease table — and the section stays free when no tier is installed.
  if (const mds::CacheTier* tier = cluster.cache_tier()) {
    for (const std::string& msg : tier->check_coherence(cluster)) {
      v.add(msg);
    }
  }

  // 9. Async journal mode.  Acknowledging at apply instead of at flush is
  //    only sound while the acknowledged-but-volatile window stays bounded
  //    and dependencies never dangle: the un-flushed EUpdate backlog must
  //    respect max_unflushed_entries (try_create refuses new creates at
  //    the cap, so the mutation window — the documented crash-loss window —
  //    is exact; migration/checkpoint entries may legitimately push the
  //    *total* backlog past it), every retained entry depends only on a
  //    strictly earlier sequence, every *durable* entry depends on a
  //    durable one (group commit flushes contiguous prefixes, so a
  //    violation means the flush discipline broke), and no rank
  //    acknowledges more entries than it appended.
  if (cluster.journaling() && cluster.params().journal.async_mode) {
    for (std::size_t m = 0; m < n; ++m) {
      const journal::MdsJournal& j = cluster.journal(static_cast<MdsId>(m));
      std::uint64_t unflushed_updates = 0;
      for (const journal::JournalSegment& seg : j.segments()) {
        for (const journal::JournalEntry& e : seg.entries) {
          if (e.dep_seq != 0 && e.dep_seq >= e.seq) {
            v.add("mds.", m, " journal entry seq ", e.seq,
                  " depends on non-earlier seq ", e.dep_seq);
          }
          if (e.seq <= j.durable_seq() && e.dep_seq > j.durable_seq()) {
            v.add("mds.", m, " durable entry seq ", e.seq,
                  " depends on un-flushed seq ", e.dep_seq);
          }
          if (e.seq > j.durable_seq() &&
              e.type == journal::EntryType::kUpdate) {
            ++unflushed_updates;
          }
        }
      }
      if (unflushed_updates > j.params().max_unflushed_entries) {
        v.add("mds.", m, " async journal holds ", unflushed_updates,
              " un-flushed EUpdate entries, loss-window cap ",
              j.params().max_unflushed_entries);
      }
      if (j.async_acked() > j.appends()) {
        v.add("mds.", m, " acknowledged ", j.async_acked(),
              " async entries but appended only ", j.appends());
      }
    }
  }

  ++epochs_checked_;
  return v.take();
}

}  // namespace lunule::obs
