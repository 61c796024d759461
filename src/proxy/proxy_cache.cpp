#include "proxy/proxy_cache.h"

#include <algorithm>

#include "common/assert.h"
#include "fs/namespace_tree.h"
#include "mds/cluster.h"
#include "obs/trace_recorder.h"

namespace lunule::proxy {

ProxyCacheTier::ProxyCacheTier(fs::NamespaceTree& tree, ProxyParams params)
    : tree_(tree), params_(params) {
  LUNULE_CHECK(params_.lease_ticks >= 1);
  LUNULE_CHECK(params_.promote_threshold_iops > 0.0);
  LUNULE_CHECK(params_.max_promoted >= 1);
  demote_threshold_ = params_.demote_threshold_iops > 0.0
                          ? params_.demote_threshold_iops
                          : params_.promote_threshold_iops / 8.0;
}

void ProxyCacheTier::set_tracer(obs::TraceRecorder* trace) { trace_ = trace; }

void ProxyCacheTier::add_counters(obs::Counters& out) const {
  // A name enters the dump with its first event: a tier that never
  // promotes anything leaves the counter dump untouched.
  out.set_nonzero("proxy.reads_absorbed", totals_.reads_absorbed);
  out.set_nonzero("proxy.lease_grants", totals_.lease_grants);
  out.set_nonzero("proxy.lease_recalls", totals_.lease_recalls);
  out.set_nonzero("proxy.lease_expiries", totals_.lease_expiries);
  out.set_nonzero("proxy.promotions", totals_.promotions);
  out.set_nonzero("proxy.demotions", totals_.demotions);
}

ProxyCacheTier::Entry* ProxyCacheTier::find(DirId d) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), d,
      [](const Entry& e, DirId key) { return e.dir < key; });
  return (it != entries_.end() && it->dir == d) ? &*it : nullptr;
}

bool ProxyCacheTier::try_absorb(DirId d, FileIndex i, Tick now) {
  // Untracked directories take the pure-read early exit: this is the only
  // path concurrent rank streams may reach, and it mutates nothing.
  if (!tracks(d)) return false;
  (void)i;  // leases are per-directory: any file under `d` is covered
  Entry* e = find(d);
  LUNULE_CHECK(e != nullptr);
  if (e->grant_tick < 0) return false;
  if (now >= e->lease_until) {
    // Passive expiry: the deadline tick itself is already stale, so a
    // lease never outlives grant + lease_ticks, epoch boundary or not.
    e->grant_tick = -1;
    ++totals_.lease_expiries;
    return false;
  }
  ++e->hits_epoch;
  ++totals_.reads_absorbed;
  return true;
}

void ProxyCacheTier::on_served_read(DirId d, Tick now) {
  if (!tracks(d)) return;
  Entry* e = find(d);
  LUNULE_CHECK(e != nullptr);
  // A valid lease would have absorbed the read, so reaching here means the
  // lease is dead (or never existed): this is always a fresh grant.
  const MdsId grantor = tree_.auth_of(d);
  if (static_cast<std::size_t>(grantor) < no_grant_.size() &&
      no_grant_[static_cast<std::size_t>(grantor)] != 0) {
    return;  // a draining rank sheds leases, it does not mint new ones
  }
  e->grant_tick = now;
  e->lease_until = now + params_.lease_ticks;
  e->grantor = grantor;
  e->file_count_at_grant = tree_.dir(d).file_count();
  e->frag_bits_at_grant = tree_.frag_bits(d);
  ++totals_.lease_grants;
  if (trace_ != nullptr) {
    trace_->record(obs::Component::kCluster,
                   {.kind = obs::EventKind::kLeaseGrant,
                    .a = grantor,
                    .n0 = static_cast<std::int64_t>(d),
                    .n1 = static_cast<std::int64_t>(e->lease_until),
                    .v0 = static_cast<double>(params_.lease_ticks)});
  }
}

void ProxyCacheTier::recall(Entry& e, RecallReason reason) {
  if (e.grant_tick < 0) return;  // nothing to revoke
  e.grant_tick = -1;
  ++totals_.lease_recalls;
  if (trace_ != nullptr) {
    trace_->record(obs::Component::kCluster,
                   {.kind = obs::EventKind::kLeaseRecall,
                    .a = e.grantor,
                    .n0 = static_cast<std::int64_t>(e.dir),
                    .n1 = static_cast<std::int64_t>(reason),
                    .v0 = static_cast<double>(e.hits_epoch)});
  }
}

void ProxyCacheTier::on_mutation(DirId d, Tick now) {
  (void)now;
  if (!tracks(d)) return;
  recall(*find(d), RecallReason::kMutation);
}

void ProxyCacheTier::on_split(DirId d, Tick now) {
  (void)now;
  if (!tracks(d)) return;
  recall(*find(d), RecallReason::kSplit);
}

bool ProxyCacheTier::inherits_through(DirId d, DirId ancestor) const {
  for (DirId p = d; p != kNoDir; p = tree_.parent(p)) {
    if (p == ancestor) return true;
  }
  return false;
}

void ProxyCacheTier::on_authority_change(DirId d, Tick now) {
  (void)now;
  // A commit on `d` also re-homes every descendant inheriting authority
  // through it, so the sweep covers the whole (tiny) tracked set.
  for (Entry& e : entries_) {
    if (e.grant_tick < 0) continue;
    if (e.dir == d || inherits_through(e.dir, d)) {
      recall(e, RecallReason::kMigration);
    }
  }
}

void ProxyCacheTier::on_rank_down(MdsId m, Tick now) {
  (void)now;
  for (Entry& e : entries_) {
    if (e.grant_tick >= 0 && e.grantor == m) recall(e, RecallReason::kCrash);
  }
  // A crash supersedes any drain in progress (mirrors the cluster).
  if (static_cast<std::size_t>(m) < no_grant_.size()) {
    no_grant_[static_cast<std::size_t>(m)] = 0;
  }
}

void ProxyCacheTier::on_drain(MdsId m, Tick now) {
  (void)now;
  for (Entry& e : entries_) {
    if (e.grant_tick >= 0 && e.grantor == m) recall(e, RecallReason::kDrain);
  }
  if (static_cast<std::size_t>(m) >= no_grant_.size()) {
    no_grant_.resize(static_cast<std::size_t>(m) + 1, 0);
  }
  no_grant_[static_cast<std::size_t>(m)] = 1;
}

void ProxyCacheTier::on_drain_end(MdsId m) {
  if (static_cast<std::size_t>(m) < no_grant_.size()) {
    no_grant_[static_cast<std::size_t>(m)] = 0;
  }
}

void ProxyCacheTier::promote(DirId d, double rate_iops) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), d,
      [](const Entry& e, DirId key) { return e.dir < key; });
  entries_.insert(it, Entry{.dir = d});
  if (static_cast<std::size_t>(d) >= tracked_.size()) {
    tracked_.resize(tree_.dir_count(), 0);
  }
  tracked_[static_cast<std::size_t>(d)] = 1;
  ++totals_.promotions;
  if (trace_ != nullptr) {
    trace_->record(obs::Component::kCluster,
                   {.kind = obs::EventKind::kProxyPromote,
                    .n0 = static_cast<std::int64_t>(d),
                    .v0 = rate_iops});
  }
}

void ProxyCacheTier::demote(Entry& e, double rate_iops) {
  recall(e, RecallReason::kDemotion);
  tracked_[static_cast<std::size_t>(e.dir)] = 0;
  ++totals_.demotions;
  if (trace_ != nullptr) {
    trace_->record(obs::Component::kCluster,
                   {.kind = obs::EventKind::kProxyDemote,
                    .n0 = static_cast<std::int64_t>(e.dir),
                    .v0 = rate_iops});
  }
}

void ProxyCacheTier::on_epoch_close(mds::MdsCluster& cluster) {
  const double secs = cluster.epoch_seconds();

  // Demotion sweep first (ascending dir order): a promoted directory is
  // judged on its *combined* demand — what the MDS still served plus what
  // the tier absorbed — so a flash crowd fully absorbed by the proxy does
  // not look cold to its own policy.
  demote_scratch_.clear();
  for (Entry& e : entries_) {
    const double rate =
        cluster.recorder().last_epoch_rate(e.dir, secs) +
        static_cast<double>(e.hits_epoch) / secs;
    if (rate < demote_threshold_) demote_scratch_.push_back(e.dir);
    e.hits_epoch = 0;
  }
  for (const DirId d : demote_scratch_) {
    Entry* e = find(d);
    demote(*e, cluster.recorder().last_epoch_rate(d, secs));
    entries_.erase(entries_.begin() + (e - entries_.data()));
  }

  // Promotion: deterministic top-k by last-epoch MDS-served rate (stable
  // tie-break by dir id), shared with the benches via the recorder.
  if (entries_.size() >= params_.max_promoted) return;
  const std::vector<mds::HotDir> hot =
      cluster.recorder().top_hot_dirs(params_.max_promoted, secs);
  for (const mds::HotDir& h : hot) {
    if (entries_.size() >= params_.max_promoted) break;
    if (h.rate_iops <= params_.promote_threshold_iops) break;  // sorted desc
    if (tracks(h.dir)) continue;
    promote(h.dir, h.rate_iops);
  }
}

std::vector<DirId> ProxyCacheTier::promoted_dirs() const {
  std::vector<DirId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.dir);
  return out;
}

bool ProxyCacheTier::leased(DirId d, Tick now) const {
  for (const Entry& e : entries_) {
    if (e.dir == d) return e.grant_tick >= 0 && now < e.lease_until;
  }
  return false;
}

std::vector<std::string> ProxyCacheTier::check_coherence(
    const mds::MdsCluster& cluster) const {
  std::vector<std::string> v;
  auto fail = [&v](DirId d, const std::string& what) {
    v.push_back("proxy coherence: dir " + std::to_string(d) + ": " + what);
  };
  if (entries_.size() > params_.max_promoted) {
    v.push_back("proxy coherence: tracked set exceeds max_promoted");
  }
  for (const Entry& e : entries_) {
    if (e.grant_tick < 0) continue;  // no live lease, nothing to be stale
    // Each condition below corresponds to one invalidation source; a live
    // lease violating one means the matching recall was missed.
    if (e.lease_until != e.grant_tick + params_.lease_ticks) {
      fail(e.dir, "lease TTL exceeds the configured bound");
    }
    if (e.grantor != tree_.auth_of(e.dir)) {
      fail(e.dir, "lease grantor is no longer the directory's authority "
                  "(missed migration/crash recall)");
    }
    if (static_cast<std::size_t>(e.grantor) >= cluster.size() ||
        !cluster.is_up(e.grantor)) {
      fail(e.dir, "lease held from a down rank (missed crash recall)");
    } else if (cluster.is_draining(e.grantor)) {
      fail(e.dir, "lease held from a draining rank (missed drain recall)");
    }
    if (e.file_count_at_grant != tree_.dir(e.dir).file_count()) {
      fail(e.dir, "directory mutated under a live lease "
                  "(missed mutation recall)");
    }
    if (e.frag_bits_at_grant != tree_.frag_bits(e.dir)) {
      fail(e.dir, "directory fragmented under a live lease "
                  "(missed split recall)");
    }
  }
  // Lifetime accounting: the lease algebra over the tier's totals.
  if (totals_.reads_absorbed > 0 && totals_.lease_grants == 0) {
    v.push_back("proxy coherence: reads absorbed without any lease grant");
  }
  if (totals_.demotions > totals_.promotions) {
    v.push_back("proxy coherence: more demotions than promotions");
  }
  return v;
}

}  // namespace lunule::proxy
