#include "workloads/client.h"

#include <algorithm>

#include "common/assert.h"
#include "common/prefetch.h"

namespace lunule::workloads {

Client::Client(std::uint32_t id, ClientParams params,
               std::unique_ptr<WorkloadProgram> program)
    : id_(id), params_(params), program_(std::move(program)) {
  LUNULE_CHECK(program_ != nullptr);
  LUNULE_CHECK(params_.max_ops_per_tick > 0.0);
}

MdsId Client::op_rank(const mds::MdsCluster& cluster, const Op& op) const {
  const fs::NamespaceTree& tree = cluster.tree();
  // Any op on a proxy-promoted directory touches the tier's lease table
  // (absorb / grant / mutation recall), which is shared across ranks; run
  // it in the serial deferred pass.  The tracked set only changes at epoch
  // close, so this read is stable for the whole tick.
  if (cluster.cache_tier_tracks(op.dir)) return kNoMds;
  if (op.kind == OpKind::kCreate) {
    // With a pinned fragment, the fragment a create lands in decides its
    // rank, not the directory's authority, and each create into the
    // directory moves that fragment on (the next file index hashes to the
    // next one), so the rank is not known at bind time.  Such creates run
    // in the serial deferred pass.
    if (tree.dir(op.dir).frag_pin_count() > 0) return kNoMds;
    return tree.auth_of(op.dir);
  }
  // A replicated fragment is served by the least-loaded holder — a pick
  // that reads every rank's open-epoch tally, so it cannot run inside a
  // rank-restricted phase.
  if (tree.frag(op.dir, tree.frag_of(op.dir, op.file)).replicated()) {
    return kNoMds;
  }
  return tree.auth_of_file(op.dir, op.file);
}

MdsId Client::shard_rank(const mds::MdsCluster& cluster, Tick now) const {
  if (done_ || now < params_.start_tick) return kNoMds;
  if (pending_data_ || !have_op_) return kNoMds;
  return op_rank(cluster, op_);
}

void Client::resolve_with_forwards(mds::MdsCluster& cluster, const Op& op,
                                   Tick now, mds::TickLane* lane) {
  const fs::NamespaceTree& tree = cluster.tree();
  // The cache is validated at directory level: after one traversal the
  // client knows the directory's dirfrag->MDS map (like a CephFS client
  // holding the dirfrag tree), so per-frag routing does not re-traverse.
  const MdsId dir_auth = tree.auth_of(op.dir);
  if (locations_.fresh(op.dir, dir_auth, now)) return;
  const std::uint64_t before = forwards_;

  // Cache miss, stale entry or expired lease: the request traverses the
  // path from the root, bouncing once per authority boundary crossed off
  // the MDS above the boundary.  The walk goes up from the directory, so
  // it needs no stack at any depth.  Its charges are those of the
  // downward path in reverse order, and the order leaves no trace: each
  // charge is a unit decrement, clamped at zero, of one rank's budget, or
  // one increment of a lane counter that the merge applies the same way.
  MdsId below = dir_auth;
  for (DirId d = op.dir; d != tree.root();) {
    d = tree.parent(d);
    const MdsId above = tree.auth_of(d);
    if (above != below) {
      ++forwards_;
      cluster.charge_forward(above, lane);
      below = above;
    }
  }
  // A create is served by the fragment its new dentry lands in.
  const FileIndex file = op.kind == OpKind::kCreate
                             ? tree.dir(op.dir).file_count()
                             : op.file;
  if (tree.auth_of_file(op.dir, file) != dir_auth) {
    // One extra hop when the file's dirfrag is pinned away from its dir.
    ++forwards_;
    cluster.charge_forward(dir_auth, lane);
  }
  locations_.remember(op.dir, dir_auth, now + params_.lease_ticks, now);
  // Each redirect costs the client a round trip: it consumes issue budget
  // just like an operation would (closed loop — forwards slow the client
  // down, which is how Dir-Hash's locality destruction hurts end-to-end
  // throughput in the paper).
  budget_ -= static_cast<double>(forwards_ - before);
}

std::uint32_t Client::run_tick(mds::MdsCluster& cluster, mds::DataPath* data,
                               Tick now, const ShardBinding* shard,
                               bool* paused) {
  if (done_ || now < params_.start_tick) return 0;
  // Per-tick bookkeeping runs once even when the sharded engine calls this
  // twice (shard phase, then the deferred continuation after a pause).
  if (refill_tick_ != now) {
    refill_tick_ = now;
    started_ = true;
    ++active_;
    tick_served_ = 0;
    budget_ = std::min(budget_ + params_.max_ops_per_tick,
                       2.0 * params_.max_ops_per_tick);
  }
  std::uint32_t served = 0;
  // Ops served in the tick of their first attempt, added to the latency
  // histogram as one batch below.  Latencies are whole ticks, and
  // integer-valued doubles below 2^53 sum to the same bits in any
  // grouping, so add(1.0, k) equals k calls of add(1.0) in any order with
  // the other adds.  Sub-tick latencies would break that: revisit this
  // batch if latency ever records fractions of a tick.
  std::uint64_t first_tick_served = 0;
  bool pause = false;
  while (budget_ >= 1.0) {
    if (pending_data_) {
      if (shard != nullptr) {
        pause = true;  // the data path is shared across ranks
        break;
      }
      LUNULE_CHECK(data != nullptr);
      if (!data->try_serve()) break;  // data path saturated: stall
      pending_data_ = false;
      ++data_ops_;
      budget_ -= 1.0;
      continue;
    }
    if (!have_op_) {
      if (shard != nullptr) {
        pause = true;  // fetching may end the job: finalize serially
        break;
      }
      if (!program_->next(op_)) {
        done_ = true;
        completion_tick_ = now;
        break;
      }
      have_op_ = true;
    }
    if (shard != nullptr && op_rank(cluster, op_) != shard->rank) {
      pause = true;  // the stream moved off this rank mid-tick
      break;
    }
    if (op_.kind != OpKind::kCreate) {
      // Serving reads the op's file state once the op is routed; start
      // that load now.  Not before the rank check: another rank's stream
      // may be growing that directory's file table.
      prefetch_lines(&cluster.tree().dir(op_.dir).file(op_.file));
    }
    if (op_first_attempt_ < 0) op_first_attempt_ = now;
    resolve_with_forwards(cluster, op_, now,
                          shard != nullptr ? shard->lane : nullptr);
    mds::TickLane* lane = shard != nullptr ? shard->lane : nullptr;
    const mds::ServeResult res =
        op_.kind == OpKind::kCreate
            ? cluster.try_create(op_.dir, lane)
            : cluster.try_serve(op_.dir, op_.file, lane);
    if (res != mds::ServeResult::kServed) break;  // head-of-line blocking
    budget_ -= 1.0;
    ++meta_ops_;
    ++served;
    if (op_first_attempt_ == now) {
      ++first_tick_served;
    } else {
      latency_.add(static_cast<double>(now - op_first_attempt_ + 1));
    }
    op_first_attempt_ = -1;
    const bool had_data = op_.has_data && data != nullptr;
    if (had_data) pending_data_ = true;
    // Fetch the next operation eagerly so job completion is recorded at
    // the tick the last operation was served, not one tick later.
    if (!program_->next(op_)) {
      have_op_ = false;
      if (!pending_data_) {
        done_ = true;
        completion_tick_ = now;
        break;
      }
    }
  }
  if (first_tick_served > 0) latency_.add(1.0, first_tick_served);
  tick_served_ += served;
  if (pause) {
    // The client still has budget and work but must leave the rank stream;
    // stall accounting waits for the deferred continuation.
    if (paused != nullptr) *paused = true;
    return served;
  }
  if (tick_served_ == 0 && !done_) ++stalled_;
  return served;
}

}  // namespace lunule::workloads
