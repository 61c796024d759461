// Closed-loop client emulator.
//
// A client replays its workload program against the MDS cluster with a
// bounded issue rate and head-of-line blocking: when the authoritative MDS
// of its next operation is saturated (or the target subtree is frozen by a
// migration), the client stalls for the rest of the tick.  This closed loop
// is what couples aggregate throughput to load balance — a cluster whose
// load sits on one MDS serves at most one MDS's capacity, however many
// clients are running (the behaviour all of the paper's figures measure).
//
// The client also keeps a location cache mirroring the CephFS client's
// dentry leases on subtree bounds: when the cached authority of a
// directory is stale, unknown or out of lease, the request is *forwarded*
// along the path's authority chain (each crossing charges a redirect to
// the MDS it bounces off), reproducing the forwarding overhead that
// penalizes the Dir-Hash baseline (Section 4.6, Figure 14).  The cache
// holds only the directories resolved within the current lease window
// (workloads::LocationCache), so a client's footprint follows its own
// working set, not the size of the namespace.
#pragma once

#include <cstdint>
#include <memory>

#include "common/histogram.h"
#include "common/types.h"
#include "mds/cluster.h"
#include "mds/data_path.h"
#include "workloads/location_cache.h"
#include "workloads/workload.h"

namespace lunule::workloads {

/// Binding of a client onto one rank's operation stream during a shard
/// phase of the sharded tick engine: the client may only issue operations
/// whose authoritative MDS is `rank`, and shared-state effects route
/// through `lane`.
struct ShardBinding {
  MdsId rank = kNoMds;
  mds::TickLane* lane = nullptr;
};

struct ClientParams {
  /// Maximal metadata operations issued per simulated second.
  double max_ops_per_tick = 150.0;
  /// First tick at which this client starts issuing.
  Tick start_tick = 0;
  /// Dentry-lease lifetime: a location resolved at tick t is trusted
  /// through tick t + lease_ticks − 1, and an access at t + lease_ticks
  /// re-traverses the path (CephFS client leases default to tens of
  /// seconds).
  Tick lease_ticks = 30;
};

class Client {
 public:
  Client(std::uint32_t id, ClientParams params,
         std::unique_ptr<WorkloadProgram> program);

  /// Runs one simulation tick; returns the metadata ops served.
  ///
  /// Under the sharded engine the same tick may call this twice: once with
  /// a `shard` binding (rank-restricted stream, shared effects escrowed in
  /// the lane) and — when that call sets `*paused` — once more without a
  /// binding in the serial deferred pass.  The per-tick budget refill and
  /// the stall/active accounting fire exactly once per tick either way.
  std::uint32_t run_tick(mds::MdsCluster& cluster, mds::DataPath* data,
                         Tick now, const ShardBinding* shard = nullptr,
                         bool* paused = nullptr);

  /// The rank this client's next operation binds to for a shard phase, or
  /// kNoMds when the client must run in the serial deferred pass (no
  /// fetched op yet, pending data-path work, a serve that may be routed to
  /// a replica holder, or a create into a frag-pinned directory).
  [[nodiscard]] MdsId shard_rank(const mds::MdsCluster& cluster,
                                 Tick now) const;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool started() const { return started_; }
  /// Tick at which the job finished (valid once done()).
  [[nodiscard]] Tick completion_tick() const { return completion_tick_; }
  [[nodiscard]] std::uint64_t meta_ops_completed() const { return meta_ops_; }
  [[nodiscard]] std::uint64_t data_ops_completed() const { return data_ops_; }
  [[nodiscard]] std::uint64_t forwards() const { return forwards_; }
  /// Ticks in which the client wanted to issue but served nothing —
  /// head-of-line blocked on a saturated/frozen MDS or a full data path.
  [[nodiscard]] std::uint64_t stalled_ticks() const { return stalled_; }
  /// Ticks in which the client was active (started and not yet done).
  [[nodiscard]] std::uint64_t active_ticks() const { return active_; }
  /// Fraction of active time spent fully stalled.
  [[nodiscard]] double stall_fraction() const {
    return active_ == 0 ? 0.0
                        : static_cast<double>(stalled_) /
                              static_cast<double>(active_);
  }
  /// Distribution of per-operation completion latency in ticks (1 = served
  /// in the tick it was issued; higher values count head-of-line blocking
  /// on saturated or frozen MDSs).
  [[nodiscard]] const Histogram& op_latency() const { return latency_; }
  [[nodiscard]] const ClientParams& params() const { return params_; }
  /// The directories whose authority this client holds a lease on.
  [[nodiscard]] const LocationCache& locations() const { return locations_; }

 private:
  /// Walks the op's path when this client's location cache has no live,
  /// current entry for the op's directory, counting and charging one
  /// forward per authority boundary (plus one hop to a dirfrag pinned
  /// away), then leases the directory's authority until now + lease_ticks.
  void resolve_with_forwards(mds::MdsCluster& cluster, const Op& op,
                             Tick now, mds::TickLane* lane);

  /// Rank that would serve `op` right now, or kNoMds when serving it needs
  /// shared state a shard phase must not touch.
  [[nodiscard]] MdsId op_rank(const mds::MdsCluster& cluster,
                              const Op& op) const;

  std::uint32_t id_;
  ClientParams params_;
  std::unique_ptr<WorkloadProgram> program_;

  double budget_ = 0.0;
  bool started_ = false;
  bool done_ = false;
  Tick completion_tick_ = -1;
  std::uint64_t meta_ops_ = 0;
  std::uint64_t data_ops_ = 0;
  std::uint64_t forwards_ = 0;
  std::uint64_t stalled_ = 0;
  std::uint64_t active_ = 0;

  bool have_op_ = false;
  Op op_{};
  bool pending_data_ = false;
  Tick op_first_attempt_ = -1;
  Histogram latency_;
  /// Last tick whose budget refill / active accounting already ran
  /// (guards against double-refill when a tick calls run_tick twice).
  Tick refill_tick_ = -1;
  /// Ops served so far in the current tick, across both calls.
  std::uint32_t tick_served_ = 0;

  /// Leased directory locations: a hit needs the stored authority to equal
  /// the directory's current one and the lease to be live.
  LocationCache locations_;
};

}  // namespace lunule::workloads
