// The Lunule metadata load balancer (Section 3) and its -Light and -Hash
// variants.
//
// Per epoch the balancer:
//   1. collects per-MDS loads through the centralized Load Monitor,
//   2. computes the Imbalance Factor (Eq. 3) and returns immediately while
//      IF stays below the trigger threshold — this is what tolerates benign
//      imbalance (Fig. 12b: no re-balance while all MDSs are lightly
//      loaded),
//   3. runs Algorithm 1 to assign exporter/importer roles and capped,
//      bidirectional migration amounts,
//   4. drops its own stale queued exports (plans are revised each epoch,
//      unlike the vanilla balancer's ever-growing queue), and
//   5. selects units per exporter by its SelectionRule.
#pragma once

#include <cstdint>
#include <vector>

#include "balancer/balancer.h"
#include "balancer/candidates.h"
#include "core/imbalance_factor.h"
#include "core/load_monitor.h"
#include "core/migration_initiator.h"
#include "core/subtree_selector.h"

namespace lunule::core {

/// How a Lunule balancer picks the units that carry out Algorithm 1's
/// amounts (step 5).  Steps 1–4 are the same for every rule.
enum class SelectionRule : std::uint8_t {
  /// "Lunule": the workload-aware mIndex selector (Section 3.3).
  kMIndex,
  /// "Lunule-Light": CephFS's default heat-share selection, isolating the
  /// benefit of the IF model alone (the paper's ablation).
  kHeatShare,
  /// "Lunule-Hash": the IF model on a hash-based metadata service (§3.4).
  /// The paper argues that the IF model generalizes beyond dynamic subtree
  /// partitioning ("assessing the load imbalance level of the target MDS
  /// cluster is a general assumption"), while the subtree selector does
  /// not: a hash service has no subtree semantics.  So placement starts as
  /// Dir-Hash's static pinning (in setup), the IF model and Algorithm 1
  /// run unchanged, and selection uses only what a hash service has, each
  /// shard's (leaf unit's) observed last-epoch load.  The hottest movable
  /// shards of each exporter are re-pinned to its importers through the
  /// normal migration engine, so migration lag, cost and freezing still
  /// apply.  All exporters' re-pins share one inode budget, and
  /// sim::make_balancer sets min_pipeline_fraction to 0: Lunule-Hash plans
  /// whenever the pipeline has any room.  The
  /// ext_generality bench compares this with pure Dir-Hash and full Lunule
  /// on the Web workload: the IF model alone removes most of the static
  /// placement's request skew, while full Lunule keeps its locality
  /// advantage (fewer forwards).
  kHottestShard,
};

struct LunuleParams {
  IfParams if_params;
  /// Re-balance triggers when IF exceeds this threshold.
  double if_threshold = 0.05;
  RoleDeciderParams roles;
  SelectorParams selector;
  SelectionRule selection = SelectionRule::kMIndex;
  /// Lag awareness: the in-flight migration backlog plus any new selection
  /// must never exceed one epoch's migration capacity (selector.inode_cap).
  /// A new plan is only issued while the backlog is below that cap and at
  /// least this fraction of the pipeline is free.  The vanilla balancer's
  /// ignorance of this lag is a root cause of its over-migration
  /// (Section 2.2, inefficiency #2).
  double min_pipeline_fraction = 0.1;

  /// Derives consistent defaults from the cluster configuration: C from the
  /// MDS capacity, Cap from the per-epoch migration bandwidth, and the
  /// selector's window span from the epoch length.
  [[nodiscard]] static LunuleParams for_cluster(
      const mds::ClusterParams& cluster);
};

class LunuleBalancer final : public balancer::Balancer {
 public:
  explicit LunuleBalancer(LunuleParams params);

  [[nodiscard]] std::string_view name() const override;

  /// Lunule-Hash pins every leaf unit exactly like the Dir-Hash baseline;
  /// the subtree rules start from the namespace as built.
  void setup(mds::MdsCluster& cluster) override;

  void on_epoch(mds::MdsCluster& cluster,
                std::span<const Load> loads) override;

  /// Sets the per-decision subtree limit and rebuilds the selector.  The
  /// adaptive wrapper moves it between epochs.
  void set_max_subtrees(std::size_t max_subtrees);

  /// IF value computed at the last epoch (reporting / tests).
  [[nodiscard]] double last_if() const { return last_if_; }
  [[nodiscard]] const MigrationPlan& last_plan() const { return last_plan_; }
  [[nodiscard]] const LoadMonitor& monitor() const { return monitor_; }
  [[nodiscard]] const LunuleParams& params() const { return params_; }

 private:
  void select_mindex(mds::MdsCluster& cluster, MdsId exporter,
                     std::vector<MigrationAssignment> assignments,
                     std::uint64_t inode_budget);
  void select_heat_share(mds::MdsCluster& cluster, MdsId exporter,
                         double exporter_load,
                         std::vector<MigrationAssignment> assignments,
                         std::uint64_t inode_budget);
  void select_hottest_shards(mds::MdsCluster& cluster, MdsId exporter,
                             std::vector<MigrationAssignment> assignments,
                             std::uint64_t& inode_budget);

  LunuleParams params_;
  SubtreeSelector selector_;
  LoadMonitor monitor_;
  double last_if_ = 0.0;
  MigrationPlan last_plan_;
  std::vector<balancer::Candidate> cands_;  // reused across epochs
};

}  // namespace lunule::core
