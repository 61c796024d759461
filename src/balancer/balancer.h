// The metadata load-balancer interface.
//
// A balancer observes the cluster once per epoch (the paper's re-balance
// interval, 10 s by default) and reacts by submitting subtree export tasks
// to the cluster's migration engine.  Implementations:
//   * VanillaBalancer     — CephFS's built-in balancer (Section 2.2 model),
//   * MantleBalancer      — programmable when/how-much framework, used to
//     host the GreedySpill policy (the paper's second baseline),
//   * DirHashBalancer     — static hash pinning (Section 4.6's "Dir-Hash"),
//   * core::LunuleBalancer— the paper's contribution; its selection rule
//     also makes the -Light ablation and Lunule-Hash (§3.4 generality).
#pragma once

#include <span>
#include <string_view>

#include "common/types.h"
#include "mds/cluster.h"

namespace lunule::balancer {

class Balancer {
 public:
  virtual ~Balancer() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// One-time hook after the namespace is built and before clients start
  /// (e.g. Dir-Hash performs its static pinning here).
  virtual void setup(mds::MdsCluster& /*cluster*/) {}

  /// Epoch hook: `loads` are the per-MDS IOPS of the just-closed epoch.
  virtual void on_epoch(mds::MdsCluster& cluster,
                        std::span<const Load> loads) = 0;
};

/// A balancer that never migrates anything (control runs / unit tests).
class NullBalancer final : public Balancer {
 public:
  [[nodiscard]] std::string_view name() const override { return "none"; }
  void on_epoch(mds::MdsCluster&, std::span<const Load>) override {}
};

}  // namespace lunule::balancer
