#include "balancer/mantle.h"

#include <memory>
#include <utility>

#include "balancer/candidates.h"
#include "common/assert.h"

namespace lunule::balancer {

MantleBalancer::MantleBalancer(std::string name, MantleWhenFn when,
                               MantleHowMuchFn howmuch)
    : name_(std::move(name)),
      when_(std::move(when)),
      howmuch_(std::move(howmuch)) {
  LUNULE_CHECK(when_ != nullptr);
  LUNULE_CHECK(howmuch_ != nullptr);
}

void MantleBalancer::on_epoch(mds::MdsCluster& cluster,
                              std::span<const Load> loads) {
  const MantleContext ctx{.loads = loads, .epoch = cluster.epoch()};
  if (!when_(ctx)) return;

  for (const SpillTarget& spill : howmuch_(ctx)) {
    if (spill.amount <= 0.0) continue;
    // A Mantle lambda sees only the load vector; drop any spill whose
    // endpoint is a crashed rank before it reaches the migration engine.
    if (!cluster.is_up(spill.from) || !cluster.is_up(spill.to)) continue;
    // Mantle keeps CephFS's heat-based candidate selection: rank the
    // exporter's subtrees by heat and queue them until the heat-share
    // estimate covers the requested amount.
    double remaining = spill.amount;
    const auto queue_export = [&](const Candidate& c, double est_load) {
      if (remaining <= 0.0) return false;
      // Same rule as CephFS's find_exports: a subtree hotter than the
      // remaining spill amount is descended into, not exported; leaf
      // directories therefore stay put.
      if (est_load > remaining) return true;
      if (cluster.migration().submit(c.ref, spill.to)) {
        cluster.trace().record(obs::Component::kBalancer,
                               {.kind = obs::EventKind::kDecision,
                                .a = spill.from,
                                .b = spill.to,
                                .v0 = est_load});
        remaining -= est_load;
      }
      return true;
    };
    walk_heat_share(cands_, cluster, spill.from,
                    loads[static_cast<std::size_t>(spill.from)],
                    queue_export);
  }
}

std::unique_ptr<MantleBalancer> make_greedy_spill(GreedySpillParams params) {
  auto when = [params](const MantleContext& ctx) {
    // Trigger whenever some MDS is loaded while its successor is idle.
    for (std::size_t i = 0; i + 1 < ctx.loads.size(); ++i) {
      if (ctx.loads[i] > params.idle_threshold &&
          ctx.loads[i + 1] <= params.idle_threshold) {
        return true;
      }
    }
    return false;
  };
  auto howmuch = [params](const MantleContext& ctx) {
    std::vector<SpillTarget> out;
    for (std::size_t i = 0; i + 1 < ctx.loads.size(); ++i) {
      if (ctx.loads[i] > params.idle_threshold &&
          ctx.loads[i + 1] <= params.idle_threshold) {
        out.push_back(SpillTarget{
            .from = static_cast<MdsId>(i),
            .to = static_cast<MdsId>(i + 1),
            .amount = ctx.loads[i] * params.spill_fraction,
        });
      }
    }
    return out;
  };
  return std::make_unique<MantleBalancer>("GreedySpill", std::move(when),
                                          std::move(howmuch));
}

}  // namespace lunule::balancer
