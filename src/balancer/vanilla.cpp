#include "balancer/vanilla.h"

#include <algorithm>
#include <vector>

#include "balancer/candidates.h"
#include "common/stats.h"

namespace lunule::balancer {

void VanillaBalancer::on_epoch(mds::MdsCluster& cluster,
                               std::span<const Load> loads) {
  // The average (the rebalance target) spans alive ranks only: a crashed
  // MDS reports zero load and would otherwise both drag the average down
  // and look like the roomiest importer.
  double sum = 0.0;
  std::size_t alive = 0;
  for (std::size_t j = 0; j < loads.size(); ++j) {
    if (!cluster.is_up(static_cast<MdsId>(j))) continue;
    sum += loads[j];
    ++alive;
  }
  if (alive == 0) return;
  const double avg = sum / static_cast<double>(alive);
  if (avg <= params_.idle_epsilon) return;

  // Importers: everything below average, ordered lightest-first, each with
  // capacity (avg - load).  The vanilla balancer has no notion of importer
  // future load or per-epoch migration capacity.
  struct Importer {
    MdsId id;
    double room;
  };
  std::vector<Importer> importers;
  for (std::size_t j = 0; j < loads.size(); ++j) {
    if (!cluster.is_up(static_cast<MdsId>(j))) continue;
    // A draining rank is being emptied by the autoscaler; its low load is
    // not spare room, and the migration engine would refuse the import
    // anyway.
    if (cluster.is_draining(static_cast<MdsId>(j))) continue;
    if (loads[j] < avg) {
      importers.push_back(
          {static_cast<MdsId>(j), avg - loads[j]});
    }
  }
  std::sort(importers.begin(), importers.end(),
            [](const Importer& a, const Importer& b) {
              return a.room > b.room;
            });
  if (importers.empty()) return;

  for (std::size_t i = 0; i < loads.size(); ++i) {
    // Relative trigger only: inefficiency #1.
    if (loads[i] <= avg * params_.rebalance_factor) continue;
    const auto exporter = static_cast<MdsId>(i);
    double excess = loads[i] - avg;

    // Rank this exporter's subtrees by heat (inefficiency #3) and estimate
    // each candidate's load as its heat share of the exporter's load.
    std::size_t queued = 0;
    const auto queue_export = [&](const Candidate& c, double est_load) {
      if (excess <= 0.0 || queued >= params_.max_exports_per_epoch) {
        return false;
      }
      // CephFS's find_exports never exports a subtree hotter than what the
      // target importer should receive: it descends into it instead, and a
      // leaf directory of plain files has nothing to descend into — the
      // scan-front directory of the CNN/NLP workloads is therefore
      // unexportable and the hotspot never moves (Section 2.2).
      Importer* target = nullptr;
      for (Importer& imp : importers) {
        if (est_load <= imp.room) {
          target = &imp;
          break;
        }
      }
      if (target == nullptr) return true;
      if (cluster.migration().submit(c.ref, target->id)) {
        cluster.trace().record(obs::Component::kBalancer,
                               {.kind = obs::EventKind::kDecision,
                                .a = exporter,
                                .b = target->id,
                                .v0 = est_load});
        cluster.trace().record(obs::Component::kSelector,
                               {.kind = obs::EventKind::kHeatSelection,
                                .a = exporter,
                                .b = c.ref.frag,
                                .n0 = static_cast<std::int64_t>(c.ref.dir),
                                .n1 = static_cast<std::int64_t>(c.inodes),
                                .v0 = est_load});
        ++queued;
        excess -= est_load;
        target->room -= est_load;
      }
      return true;
    };
    walk_heat_share(cands_, cluster, exporter, loads[i], queue_export);
  }
}

}  // namespace lunule::balancer
