#include "core/adaptive_lunule.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace lunule::core {

AdaptiveLunuleBalancer::AdaptiveLunuleBalancer(AdaptiveParams params)
    : params_(params),
      inner_(params.base),
      current_max_subtrees_(params.base.selector.max_subtrees) {
  LUNULE_CHECK(params_.low_validity < params_.high_validity);
  LUNULE_CHECK(params_.min_subtrees >= 1);
  LUNULE_CHECK(params_.min_subtrees <= params_.max_subtrees);
  LUNULE_CHECK(params_.step > 1.0);
  current_max_subtrees_ = std::clamp(current_max_subtrees_,
                                     params_.min_subtrees,
                                     params_.max_subtrees);
}

void AdaptiveLunuleBalancer::on_epoch(mds::MdsCluster& cluster,
                                      std::span<const Load> loads) {
  const EpochId epoch = cluster.epoch();
  if (epoch - last_update_ >= params_.update_interval) {
    last_update_ = epoch;
    const mds::MigrationAudit& audit = cluster.audit();
    const std::uint64_t window_total = audit.audited() - seen_total_;
    if (window_total >= 4) {  // enough evidence to act on
      const std::uint64_t window_valid = audit.valid() - seen_valid_;
      const double validity = static_cast<double>(window_valid) /
                              static_cast<double>(window_total);
      std::size_t next = current_max_subtrees_;
      if (validity < params_.low_validity) {
        next = static_cast<std::size_t>(
            std::floor(static_cast<double>(next) / params_.step));
      } else if (validity > params_.high_validity) {
        next = static_cast<std::size_t>(
            std::ceil(static_cast<double>(next) * params_.step));
      }
      next = std::clamp(next, params_.min_subtrees, params_.max_subtrees);
      if (next != current_max_subtrees_) {
        current_max_subtrees_ = next;
        inner_.set_max_subtrees(next);
      }
      seen_total_ = audit.audited();
      seen_valid_ = audit.valid();
    }
  }
  inner_.on_epoch(cluster, loads);
}

}  // namespace lunule::core
