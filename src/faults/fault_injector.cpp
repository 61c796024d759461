#include "faults/fault_injector.h"

#include <algorithm>

namespace lunule::faults {

FaultInjector::FaultInjector(mds::MdsCluster& cluster, const FaultPlan& plan)
    : cluster_(cluster) {
  std::size_t seq = 0;
  for (const FaultEvent& e : plan.events) {
    switch (e.kind) {
      case FaultKind::kCrash:
        actions_.push_back({.at = e.at_tick,
                            .seq = seq++,
                            .action = Action::kDown,
                            .mds = e.mds});
        actions_.push_back({.at = e.at_tick + e.duration,
                            .seq = seq++,
                            .action = Action::kUp,
                            .mds = e.mds});
        break;
      case FaultKind::kPermanentLoss:
        actions_.push_back({.at = e.at_tick,
                            .seq = seq++,
                            .action = Action::kDown,
                            .mds = e.mds});
        break;
      case FaultKind::kSlowNode:
        actions_.push_back({.at = e.at_tick,
                            .seq = seq++,
                            .action = Action::kDegrade,
                            .mds = e.mds,
                            .factor = e.factor});
        actions_.push_back({.at = e.at_tick + e.duration,
                            .seq = seq++,
                            .action = Action::kDegrade,
                            .mds = e.mds,
                            .factor = 1.0});
        break;
      case FaultKind::kAbortMigrations:
        actions_.push_back({.at = e.at_tick,
                            .seq = seq++,
                            .action = Action::kAbort,
                            .mds = e.mds});
        break;
      case FaultKind::kJournalStall:
        actions_.push_back({.at = e.at_tick,
                            .seq = seq++,
                            .action = Action::kStallJournal,
                            .mds = e.mds,
                            .duration = e.duration});
        break;
    }
  }
  std::sort(actions_.begin(), actions_.end(),
            [](const Step& a, const Step& b) {
              return a.at != b.at ? a.at < b.at : a.seq < b.seq;
            });
}

void FaultInjector::on_tick(Tick now) {
  if (done()) return;
  bool any = false;
  while (next_ < actions_.size() && actions_[next_].at <= now) {
    if (!any) {
      // Stamp the recorder before the cluster does (begin_tick runs after
      // injection), so fault events carry the tick they fired on.
      cluster_.trace().set_clock(cluster_.epoch(), now);
      any = true;
    }
    apply(actions_[next_]);
    ++next_;
  }
}

void FaultInjector::apply(const Step& s) {
  switch (s.action) {
    case Action::kDown: {
      if (cluster_.alive_count() < 2 || !cluster_.is_up(s.mds)) {
        // Downing the last alive rank (or one already down from an
        // overlapping event) is refused, not fatal: the plan is data and
        // may describe a pile-up the cluster cannot survive.
        ++totals_.skipped;
        return;
      }
      totals_ += cluster_.set_down(s.mds);
      ++totals_.applied;
      return;
    }
    case Action::kUp:
      cluster_.set_up(s.mds);
      ++totals_.applied;
      return;
    case Action::kDegrade:
      cluster_.set_degrade(s.mds, s.factor);
      ++totals_.applied;
      return;
    case Action::kAbort:
      totals_.aborted_migrations +=
          cluster_.migration().force_abort_active(s.mds);
      ++totals_.applied;
      return;
    case Action::kStallJournal:
      if (!cluster_.journaling()) {
        // There is no journal to stall: the fault cannot land.
        ++totals_.skipped;
        return;
      }
      cluster_.stall_journal(s.mds, s.at + s.duration);
      ++totals_.applied;
      return;
  }
}

}  // namespace lunule::faults
