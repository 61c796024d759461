#include "mds/mds_server.h"

#include <algorithm>

#include "common/assert.h"

namespace lunule::mds {

MdsServer::MdsServer(MdsId id, double capacity_iops)
    : id_(id), capacity_(capacity_iops) {
  LUNULE_CHECK(capacity_iops > 0.0);
  history_.reserve(kHistoryEpochs);
}

void MdsServer::set_degrade_factor(double f) {
  LUNULE_CHECK(f > 0.0 && f <= 1.0);
  degrade_ = f;
}

void MdsServer::reset_history() {
  history_.clear();
  load_ = 0.0;
}

void MdsServer::begin_tick(double capacity_factor) {
  LUNULE_CHECK(capacity_factor > 0.0 && capacity_factor <= 1.0);
  budget_ = up_ ? capacity_ * degrade_ * capacity_factor : 0.0;
  if (replay_ticks_ > 0) {
    budget_ *= 1.0 - replay_penalty_;
    if (--replay_ticks_ == 0) replay_penalty_ = 0.0;
  }
  // Journal I/O queued last tick competes with this tick's foreground.
  if (journal_debt_ > 0.0) {
    budget_ = std::max(0.0, budget_ - journal_debt_);
    journal_debt_ = 0.0;
  }
}

void MdsServer::begin_replay(Tick ticks, double penalty) {
  LUNULE_CHECK(ticks >= 0);
  LUNULE_CHECK(penalty >= 0.0 && penalty < 1.0);
  // A zero-tick window charges nothing: installing its penalty would let a
  // no-op call pollute a later, weaker replay window via the max-merge.
  if (ticks == 0) return;
  replay_ticks_ = std::max(replay_ticks_, ticks);
  replay_penalty_ = std::max(replay_penalty_, penalty);
}

void MdsServer::restore_history(std::span<const double> replayed) {
  if (replayed.empty()) return;
  // Align at the most recent sample; surplus replayed samples extend the
  // window toward the past while it stays under the bound.
  const std::size_t overlap = std::min(history_.size(), replayed.size());
  for (std::size_t i = 0; i < overlap; ++i) {
    history_[history_.size() - 1 - i] += replayed[replayed.size() - 1 - i];
  }
  std::size_t extra = replayed.size() - overlap;
  std::vector<double> lead;
  while (extra > 0 && history_.size() + lead.size() < kHistoryEpochs) {
    lead.push_back(replayed[extra - 1]);
    --extra;
  }
  history_.insert(history_.begin(), lead.rbegin(), lead.rend());
}

void MdsServer::charge_forward(double cost) {
  budget_ -= cost;  // may go (slightly) negative: redirects are not shed
  if (budget_ < 0.0) budget_ = 0.0;
  ++total_forwards_;
}

void MdsServer::close_epoch(double epoch_seconds) {
  LUNULE_CHECK(epoch_seconds > 0.0);
  load_ = static_cast<double>(served_epoch_) / epoch_seconds;
  served_epoch_ = 0;
  if (history_.size() == kHistoryEpochs) {
    history_.erase(history_.begin());
  }
  history_.push_back(load_);
}

}  // namespace lunule::mds
