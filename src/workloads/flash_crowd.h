// Celebrity-file / thundering-herd read program ("FlashCrowd").
//
// Every client in the fleet hammers one *shared* celebrity directory —
// think the manifest of a just-released container image, or the profile
// directory of an account that went viral — with high-skew Zipfian reads,
// while a small fraction of its requests touches a private background
// directory (the client's own working set).  Unlike the Table 1 workloads,
// whose per-client directories partition cleanly across ranks, the hot
// directory here is indivisible: rebalancing cannot split it, which is
// exactly the regime where Lunule's own evaluation is weakest and a
// hotspot-absorbing proxy tier (MIDAS direction) pays off.
#pragma once

#include <memory>

#include "common/rng.h"
#include "common/zipf.h"
#include "workloads/workload.h"

namespace lunule::workloads {

class FlashCrowdProgram final : public WorkloadProgram {
 public:
  /// hot_dir: the shared celebrity directory (`hot_files` pre-created
  /// files, one Zipf sampler shared by the whole fleet); home_dir: this
  /// client's private background directory; requests: total file touches;
  /// hot_fraction: share of touches aimed at the celebrity directory.
  FlashCrowdProgram(DirId hot_dir, std::uint32_t hot_files, DirId home_dir,
                    std::uint32_t home_files, std::uint64_t requests,
                    double hot_fraction,
                    std::shared_ptr<const ZipfSampler> sampler, Rng rng,
                    double meta_ratio = 0.9);

  bool next(Op& out) override;
  [[nodiscard]] std::uint64_t planned_meta_ops() const override;

 private:
  DirId hot_dir_;
  DirId home_dir_;
  std::uint32_t home_files_;
  std::uint64_t remaining_files_;
  double hot_fraction_;
  std::shared_ptr<const ZipfSampler> sampler_;
  Rng rng_;
  MetaOpPacer pacer_;
  std::uint32_t meta_left_ = 0;
  DirId current_dir_ = kNoDir;
  FileIndex current_file_ = 0;
};

}  // namespace lunule::workloads
