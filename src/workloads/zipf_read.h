// Filebench Zipfian read program ("Zipf" of Table 1).
//
// Each client exclusively accesses its own non-shared directory and reads
// files at random following a Zipf distribution — the paper's configuration
// implements the 80/20 rule (80% of requests touch 20% of the files),
// yielding strong temporal locality with a stable per-directory load.
#pragma once

#include <memory>

#include "common/rng.h"
#include "common/zipf.h"
#include "workloads/workload.h"

namespace lunule::workloads {

class ZipfReadProgram final : public WorkloadProgram {
 public:
  /// dir: the client's private directory with `files` pre-created files;
  /// requests: file reads the client performs before its job completes.
  ZipfReadProgram(DirId dir, std::uint32_t files, std::uint64_t requests,
                  std::shared_ptr<const ZipfSampler> sampler, Rng rng,
                  double meta_ratio = 0.5);

  bool next(Op& out) override;
  [[nodiscard]] std::uint64_t planned_meta_ops() const override;

 private:
  DirId dir_;
  std::uint64_t remaining_files_;
  std::shared_ptr<const ZipfSampler> sampler_;
  Rng rng_;
  MetaOpPacer pacer_;
  std::uint32_t meta_left_ = 0;
  FileIndex current_file_ = 0;
};

}  // namespace lunule::workloads
