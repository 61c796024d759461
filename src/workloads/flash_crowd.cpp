#include "workloads/flash_crowd.h"

#include "common/assert.h"

namespace lunule::workloads {

FlashCrowdProgram::FlashCrowdProgram(
    DirId hot_dir, std::uint32_t hot_files, DirId home_dir,
    std::uint32_t home_files, std::uint64_t requests, double hot_fraction,
    std::shared_ptr<const ZipfSampler> sampler, Rng rng, double meta_ratio)
    : hot_dir_(hot_dir),
      home_dir_(home_dir),
      home_files_(home_files),
      remaining_files_(requests),
      hot_fraction_(hot_fraction),
      sampler_(std::move(sampler)),
      rng_(rng),
      pacer_(meta_ops_for_ratio(meta_ratio), /*with_data=*/true) {
  LUNULE_CHECK(sampler_ != nullptr);
  LUNULE_CHECK(sampler_->universe() == hot_files);
  LUNULE_CHECK(home_files_ > 0);
  LUNULE_CHECK(hot_fraction_ >= 0.0 && hot_fraction_ <= 1.0);
}

std::uint64_t FlashCrowdProgram::planned_meta_ops() const {
  return static_cast<std::uint64_t>(static_cast<double>(remaining_files_) *
                                    pacer_.meta_ops_per_file());
}

bool FlashCrowdProgram::next(Op& out) {
  if (meta_left_ == 0) {
    if (remaining_files_ == 0) return false;
    --remaining_files_;
    if (rng_.next_bool(hot_fraction_)) {
      // Celebrity touch: high-skew Zipf over the shared directory, ranks
      // scattered across indices so the hot set is not a contiguous
      // prefix (same convention as ZipfReadProgram).
      current_dir_ = hot_dir_;
      current_file_ =
          static_cast<FileIndex>(sampler_->sample_scattered(rng_));
    } else {
      current_dir_ = home_dir_;
      current_file_ =
          static_cast<FileIndex>(rng_.next_below(home_files_));
    }
    meta_left_ = pacer_.begin_file();
  }
  out.dir = current_dir_;
  out.file = current_file_;
  out.kind = OpKind::kLookup;
  --meta_left_;
  out.has_data = meta_left_ == 0;
  return true;
}

}  // namespace lunule::workloads
