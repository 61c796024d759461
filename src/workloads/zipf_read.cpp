#include "workloads/zipf_read.h"

#include "common/assert.h"

namespace lunule::workloads {

ZipfReadProgram::ZipfReadProgram(DirId dir, std::uint32_t files,
                                 std::uint64_t requests,
                                 std::shared_ptr<const ZipfSampler> sampler,
                                 Rng rng, double meta_ratio)
    : dir_(dir),
      remaining_files_(requests),
      sampler_(std::move(sampler)),
      rng_(rng),
      pacer_(meta_ops_for_ratio(meta_ratio), /*with_data=*/true) {
  LUNULE_CHECK(sampler_ != nullptr);
  LUNULE_CHECK(sampler_->universe() == files);
}

std::uint64_t ZipfReadProgram::planned_meta_ops() const {
  return static_cast<std::uint64_t>(static_cast<double>(remaining_files_) *
                                    pacer_.meta_ops_per_file());
}

bool ZipfReadProgram::next(Op& out) {
  if (meta_left_ == 0) {
    if (remaining_files_ == 0) return false;
    --remaining_files_;
    // Scatter Zipf ranks across file indices so the hot set is not a
    // contiguous prefix (matches Filebench's random file assignment).
    current_file_ = static_cast<FileIndex>(sampler_->sample_scattered(rng_));
    meta_left_ = pacer_.begin_file();
  }
  out.dir = dir_;
  out.file = current_file_;
  out.kind = OpKind::kLookup;
  --meta_left_;
  out.has_data = meta_left_ == 0;
  return true;
}

}  // namespace lunule::workloads
