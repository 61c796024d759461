#include "workloads/tenant_mix.h"

#include "common/assert.h"

namespace lunule::workloads {

TenantMixProgram::TenantMixProgram(
    std::shared_ptr<const std::vector<DirId>> tenant_dirs,
    std::uint32_t files_per_tenant, std::uint64_t requests,
    double create_fraction, std::shared_ptr<const ZipfSampler> sampler,
    Rng rng, double meta_ratio)
    : tenant_dirs_(std::move(tenant_dirs)),
      files_per_tenant_(files_per_tenant),
      remaining_files_(requests),
      create_fraction_(create_fraction),
      sampler_(std::move(sampler)),
      rng_(rng),
      pacer_(meta_ops_for_ratio(meta_ratio), /*with_data=*/true) {
  LUNULE_CHECK(tenant_dirs_ != nullptr && !tenant_dirs_->empty());
  LUNULE_CHECK(files_per_tenant_ > 0);
  LUNULE_CHECK(sampler_ != nullptr);
  LUNULE_CHECK(sampler_->universe() == tenant_dirs_->size());
  LUNULE_CHECK(create_fraction_ >= 0.0 && create_fraction_ <= 1.0);
}

std::uint64_t TenantMixProgram::planned_meta_ops() const {
  return static_cast<std::uint64_t>(static_cast<double>(remaining_files_) *
                                    pacer_.meta_ops_per_file());
}

bool TenantMixProgram::next(Op& out) {
  if (meta_left_ == 0) {
    if (remaining_files_ == 0) return false;
    --remaining_files_;
    // Tenant popularity is Zipf over the tenant universe, scattered so the
    // popular tenants are not a contiguous id prefix.
    current_.dir = (*tenant_dirs_)[sampler_->sample_scattered(rng_)];
    if (rng_.next_bool(create_fraction_)) {
      current_.kind = OpKind::kCreate;
      current_.file = 0;  // the MDS assigns the slot
    } else {
      current_.kind = OpKind::kLookup;
      current_.file =
          static_cast<FileIndex>(rng_.next_below(files_per_tenant_));
    }
    meta_left_ = pacer_.begin_file();
  }
  out = current_;
  --meta_left_;
  out.has_data = meta_left_ == 0;
  return true;
}

}  // namespace lunule::workloads
