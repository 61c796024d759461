#include "sim/scenario.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "fs/builder.h"
#include "sim/json_export.h"
#include "workloads/flash_crowd.h"
#include "workloads/mdtest.h"
#include "workloads/scan.h"
#include "workloads/tenant_mix.h"
#include "workloads/web_trace.h"
#include "workloads/zipf_read.h"

namespace lunule::sim {

namespace {

// -- Table 1 metadata-operation ratios --------------------------------------
constexpr double kCnnMetaRatio = 0.781;
constexpr double kNlpMetaRatio = 0.928;
constexpr double kWebMetaRatio = 0.572;
constexpr double kZipfMetaRatio = 0.5;

// -- Default (scale = 1.0) dataset shapes, reduced from the paper's ---------
// CNN scaling note: the paper-faithful quantity is the *dwell time* of the
// client wave inside one class directory (files x meta-ops x clients /
// cluster IOPS), which must exceed the 10-second balancing epoch for the
// heat-based selection pathology to appear.  We therefore keep the per-dir
// population near the ILSVRC2012 value and let `scale` shrink the number
// of class directories (the run length) instead.
struct CnnShape {
  std::uint32_t dirs = 1000;      // ILSVRC2012: 1000 class dirs
  std::uint32_t files = 128;      // paper: ~1280 images per dir
};
struct NlpShape {
  std::uint32_t dirs = 14;        // THUCTC: 14 folders
  std::uint32_t files = 5600;     // paper: ~60k files per folder
};
struct WebShape {
  std::uint32_t sections = 20;
  std::uint32_t dirs_per_section = 15;
  std::uint32_t files = 200;      // 300 dirs x 200 = 60k files (paper 302k)
  std::uint64_t trace_len = 150000;
  std::uint64_t requests_per_client = 60000;  // paper: ~80k per client
  double zipf_exponent = 0.9;
};
struct ZipfShape {
  std::uint32_t files = 10000;    // paper: 10k files per private dir
  std::uint64_t requests_per_client = 120000;
};
struct MdShape {
  // The paper's MDtest clients create continuously until the MDSs run out
  // of memory (~15 minutes): the workload is open-ended within the
  // measurement window, so there is no completion tail.
  std::uint64_t creates_per_client = 0;  // 0 = run until the window closes
};
struct FlashShape {
  // One shared celebrity directory the whole fleet hammers, plus a small
  // private home directory per client for the background traffic.  The
  // hotspot is indivisible (a single dirfrag family), which is exactly the
  // case splitting/migration cannot solve and the proxy tier targets.
  std::uint32_t hot_files = 512;
  std::uint32_t home_files = 64;
  std::uint64_t requests_per_client = 60000;
  double hot_fraction = 0.9;
  double zipf_exponent = 1.1;
};
struct TenantShape {
  // Container-platform tenant universe: thousands of tiny directories with
  // Zipf popularity (a few base images pulled by everyone) and a small
  // create tail (layer pushes).
  std::uint32_t tenants = 2000;
  std::uint32_t files_per_tenant = 8;
  std::uint64_t requests_per_client = 60000;
  double zipf_exponent = 1.0;
  double create_fraction = 0.05;
};

std::uint32_t scaled(std::uint32_t v, double scale) {
  return std::max<std::uint32_t>(
      4, static_cast<std::uint32_t>(std::llround(v * scale)));
}

std::uint64_t scaled64(std::uint64_t v, double scale) {
  if (v == 0) return 0;  // 0 means open-ended; scaling does not apply
  return std::max<std::uint64_t>(
      16, static_cast<std::uint64_t>(std::llround(static_cast<double>(v) * scale)));
}

workloads::ClientParams client_params(const ScenarioConfig& cfg, Rng& rng) {
  workloads::ClientParams p;
  const double jitter =
      1.0 + cfg.client_rate_jitter * (2.0 * rng.next_double() - 1.0);
  p.max_ops_per_tick = std::max(1.0, cfg.client_rate * jitter);
  p.start_tick = cfg.client_start_spread > 0
                     ? rng.next_between(0, cfg.client_start_spread - 1)
                     : 0;
  return p;
}

/// Adds `count` clients numbered from `first_id`.  Each client's program
/// is built first (it may draw from or fork `rng`) and its ClientParams
/// are drawn after it; the pinned trace digests depend on this order.
template <typename MakeProgram>
void add_clients(Simulation& s, const ScenarioConfig& cfg, Rng& rng,
                 std::size_t count, std::uint32_t first_id,
                 MakeProgram make_program) {
  for (std::size_t c = 0; c < count; ++c) {
    std::unique_ptr<workloads::WorkloadProgram> program = make_program(c);
    const workloads::ClientParams params = client_params(cfg, rng);
    s.add_client(std::make_unique<workloads::Client>(
        first_id + static_cast<std::uint32_t>(c), params, std::move(program)));
  }
}

/// Adds a CNN or NLP client group scanning the given dirs.
void add_scan_clients(Simulation& s, const ScenarioConfig& cfg, Rng& rng,
                      const std::vector<DirId>& dirs, std::uint32_t files,
                      double meta_ratio, std::size_t count,
                      std::uint32_t first_id) {
  const std::vector<std::uint32_t> per_dir(dirs.size(), files);
  add_clients(s, cfg, rng, count, first_id, [&](std::size_t) {
    return std::make_unique<workloads::ScanProgram>(dirs, per_dir, meta_ratio);
  });
}

void add_web_clients(Simulation& s, const ScenarioConfig& cfg, Rng& rng,
                     const std::shared_ptr<workloads::WebTrace>& trace,
                     std::uint64_t requests, std::size_t count,
                     std::uint32_t first_id) {
  add_clients(s, cfg, rng, count, first_id, [&](std::size_t) {
    const std::uint64_t offset = rng.next_below(trace->records().size());
    return std::make_unique<workloads::WebReplayProgram>(
        trace, offset, requests, kWebMetaRatio);
  });
}

void add_zipf_clients(Simulation& s, const ScenarioConfig& cfg, Rng& rng,
                      const std::vector<DirId>& dirs, std::uint32_t files,
                      std::uint64_t requests, std::size_t count,
                      std::uint32_t first_id) {
  LUNULE_CHECK(dirs.size() >= count);
  // The 80/20 rule of the paper's Filebench configuration.
  const double exponent = zipf_exponent_for(0.2, 0.8, files);
  auto sampler = std::make_shared<ZipfSampler>(files, exponent);
  add_clients(s, cfg, rng, count, first_id, [&](std::size_t c) {
    return std::make_unique<workloads::ZipfReadProgram>(
        dirs[c], files, requests, sampler, rng.fork(1000 + first_id + c),
        kZipfMetaRatio);
  });
}

void add_md_clients(Simulation& s, const ScenarioConfig& cfg, Rng& rng,
                    const std::vector<DirId>& dirs, std::uint64_t creates,
                    std::size_t count, std::uint32_t first_id) {
  LUNULE_CHECK(dirs.size() >= count);
  add_clients(s, cfg, rng, count, first_id, [&](std::size_t c) {
    return std::make_unique<workloads::MdtestCreateProgram>(dirs[c], creates);
  });
}

void add_flash_clients(Simulation& s, const ScenarioConfig& cfg, Rng& rng,
                       const FlashShape& shape, DirId hot_dir,
                       std::uint32_t hot_files,
                       const std::vector<DirId>& home_dirs,
                       std::uint32_t home_files, std::uint64_t requests,
                       std::size_t count, std::uint32_t first_id) {
  LUNULE_CHECK(home_dirs.size() >= count);
  auto sampler =
      std::make_shared<ZipfSampler>(hot_files, shape.zipf_exponent);
  add_clients(s, cfg, rng, count, first_id, [&](std::size_t c) {
    return std::make_unique<workloads::FlashCrowdProgram>(
        hot_dir, hot_files, home_dirs[c], home_files, requests,
        shape.hot_fraction, sampler, rng.fork(2000 + first_id + c));
  });
}

void add_tenant_clients(Simulation& s, const ScenarioConfig& cfg, Rng& rng,
                        const TenantShape& shape,
                        std::shared_ptr<const std::vector<DirId>> tenants,
                        std::uint32_t files_per_tenant,
                        std::uint64_t requests, std::size_t count,
                        std::uint32_t first_id) {
  auto sampler = std::make_shared<ZipfSampler>(tenants->size(),
                                               shape.zipf_exponent);
  add_clients(s, cfg, rng, count, first_id, [&](std::size_t c) {
    return std::make_unique<workloads::TenantMixProgram>(
        tenants, files_per_tenant, requests, shape.create_fraction, sampler,
        rng.fork(3000 + first_id + c));
  });
}

}  // namespace

std::unique_ptr<Simulation> make_scenario(
    const ScenarioConfig& cfg, std::unique_ptr<balancer::Balancer> balancer) {
  // Throws before any state is built — callers (the parallel runner in
  // particular) can catch it.
  auto sim = std::make_unique<Simulation>(
      cfg, std::make_unique<fs::NamespaceTree>(), std::move(balancer));
  Rng rng(cfg.seed);
  fs::NamespaceTree& t = sim->tree();

  switch (cfg.workload) {
    case WorkloadKind::kCnn: {
      const CnnShape shape;
      const auto dirs = fs::build_imagenet_like(
          t, "cnn", scaled(shape.dirs, cfg.scale), shape.files);
      add_scan_clients(*sim, cfg, rng, dirs, shape.files, kCnnMetaRatio,
                       cfg.n_clients, 0);
      break;
    }
    case WorkloadKind::kNlp: {
      const NlpShape shape;
      const std::uint32_t files = scaled(shape.files, cfg.scale);
      const auto dirs = fs::build_corpus_like(t, "nlp", shape.dirs, files);
      add_scan_clients(*sim, cfg, rng, dirs, files, kNlpMetaRatio,
                       cfg.n_clients, 0);
      break;
    }
    case WorkloadKind::kWeb: {
      const WebShape shape;
      const auto layout = fs::build_web_tree(
          t, "web", shape.sections, shape.dirs_per_section,
          scaled(shape.files, cfg.scale));
      auto trace = std::make_shared<workloads::WebTrace>(
          layout.leaf_dirs, scaled(shape.files, cfg.scale),
          scaled64(shape.trace_len, cfg.scale), shape.zipf_exponent,
          rng.fork(7));
      add_web_clients(*sim, cfg, rng, trace,
                      scaled64(shape.requests_per_client, cfg.scale),
                      cfg.n_clients, 0);
      break;
    }
    case WorkloadKind::kZipf: {
      const ZipfShape shape;
      const std::uint32_t files = scaled(shape.files, cfg.scale);
      const auto dirs = fs::build_private_dirs(
          t, "zipf", static_cast<std::uint32_t>(cfg.n_clients), files);
      add_zipf_clients(*sim, cfg, rng, dirs, files,
                       scaled64(shape.requests_per_client, cfg.scale),
                       cfg.n_clients, 0);
      break;
    }
    case WorkloadKind::kMd: {
      const MdShape shape;
      const auto dirs = fs::build_private_dirs(
          t, "md", static_cast<std::uint32_t>(cfg.n_clients), 0);
      add_md_clients(*sim, cfg, rng, dirs,
                     scaled64(shape.creates_per_client, cfg.scale),
                     cfg.n_clients, 0);
      break;
    }
    case WorkloadKind::kMixed: {
      // Four equal client groups: CNN, NLP, Web, Zipf (the paper's
      // Section 4.4 mixture; MD is excluded like in Fig. 8).
      const std::size_t group = cfg.n_clients / 4;
      const std::size_t last = cfg.n_clients - 3 * group;

      const CnnShape cnn;
      const std::uint32_t cnn_files = scaled(cnn.files, cfg.scale);
      const auto cnn_dirs =
          fs::build_imagenet_like(t, "cnn", cnn.dirs, cnn_files);
      add_scan_clients(*sim, cfg, rng, cnn_dirs, cnn_files, kCnnMetaRatio,
                       group, 0);

      const NlpShape nlp;
      const std::uint32_t nlp_files = scaled(nlp.files, cfg.scale);
      const auto nlp_dirs =
          fs::build_corpus_like(t, "nlp", nlp.dirs, nlp_files);
      add_scan_clients(*sim, cfg, rng, nlp_dirs, nlp_files, kNlpMetaRatio,
                       group, static_cast<std::uint32_t>(group));

      const WebShape web;
      const auto layout =
          fs::build_web_tree(t, "web", web.sections, web.dirs_per_section,
                             scaled(web.files, cfg.scale));
      auto trace = std::make_shared<workloads::WebTrace>(
          layout.leaf_dirs, scaled(web.files, cfg.scale),
          scaled64(web.trace_len, cfg.scale), web.zipf_exponent,
          rng.fork(7));
      add_web_clients(*sim, cfg, rng, trace,
                      scaled64(web.requests_per_client, cfg.scale), group,
                      static_cast<std::uint32_t>(2 * group));

      const ZipfShape zipf;
      const std::uint32_t zipf_files = scaled(zipf.files, cfg.scale);
      const auto zipf_dirs = fs::build_private_dirs(
          t, "zipf", static_cast<std::uint32_t>(last), zipf_files);
      add_zipf_clients(*sim, cfg, rng, zipf_dirs, zipf_files,
                       scaled64(zipf.requests_per_client, cfg.scale), last,
                       static_cast<std::uint32_t>(3 * group));
      break;
    }
    case WorkloadKind::kFlashCrowd: {
      const FlashShape shape;
      const std::uint32_t hot_files = scaled(shape.hot_files, cfg.scale);
      const auto hot = fs::build_corpus_like(t, "flash", 1, hot_files);
      const auto homes = fs::build_private_dirs(
          t, "bg", static_cast<std::uint32_t>(cfg.n_clients),
          shape.home_files);
      add_flash_clients(*sim, cfg, rng, shape, hot.front(), hot_files,
                        homes, shape.home_files,
                        scaled64(shape.requests_per_client, cfg.scale),
                        cfg.n_clients, 0);
      break;
    }
    case WorkloadKind::kTenant: {
      const TenantShape shape;
      const std::uint32_t tenants = scaled(shape.tenants, cfg.scale);
      auto dirs = std::make_shared<const std::vector<DirId>>(
          fs::build_private_dirs(t, "tenant", tenants,
                                 shape.files_per_tenant));
      add_tenant_clients(*sim, cfg, rng, shape, dirs,
                         shape.files_per_tenant,
                         scaled64(shape.requests_per_client, cfg.scale),
                         cfg.n_clients, 0);
      break;
    }
  }
  return sim;
}

ScenarioResult result_of(const Simulation& sim) {
  const ScenarioConfig& cfg = sim.config();
  const mds::MdsCluster& cluster = sim.cluster();
  ScenarioResult r;
  r.workload = std::string(workload_name(cfg.workload));
  r.balancer = std::string(sim.balancer().name());
  r.metrics = sim.metrics();
  for (std::size_t m = 0; m < cluster.size(); ++m) {
    r.total_served_per_mds.push_back(
        cluster.server(static_cast<MdsId>(m)).total_served());
  }
  r.jct_seconds = sim.job_completion_seconds();
  double stall_total = 0.0;
  for (const auto& c : sim.clients()) {
    r.op_latency.merge(c->op_latency());
    stall_total += c->stall_fraction();
  }
  r.mean_stall_fraction =
      sim.clients().empty()
          ? 0.0
          : stall_total / static_cast<double>(sim.clients().size());
  r.total_served = cluster.total_served();
  r.total_forwards = cluster.total_forwards();
  r.migrated_total = cluster.migration().total_migrated_inodes();
  r.migrations_completed = cluster.migration().migrations_completed();
  r.valid_migration_fraction = cluster.audit().valid_fraction();
  r.migrations_audited = cluster.audit().audited();
  r.wasted_migration_inodes = cluster.audit().wasted_inodes();
  r.clients_done = sim.clients_done();
  r.n_clients = sim.clients().size();
  r.end_tick = sim.end_tick();
  r.migration_retries_exhausted = cluster.migration().retries_exhausted();
  r.journal = cluster.journal_totals();
  r.elasticity = cluster.elasticity();
  if (const proxy::ProxyCacheTier* tier = sim.proxy_tier()) {
    r.proxy = tier->totals();
  }
  if (const faults::FaultInjector* inj = sim.fault_injector()) {
    r.faults = inj->totals();
  }
  r.first_crash_tick = cfg.faults.first_crash_tick();
  r.rank_seconds = sim.rank_seconds();
  if (const mds::Autoscaler* as = sim.autoscaler()) {
    r.drain_seconds = static_cast<double>(as->stats().drain_epochs) *
                      static_cast<double>(cfg.epoch_ticks);
  }
  if (cfg.capture_trace) r.trace_json = trace_to_json(cluster.trace());
  return r;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  const std::unique_ptr<Simulation> sim = make_scenario(cfg);
  sim->run();
  return result_of(*sim);
}

}  // namespace lunule::sim
