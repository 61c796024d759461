#include "sim/parallel_runner.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "common/concurrency.h"
#include "common/worker_pool.h"

namespace lunule::sim {

std::vector<ScenarioResult> run_scenarios(
    const std::vector<ScenarioConfig>& configs, std::size_t max_threads) {
  std::vector<ScenarioResult> results(configs.size());
  if (configs.empty()) return results;

  // Extra workers come out of the process-wide budget, so nested callers
  // (a scenario fanning out scenarios, or sharded engines inside each
  // scenario) share one machine-wide cap instead of multiplying it.  The
  // calling thread always participates, so a zero grant degrades to a
  // serial run rather than a deadlock.
  std::size_t want = max_threads != 0
                         ? max_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  want = std::min(want, configs.size());
  ConcurrencyGrant grant(want > 0 ? want - 1 : 0);

  // An exception escaping a scenario is captured per index, so every
  // config still runs: one failing config must not silently discard the
  // others' finished work.
  std::vector<std::exception_ptr> errors(configs.size());
  WorkerPool pool(grant.granted());
  pool.run_indexed(configs.size(), [&](std::size_t i) {
    try {
      results[i] = run_scenario(configs[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });

  // Multi-failure aggregation: rethrow the first failure by config order
  // (scheduling-independent), but log the others first — a batch where
  // three configs failed should not masquerade as a single bad config.
  std::size_t failures = 0;
  std::size_t first_failed = configs.size();
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i]) continue;
    ++failures;
    if (first_failed == configs.size()) {
      first_failed = i;
      continue;
    }
    try {
      std::rethrow_exception(errors[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "run_scenarios: config %zu also failed: %s\n", i,
                   e.what());
    } catch (...) {
      std::fprintf(stderr,
                   "run_scenarios: config %zu also failed (non-standard "
                   "exception)\n",
                   i);
    }
  }
  if (failures > 1) {
    std::fprintf(stderr,
                 "run_scenarios: %zu of %zu configs failed; rethrowing the "
                 "first (config %zu)\n",
                 failures, configs.size(), first_failed);
  }
  if (first_failed != configs.size()) {
    std::rethrow_exception(errors[first_failed]);
  }
  return results;
}

}  // namespace lunule::sim
