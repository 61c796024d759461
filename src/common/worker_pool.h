// A small persistent worker pool for deterministic fork-join phases.
//
// The sharded tick engine runs its rank streams as one short fork-join
// round per tick, thousands per simulation; spawning threads per round
// would dominate.  WorkerPool keeps its threads parked on a condition
// variable between rounds.  run_indexed(n, fn) executes fn(0..n-1) across
// the workers plus the calling thread and returns when all are done.
//
// Determinism contract: callers must make fn(i) write only i-disjoint
// state (or commutative accumulations), so results are identical for any
// worker count — including zero workers, where the calling thread simply
// runs every index in order.  Exceptions escaping fn are caught, the
// round is drained, and the exception for the smallest index rethrows on
// the calling thread (scheduling-independent).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lunule {

class WorkerPool {
 public:
  /// Spawns `workers` threads (0 is valid: every round runs inline).
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

  /// Runs fn(i) for every i in [0, n); blocks until all complete.
  /// Work is claimed by atomic counter, so assignment of index to thread
  /// is scheduling-dependent — results must not be.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void drain_round();

  std::mutex mu_;
  std::condition_variable round_start_;
  std::condition_variable round_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t round_n_ = 0;
  std::size_t next_index_ = 0;
  std::size_t active_workers_ = 0;
  std::uint64_t round_seq_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;   // per-index, first rethrows
  std::vector<std::size_t> error_indices_;
  std::vector<std::thread> threads_;
};

}  // namespace lunule
