// Tests for the process-wide concurrency budget and the worker pool — the
// two primitives the sharded tick engine is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/concurrency.h"
#include "common/worker_pool.h"

namespace lunule {
namespace {

// -- ConcurrencyBudget -----------------------------------------------------

TEST(ConcurrencyBudget, GrantsAtMostWhatIsAvailable) {
  ConcurrencyBudget budget(3);
  EXPECT_EQ(budget.total(), 3u);
  EXPECT_EQ(budget.available(), 3u);
  const std::size_t got = budget.acquire(10);
  EXPECT_EQ(got, 3u);
  EXPECT_EQ(budget.available(), 0u);
  // A starved caller gets zero and must run inline.
  EXPECT_EQ(budget.acquire(2), 0u);
  budget.release(got);
  EXPECT_EQ(budget.available(), 3u);
}

TEST(ConcurrencyBudget, PartialGrantsSplitThePool) {
  ConcurrencyBudget budget(4);
  const std::size_t a = budget.acquire(3);
  const std::size_t b = budget.acquire(3);
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 1u);
  budget.release(a);
  budget.release(b);
  EXPECT_EQ(budget.available(), 4u);
}

TEST(ConcurrencyBudget, GrantIsRaii) {
  ConcurrencyBudget budget(2);
  {
    const ConcurrencyGrant grant(5, budget);
    EXPECT_EQ(grant.granted(), 2u);
    EXPECT_EQ(budget.available(), 0u);
  }
  EXPECT_EQ(budget.available(), 2u);
}

TEST(ConcurrencyBudget, ProcessInstanceExists) {
  // The shared instance must grant at least something once, so the
  // spawning paths are exercised even on single-core CI hosts.
  EXPECT_GE(ConcurrencyBudget::instance().total(), 1u);
}

// -- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, ZeroWorkersRunsEveryIndexInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<int> hits(17, 0);
  pool.run_indexed(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.run_indexed(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossManyRounds) {
  WorkerPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.run_indexed(8, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200u * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(WorkerPool, EmptyRoundIsANoOp) {
  WorkerPool pool(2);
  pool.run_indexed(0, [&](std::size_t) { FAIL() << "fn called for n=0"; });
}

TEST(WorkerPool, SmallestIndexExceptionRethrows) {
  WorkerPool pool(3);
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      pool.run_indexed(64, [&](std::size_t i) {
        if (i == 7 || i == 40) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // Deterministic regardless of which worker hit which index first.
      EXPECT_STREQ(e.what(), "boom 7");
    }
  }
  // The pool survives a throwing round.
  std::atomic<int> ran{0};
  pool.run_indexed(5, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5);
}

}  // namespace
}  // namespace lunule
