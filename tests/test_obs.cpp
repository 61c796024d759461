// Tests for the flight-recorder substrate (ring, counter dump, recorder)
// and the epoch-boundary InvariantChecker, including deliberately
// corrupted cluster state.
#include "obs/invariant_checker.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fs/namespace_tree.h"
#include "mds/cluster.h"
#include "obs/counter_registry.h"
#include "obs/trace_recorder.h"
#include "obs/trace_ring.h"

namespace lunule::obs {
namespace {

TraceEvent event_with(std::int64_t n0) {
  TraceEvent e;
  e.kind = EventKind::kDecision;
  e.n0 = n0;
  return e;
}

TEST(TraceRing, RetainsEventsInOrder) {
  TraceRing ring(8);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::int64_t i = 0; i < 3; ++i) ring.push(event_with(i));
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.pushed(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ring.at(i).n0, static_cast<std::int64_t>(i));
  }
}

TEST(TraceRing, WrapsOverwritingOldestAndCountsDrops) {
  TraceRing ring(4);
  for (std::int64_t i = 0; i < 6; ++i) ring.push(event_with(i));
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  // Oldest-first view after the wrap: events 2, 3, 4, 5.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(i).n0, static_cast<std::int64_t>(i + 2));
  }
}

TEST(TraceRing, ClearResetsRetainedEvents) {
  TraceRing ring(4);
  for (std::int64_t i = 0; i < 6; ++i) ring.push(event_with(i));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
}

TEST(CounterRegistry, AbsentCounterReadsZero) {
  Counters c;
  EXPECT_EQ(c.value("never.touched"), 0u);
  // A tally that has counted nothing stays out of the dump.
  c.set_nonzero("still.zero", 0);
  EXPECT_EQ(c.value("still.zero"), 0u);
  EXPECT_TRUE(c.all().empty());
  c.set("present.at.zero", 0);
  EXPECT_EQ(c.all().size(), 1u);
}

TEST(CounterRegistry, IterationIsLexicographic) {
  Counters c;
  c.set("b", 2);
  c.set_nonzero("a", 1);
  c.set("c", 3);
  std::vector<std::string> names;
  for (const auto& [name, value] : c.all()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(c.value("a"), 1u);
  EXPECT_EQ(c.value("c"), 3u);
}

TEST(TraceRecorder, StampsEventsWithSimulatedClock) {
  TraceRecorder rec;
  rec.set_clock(3, 42);
  rec.record(Component::kBalancer, event_with(7));
  const TraceRing& ring = rec.ring(Component::kBalancer);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.at(0).epoch, 3);
  EXPECT_EQ(ring.at(0).tick, 42);
  EXPECT_EQ(ring.at(0).n0, 7);
  // Other components' rings are untouched.
  EXPECT_EQ(rec.ring(Component::kMigration).size(), 0u);
}

TEST(TraceRecorder, CountersAreReadFromTheSource) {
  TraceRecorder rec;
  EXPECT_TRUE(rec.counters().all().empty()) << "no source, no counters";
  std::uint64_t tally = 0;
  rec.set_counter_source([&tally] {
    Counters c;
    c.set_nonzero("x.ops", tally);
    return c;
  });
  EXPECT_TRUE(rec.counters().all().empty());
  tally = 4;
  // Every read sees the tally as it is now, whether or not events record.
  rec.set_enabled(false);
  EXPECT_EQ(rec.counters().value("x.ops"), 4u);
  tally = 10;
  EXPECT_EQ(rec.counters().value("x.ops"), 10u);
}

TEST(TraceRecorder, DisabledRecordingIsANoOp) {
  TraceRecorder rec;
  rec.set_enabled(false);
  rec.record(Component::kCluster, event_with(1));
  EXPECT_EQ(rec.ring(Component::kCluster).size(), 0u);
  EXPECT_EQ(rec.ring(Component::kCluster).pushed(), 0u);
  rec.set_enabled(true);
  rec.record(Component::kCluster, event_with(2));
  EXPECT_EQ(rec.ring(Component::kCluster).size(), 1u);
}

class InvariantCheckerTest : public ::testing::Test {
 protected:
  InvariantCheckerTest() {
    dir_ = tree_.add_dir(tree_.root(), "d");
    tree_.add_files(dir_, 16);
    params_.n_mds = 3;
    params_.mds_capacity_iops = 100.0;
    params_.epoch_ticks = 1;
    cluster_ = std::make_unique<mds::MdsCluster>(tree_, params_);
  }

  // Serves a few ops and closes the epoch so sampled loads are coherent.
  void run_epoch(int ops) {
    cluster_->begin_tick(++tick_);
    for (int i = 0; i < ops; ++i) cluster_->try_serve(dir_, 0);
    cluster_->end_tick();
    cluster_->close_epoch();
  }

  fs::NamespaceTree tree_;
  mds::ClusterParams params_;
  DirId dir_ = kNoDir;
  std::unique_ptr<mds::MdsCluster> cluster_;
  Tick tick_ = 0;
};

TEST_F(InvariantCheckerTest, HealthyClusterPasses) {
  InvariantChecker checker;
  for (int e = 0; e < 3; ++e) {
    run_epoch(5);
    const auto violations =
        checker.check_epoch(*cluster_, cluster_->current_loads());
    EXPECT_TRUE(violations.empty())
        << "epoch " << e << ": " << violations.front();
  }
  EXPECT_EQ(checker.epochs_checked(), 3u);
}

TEST_F(InvariantCheckerTest, FlagsInvalidFragAuthority) {
  InvariantChecker checker;
  run_epoch(5);
  // Pin a dirfrag to a rank that does not exist.
  tree_.frags(dir_)[0].auth_pin = 99;
  const auto violations =
      checker.check_epoch(*cluster_, cluster_->current_loads());
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const std::string& v : violations) {
    found = found || v.find("invalid authority") != std::string::npos;
  }
  EXPECT_TRUE(found) << violations.front();
}

TEST_F(InvariantCheckerTest, FlagsMismatchedLoadSample) {
  InvariantChecker checker;
  run_epoch(5);
  std::vector<Load> loads = cluster_->current_loads();
  loads[0] += 1.0;  // report a load the server never saw
  const auto violations = checker.check_epoch(*cluster_, loads);
  EXPECT_FALSE(violations.empty());
}

TEST_F(InvariantCheckerTest, FlagsWrongLoadVectorSize) {
  InvariantChecker checker;
  run_epoch(5);
  const std::vector<Load> loads(2, 0.0);  // cluster has 3 ranks
  const auto violations = checker.check_epoch(*cluster_, loads);
  EXPECT_FALSE(violations.empty());
}

TEST_F(InvariantCheckerTest, FragFileCountDriftIsFlagged) {
  InvariantChecker checker;
  run_epoch(5);
  // Lose a file from the frag-level books only; the directory still
  // reports the true total, so the partition no longer tiles.
  ASSERT_GE(tree_.frags(dir_)[0].file_count, 1u);
  tree_.frags(dir_)[0].file_count -= 1;
  const auto violations =
      checker.check_epoch(*cluster_, cluster_->current_loads());
  EXPECT_FALSE(violations.empty());
}

TEST_F(InvariantCheckerTest, FlagsCheckpointThatMissesAnAuthorityChange) {
  params_.journal.enabled = true;
  cluster_ = std::make_unique<mds::MdsCluster>(tree_, params_);
  InvariantChecker checker;
  run_epoch(5);
  ASSERT_TRUE(checker.check_epoch(*cluster_, cluster_->current_loads())
                  .empty());
  // Move the directory to rank 2 behind the journal's back: no export
  // commit, no import start, so rank 2's newest checkpoint still lists
  // nothing while the rank now owns the directory.
  ASSERT_NE(tree_.auth_of(dir_), 2);
  tree_.set_auth(dir_, 2);
  const auto violations =
      checker.check_epoch(*cluster_, cluster_->current_loads());
  bool found = false;
  for (const std::string& v : violations) {
    found = found ||
            v.find("mds.2 newest ESubtreeMap describes") != std::string::npos;
  }
  EXPECT_TRUE(found) << (violations.empty() ? "no violation"
                                            : violations.front());
}

}  // namespace
}  // namespace lunule::obs
