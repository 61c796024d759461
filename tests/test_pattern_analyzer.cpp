// Tests for the Pattern Analyzer's migration-index computation (Eq. 4).
#include "core/pattern_analyzer.h"

#include <gtest/gtest.h>

namespace lunule::core {
namespace {

// Builds a candidate with one metadata op per logical file visit (so op
// and file units coincide and the arithmetic stays readable).
balancer::Candidate candidate(std::uint64_t visits, std::uint64_t first,
                              std::uint64_t recurrent, double sibling,
                              std::uint64_t unvisited,
                              std::uint64_t creates = 0) {
  balancer::Candidate c;
  c.windows = {.visits = visits,
               .file_visits = visits,
               .first_visits = first,
               .recurrent = recurrent,
               .creates = creates,
               .sibling_credit = sibling};
  c.unvisited = unvisited;
  return c;
}

TEST(PatternAnalyzer, PureTemporalWorkload) {
  // Zipf-style: every visit is a re-visit within the window.
  const MigrationIndex mi = compute_mindex(candidate(600, 0, 600, 0.0, 0));
  EXPECT_DOUBLE_EQ(mi.alpha, 1.0);
  EXPECT_DOUBLE_EQ(mi.beta, 0.0);
  EXPECT_DOUBLE_EQ(mi.l_t, 600.0);
  EXPECT_DOUBLE_EQ(mi.mindex, 600.0);  // alpha * l_t
}

TEST(PatternAnalyzer, PureSpatialWorkload) {
  // Scan-style: every visit is a first visit.
  const MigrationIndex mi =
      compute_mindex(candidate(500, 500, 0, 20.0, 1000));
  EXPECT_DOUBLE_EQ(mi.alpha, 0.0);
  EXPECT_DOUBLE_EQ(mi.beta, 1.0);
  EXPECT_DOUBLE_EQ(mi.l_s, 520.0);  // first visits + sibling credits
  EXPECT_DOUBLE_EQ(mi.mindex, 520.0);
}

TEST(PatternAnalyzer, ColdSubtreeWithUnvisitedInodesIsCandidate) {
  // Never visited but still holding unvisited inodes (plus sibling
  // correlation credits): a future-scan candidate.
  const MigrationIndex mi = compute_mindex(candidate(0, 0, 0, 12.0, 800));
  EXPECT_DOUBLE_EQ(mi.beta, 1.0);
  EXPECT_DOUBLE_EQ(mi.mindex, 12.0);
}

TEST(PatternAnalyzer, ExhaustedSubtreeHasZeroIndex) {
  // The crucial fix over vanilla heat: a fully scanned subtree with no
  // recent activity predicts zero future load, however hot it once was.
  const MigrationIndex mi = compute_mindex(candidate(0, 0, 0, 0.0, 0));
  EXPECT_DOUBLE_EQ(mi.mindex, 0.0);
}

TEST(PatternAnalyzer, MixedWorkloadBlendsBothTerms) {
  // Half the visits recur, half hit fresh inodes; only 100 inodes remain
  // unvisited, which caps the spatial prediction.
  const MigrationIndex mi =
      compute_mindex(candidate(400, 200, 200, 0.0, 100));
  EXPECT_DOUBLE_EQ(mi.alpha, 0.5);
  EXPECT_DOUBLE_EQ(mi.beta, 0.5);
  EXPECT_DOUBLE_EQ(mi.l_s, 100.0);  // min(first visits, unvisited)
  EXPECT_DOUBLE_EQ(mi.mindex, 0.5 * 400 + 0.5 * 100);
}

TEST(PatternAnalyzer, ScannedOutDirectoryPredictsNothingSpatial) {
  // Recently scanned out: big first-visit window, but zero unvisited
  // inodes left — the spatial term must vanish (the wave will not return).
  const MigrationIndex mi = compute_mindex(candidate(500, 500, 0, 8.0, 0));
  EXPECT_DOUBLE_EQ(mi.l_s, 0.0);
  EXPECT_DOUBLE_EQ(mi.mindex, 0.0);
}

TEST(PatternAnalyzer, CreatesPredictFutureLoadUncapped) {
  // MDtest-style create stream: every visit is a create; there are no
  // unvisited inodes, yet future creates keep coming.
  const MigrationIndex mi =
      compute_mindex(candidate(300, 300, 0, 0.0, 0, /*creates=*/300));
  EXPECT_DOUBLE_EQ(mi.beta, 1.0);
  EXPECT_DOUBLE_EQ(mi.l_s, 300.0);
  EXPECT_DOUBLE_EQ(mi.mindex, 300.0);
}

TEST(PatternAnalyzer, OpsPerVisitScalesSpatialPrediction) {
  // NLP-style: ~13 metadata ops per file; spatial file predictions are
  // converted back into op units.
  balancer::Candidate c;
  c.windows = {.visits = 1300, .file_visits = 100, .first_visits = 100};
  c.unvisited = 5000;
  const MigrationIndex mi = compute_mindex(c);
  EXPECT_DOUBLE_EQ(mi.beta, 1.0);
  EXPECT_DOUBLE_EQ(mi.l_s, 100.0 * 13.0);
}

TEST(PatternAnalyzer, PredictedIopsConversion) {
  const MigrationIndex mi = compute_mindex(candidate(600, 0, 600, 0.0, 0));
  EXPECT_DOUBLE_EQ(mi.predicted_iops(60.0), 10.0);
  EXPECT_DOUBLE_EQ(mi.predicted_iops(0.0), 0.0);
}

}  // namespace
}  // namespace lunule::core
