// Tests for the Mantle policy expression language.
#include "balancer/policy_lang.h"

#include <gtest/gtest.h>

#include "fs/builder.h"
#include "mds/cluster.h"

namespace lunule::balancer {
namespace {

double eval(const std::string& src, const PolicyEnv& env = {}) {
  return PolicyExpr::parse(src).eval(env);
}

TEST(PolicyLang, NumbersAndArithmetic) {
  EXPECT_DOUBLE_EQ(eval("42"), 42.0);
  EXPECT_DOUBLE_EQ(eval("1 + 2 * 3"), 7.0);
  EXPECT_DOUBLE_EQ(eval("(1 + 2) * 3"), 9.0);
  EXPECT_DOUBLE_EQ(eval("10 - 4 - 3"), 3.0);  // left associative
  EXPECT_DOUBLE_EQ(eval("8 / 2 / 2"), 2.0);
  EXPECT_DOUBLE_EQ(eval("1.5e2"), 150.0);
  EXPECT_DOUBLE_EQ(eval("-3 + 5"), 2.0);
  EXPECT_DOUBLE_EQ(eval("--4"), 4.0);
}

TEST(PolicyLang, DivisionByZeroYieldsZero) {
  // Policies must not crash the balancer on an all-idle cluster.
  EXPECT_DOUBLE_EQ(eval("5 / 0"), 0.0);
}

TEST(PolicyLang, Comparisons) {
  EXPECT_DOUBLE_EQ(eval("1 < 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("2 < 1"), 0.0);
  EXPECT_DOUBLE_EQ(eval("2 <= 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("3 > 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("3 >= 4"), 0.0);
  EXPECT_DOUBLE_EQ(eval("2 == 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("2 != 2"), 0.0);
}

TEST(PolicyLang, BooleanLogic) {
  EXPECT_DOUBLE_EQ(eval("1 && 1"), 1.0);
  EXPECT_DOUBLE_EQ(eval("1 && 0"), 0.0);
  EXPECT_DOUBLE_EQ(eval("0 || 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("!0"), 1.0);
  EXPECT_DOUBLE_EQ(eval("!3"), 0.0);
  // Precedence: comparisons bind tighter than && / ||.
  EXPECT_DOUBLE_EQ(eval("1 < 2 && 3 > 2"), 1.0);
}

TEST(PolicyLang, Functions) {
  EXPECT_DOUBLE_EQ(eval("abs(-5)"), 5.0);
  EXPECT_DOUBLE_EQ(eval("sqrt(16)"), 4.0);
  EXPECT_DOUBLE_EQ(eval("sqrt(-1)"), 0.0);  // clamped, not NaN
  EXPECT_DOUBLE_EQ(eval("min(3, 7)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("max(3, 7)"), 7.0);
  EXPECT_DOUBLE_EQ(eval("max(min(5, 9), 2)"), 5.0);
}

TEST(PolicyLang, Variables) {
  const PolicyEnv env{{"my", 900.0}, {"avg", 300.0}};
  EXPECT_DOUBLE_EQ(eval("my - avg", env), 600.0);
  EXPECT_DOUBLE_EQ(eval("my > 2 * avg", env), 1.0);
}

TEST(PolicyLang, VariablesAreReported) {
  const auto vars = PolicyExpr::parse("my > 2 * avg && n < 16").variables();
  EXPECT_EQ(vars, (std::vector<std::string>{"avg", "my", "n"}));
}

TEST(PolicyLang, SyntaxErrorsThrow) {
  EXPECT_THROW(PolicyExpr::parse(""), PolicyError);
  EXPECT_THROW(PolicyExpr::parse("1 +"), PolicyError);
  EXPECT_THROW(PolicyExpr::parse("(1"), PolicyError);
  EXPECT_THROW(PolicyExpr::parse("1 2"), PolicyError);
  EXPECT_THROW(PolicyExpr::parse("foo(1)"), PolicyError);
  EXPECT_THROW(PolicyExpr::parse("min(1)"), PolicyError);
  EXPECT_THROW(PolicyExpr::parse("1 $ 2"), PolicyError);
}

TEST(PolicyLang, UnknownVariableThrowsAtEval) {
  const PolicyExpr e = PolicyExpr::parse("mystery + 1");
  EXPECT_THROW((void)e.eval({}), PolicyError);
}

TEST(PolicyLang, EnvironmentContents) {
  const std::vector<Load> loads{100, 300, 200};
  const PolicyEnv env = make_policy_env(loads, /*my_rank=*/1,
                                        /*capacity=*/2500.0, /*epoch=*/7);
  EXPECT_DOUBLE_EQ(env.at("my"), 300.0);
  EXPECT_DOUBLE_EQ(env.at("rank"), 1.0);
  EXPECT_DOUBLE_EQ(env.at("avg"), 200.0);
  EXPECT_DOUBLE_EQ(env.at("min"), 100.0);
  EXPECT_DOUBLE_EQ(env.at("max"), 300.0);
  EXPECT_DOUBLE_EQ(env.at("total"), 600.0);
  EXPECT_DOUBLE_EQ(env.at("n"), 3.0);
  EXPECT_DOUBLE_EQ(env.at("capacity"), 2500.0);
  EXPECT_DOUBLE_EQ(env.at("epoch"), 7.0);
}

// ---- parse-error paths ----------------------------------------------------
// A malformed policy is an operator configuration mistake; every rejection
// must carry a byte offset and a specific diagnostic, not just "bad input".

std::string parse_error(const std::string& src) {
  try {
    (void)PolicyExpr::parse(src);
  } catch (const PolicyError& e) {
    return e.what();
  }
  return {};  // parsed fine: the assertion on the message will fail
}

void expect_error_contains(const std::string& src, const std::string& what) {
  const std::string msg = parse_error(src);
  EXPECT_NE(msg.find(what), std::string::npos)
      << "policy '" << src << "' produced: '" << msg << "'";
}

TEST(PolicyLangErrors, UnexpectedCharacterWithOffset) {
  expect_error_contains("1 + #", "unexpected character '#'");
  expect_error_contains("1 + #", "offset 4");
  expect_error_contains("1 + + 2", "unexpected character '+'");
}

TEST(PolicyLangErrors, TrailingInputIsRejected) {
  expect_error_contains("1 2", "unexpected trailing input");
  expect_error_contains("max > avg avg", "unexpected trailing input");
}

TEST(PolicyLangErrors, UnexpectedEndOfInput) {
  expect_error_contains("", "unexpected end of input");
  expect_error_contains("max > ", "unexpected end of input");
  expect_error_contains("max > (", "unexpected end of input");
  expect_error_contains("1 &&", "unexpected end of input");
}

TEST(PolicyLangErrors, UnbalancedParentheses) {
  expect_error_contains("(1 + 2", "expected ')'");
  expect_error_contains("abs(1", "expected ')'");
  expect_error_contains("min(1, 2", "expected ')'");
}

TEST(PolicyLangErrors, MalformedNumbers) {
  expect_error_contains("1.2.3", "malformed number");
  expect_error_contains("1e", "malformed number");
  expect_error_contains("1e+", "malformed number");
}

TEST(PolicyLangErrors, UnknownFunction) {
  expect_error_contains("foo(1)", "unknown function 'foo'");
  expect_error_contains("sin(my)", "unknown function 'sin'");
}

TEST(PolicyLangErrors, MinAndMaxArity) {
  expect_error_contains("min(1)", "min takes two arguments");
  expect_error_contains("max(1)", "max takes two arguments");
}

TEST(PolicyLangErrors, UnknownVariableSurfacesAtEval) {
  const PolicyExpr expr = PolicyExpr::parse("bogus + 1");
  try {
    (void)expr.eval({});
    FAIL() << "eval of unknown variable did not throw";
  } catch (const PolicyError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown policy variable 'bogus'"),
              std::string::npos)
        << e.what();
  }
}

TEST(PolicyLangErrors, PolicyErrorIsARuntimeError) {
  // Callers that only know std::exception still get the diagnostic.
  try {
    (void)PolicyExpr::parse("(");
    FAIL() << "parse did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("policy parse error"),
              std::string::npos);
  }
}

class PolicyBalancerTest : public ::testing::Test {
 protected:
  PolicyBalancerTest() {
    dirs = fs::build_private_dirs(tree, "w", 10, 50);
    cp.n_mds = 4;
    cp.mds_capacity_iops = 1000.0;
    cp.epoch_ticks = 1;
  }

  /// Spreads heat so estimates fit the policy amounts.  The poke bypasses
  /// the access recorder, so mark each directory touched: only the
  /// recorder's active set reaches candidate collection.
  void heat_dirs(mds::MdsCluster& cluster) {
    for (const DirId d : dirs) {
      tree.frag(d, 0).heat = 10.0;
      cluster.recorder().touch(d);
    }
  }

  fs::NamespaceTree tree;
  mds::ClusterParams cp;
  std::vector<DirId> dirs;
};

TEST_F(PolicyBalancerTest, GreedySpillAsAPolicyString) {
  mds::MdsCluster cluster(tree, cp);
  heat_dirs(cluster);
  PolicyBalancerParams p;
  p.name = "greedy-spill-lang";
  p.when = "min < 1 && max > 1";
  p.howmuch = "my / 2";
  auto balancer = make_policy_balancer(p);
  EXPECT_EQ(balancer->name(), "greedy-spill-lang");
  // Balanced: no trigger.
  balancer->on_epoch(cluster, std::vector<Load>{100, 100, 100, 100});
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
  // One idle MDS: spill.
  balancer->on_epoch(cluster, std::vector<Load>{400, 100, 100, 0});
  EXPECT_GT(cluster.migration().migrations_submitted(), 0u);
  for (const mds::ExportTask& t : cluster.migration().tasks()) {
    EXPECT_EQ(t.from, 0);
    EXPECT_EQ(t.to, 3);  // least loaded
  }
}

TEST_F(PolicyBalancerTest, NonPositiveAmountsMeanNoExport) {
  mds::MdsCluster cluster(tree, cp);
  heat_dirs(cluster);
  PolicyBalancerParams p;
  p.when = "1";          // always willing
  p.howmuch = "my - my"; // ...but never shipping anything
  auto balancer = make_policy_balancer(p);
  balancer->on_epoch(cluster, std::vector<Load>{400, 0, 0, 0});
  EXPECT_EQ(cluster.migration().migrations_submitted(), 0u);
}

TEST_F(PolicyBalancerTest, MalformedPolicyFailsAtConstruction) {
  PolicyBalancerParams p;
  p.when = "max > (";
  p.howmuch = "0";
  EXPECT_THROW(make_policy_balancer(p), PolicyError);
}

}  // namespace
}  // namespace lunule::balancer
