// StrategyRegistry: built-in coverage, lookup errors, runtime
// registration of a custom strategy end-to-end through
// PartialOptimizer::run, --strategies list parsing, and what the
// "multilevel" built-in runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/hypergraph.hpp"
#include "core/partial_optimizer.hpp"
#include "core/strategy.hpp"
#include "trace/workload.hpp"

namespace cca::core {
namespace {

TEST(StrategyRegistry, BuiltInsAreRegistered) {
  const StrategyRegistry& reg = StrategyRegistry::global();
  for (const char* name :
       {"random-hash", "greedy", "multilevel", "hypergraph", "lprr"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_NE(reg.at(name), nullptr) << name;
  }
  const std::vector<std::string> names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 5u);
}

TEST(StrategyRegistry, UnknownNameThrowsWithListing) {
  try {
    StrategyRegistry::global().at("bogus");
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("lprr"), std::string::npos);  // lists what exists
  }
}

TEST(StrategyRegistry, RejectsDuplicateAndEmptyNames) {
  StrategyRegistry& reg = StrategyRegistry::global();
  EXPECT_THROW(reg.add("lprr", [](const PartialOptimizer&) {
    return Placement{};
  }),
               common::Error);
  EXPECT_THROW(reg.add("", [](const PartialOptimizer&) {
    return Placement{};
  }),
               common::Error);
}

TEST(StrategyRegistry, ParseStrategyListValidatesNames) {
  const std::vector<std::string> parsed =
      parse_strategy_list("random-hash,lprr");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], "random-hash");
  EXPECT_EQ(parsed[1], "lprr");
  // Empty segments are skipped, not errors.
  EXPECT_EQ(parse_strategy_list(",greedy,,").size(), 1u);
  EXPECT_THROW(parse_strategy_list("greedy,bogus"), common::Error);
  EXPECT_THROW(parse_strategy_list(""), common::Error);
  EXPECT_THROW(parse_strategy_list(",,"), common::Error);
}

TEST(StrategyRegistry, ParseStrategyListRejectsDuplicates) {
  // A repeated name means a doubled bench column with identical numbers —
  // always a typo in the flag value, so it must fail loudly.
  try {
    parse_strategy_list("greedy,lprr,greedy");
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate strategy 'greedy'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("greedy,lprr,greedy"), std::string::npos) << what;
  }
}

TEST(StrategyRegistry, ParseStrategyListSuggestsOnTypo) {
  // Unknown names get the same did-you-mean shape as bad enum flag
  // values: name the offender, list what exists, suggest the near miss.
  try {
    parse_strategy_list("random-hash,multilevl");
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown strategy 'multilevl'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'hypergraph'"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'multilevel'?"), std::string::npos)
        << what;
  }
}

TEST(StrategyRegistry, CustomStrategyRunsThroughOptimizer) {
  // A strategy registered at runtime is immediately resolvable by name —
  // the registry is how benches pick up new strategies with no code
  // changes at the call sites.
  StrategyRegistry& reg = StrategyRegistry::global();
  if (!reg.contains("test-all-to-node-zero")) {
    reg.add("test-all-to-node-zero", [](const PartialOptimizer& opt) {
      return Placement(
          static_cast<std::size_t>(opt.scoped_instance().num_objects()), 0);
    });
  }

  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 300;
  wcfg.num_topics = 20;
  wcfg.topic_size = 6;
  wcfg.seed = 11;
  const trace::QueryTrace trace = trace::WorkloadModel(wcfg).generate(4000, 7);
  std::vector<std::uint64_t> sizes(wcfg.vocabulary_size);
  for (std::size_t k = 0; k < sizes.size(); ++k) sizes[k] = 64 + k;

  PartialOptimizerConfig cfg;
  cfg.num_nodes = 4;
  cfg.scope = 50;
  cfg.seed = 3;
  const PartialOptimizer opt(trace, sizes, cfg);
  const PlacementPlan plan = opt.run("test-all-to-node-zero");
  EXPECT_EQ(plan.strategy, "test-all-to-node-zero");
  for (trace::KeywordId k : plan.scope)
    EXPECT_EQ(plan.keyword_to_node[k], 0);
}

TEST(StrategyRegistry, MultilevelIsHypergraphOnThePairwiseView) {
  // "multilevel" is the hypergraph partitioner on the pairs-only scoped
  // instance, seeded from the config: the same plan as a strategy that
  // calls it directly, at any thread count.
  StrategyRegistry& reg = StrategyRegistry::global();
  if (!reg.contains("test-hypergraph-on-pairs")) {
    reg.add("test-hypergraph-on-pairs", [](const PartialOptimizer& opt) {
      HypergraphOptions options;
      options.seed = opt.config().seed;
      return hypergraph_placement(opt.scoped_instance(), options);
    });
  }

  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 300;
  wcfg.num_topics = 20;
  wcfg.topic_size = 6;
  wcfg.mean_query_length = 4.0;
  wcfg.seed = 11;
  const trace::QueryTrace trace = trace::WorkloadModel(wcfg).generate(4000, 7);
  std::vector<std::uint64_t> sizes(wcfg.vocabulary_size);
  for (std::size_t k = 0; k < sizes.size(); ++k) sizes[k] = 64 + k;

  PartialOptimizerConfig cfg;
  cfg.num_nodes = 4;
  cfg.scope = 120;
  cfg.seed = 7;
  const PartialOptimizer opt(trace, sizes, cfg);
  ASSERT_FALSE(opt.scoped_instance().has_hyperedges());
  const PlacementPlan direct = opt.run("test-hypergraph-on-pairs");
  for (const int threads : {1, 2, 8}) {
    common::set_global_threads(threads);
    const PlacementPlan plan = opt.run("multilevel");
    EXPECT_EQ(plan.strategy, "multilevel");
    EXPECT_EQ(plan.keyword_to_node, direct.keyword_to_node)
        << "threads=" << threads;
  }
  common::set_global_threads(0);
}

}  // namespace
}  // namespace cca::core
