#include "core/strategy.hpp"

#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include <algorithm>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/component_solver.hpp"
#include "core/hypergraph.hpp"
#include "core/lp_formulation.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placements.hpp"
#include "core/rounding.hpp"

namespace cca::core {

namespace {

Placement lprr_placement(const PartialOptimizer& opt) {
  const PartialOptimizerConfig& config = opt.config();
  const CcaInstance& instance = opt.scoped_instance();
  ComponentSolverOptions solver_options{config.seed, config.component_fill};
  lp::WarmStartCache* cache =
      config.lp_warm_start ? opt.lp_warm_cache() : nullptr;
  solver_options.warm_cache = cache;
  FractionalPlacement fractional =
      config.use_full_lp
          ? solve_cca_lp(instance, {}, cache)
          : ComponentLpSolver(solver_options).solve(instance);
  common::Rng rng(config.seed ^ 0xC0FFEE1234ULL);
  RoundingResult rounded =
      round_best_of(fractional, instance, config.rounding, rng);
  return rounded.placement;
}

HypergraphOptions seeded_hypergraph_options(const PartialOptimizer& opt) {
  HypergraphOptions options = opt.config().hypergraph;
  options.seed = opt.config().seed;
  return options;
}

}  // namespace

struct StrategyRegistry::Impl {
  mutable std::mutex mutex;
  // Transparent comparator: lookups by string_view without a copy.
  std::map<std::string, StrategyFn, std::less<>> strategies;
};

StrategyRegistry::StrategyRegistry() {
  // Built-ins, registered eagerly so the table is complete the moment
  // global() returns. "random-hash" is the paper's production baseline;
  // "lprr" is its contribution (Fig. 4 LP + Algorithm 2.1 rounding).
  add("random-hash", [](const PartialOptimizer& opt) {
    return opt.hash_scope_placement();
  });
  add("greedy", [](const PartialOptimizer& opt) {
    return greedy_placement(opt.scoped_instance(), opt.config().greedy);
  });
  // "multilevel" is the hypergraph partitioner on the pairs-only scoped
  // instance: each pair lifts to a 2-pin net of weight r*w, so it
  // minimizes the paper's pairwise cut. It draws the same
  // "core.hypergraph.r<i>" streams as "hypergraph", on another instance.
  add("multilevel", [](const PartialOptimizer& opt) {
    return hypergraph_placement(opt.scoped_instance(),
                                seeded_hypergraph_options(opt));
  });
  add("hypergraph", [](const PartialOptimizer& opt) {
    return hypergraph_placement(opt.hyperedge_instance(),
                                seeded_hypergraph_options(opt));
  });
  add("lprr", lprr_placement);
}

StrategyRegistry& StrategyRegistry::global() {
  static StrategyRegistry* instance = new StrategyRegistry();
  return *instance;
}

StrategyRegistry::Impl& StrategyRegistry::impl() const {
  static Impl* instance = new Impl();
  return *instance;
}

void StrategyRegistry::add(std::string name, StrategyFn fn) {
  CCA_CHECK_MSG(!name.empty(), "strategy name must be non-empty");
  CCA_CHECK(fn != nullptr);
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mutex);
  const auto [it, inserted] =
      i.strategies.emplace(std::move(name), std::move(fn));
  CCA_CHECK_MSG(inserted,
                "strategy '" << it->first << "' is already registered");
}

const StrategyFn& StrategyRegistry::at(std::string_view name) const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mutex);
  const auto it = i.strategies.find(name);
  if (it == i.strategies.end()) {
    std::ostringstream known;
    for (const auto& [key, fn] : i.strategies) {
      if (known.tellp() > 0) known << ", ";
      known << key;
    }
    CCA_CHECK_MSG(false, "unknown strategy '" << name << "' (registered: "
                                              << known.str() << ")");
  }
  return it->second;
}

bool StrategyRegistry::contains(std::string_view name) const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mutex);
  return i.strategies.find(name) != i.strategies.end();
}

std::vector<std::string> StrategyRegistry::names() const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mutex);
  std::vector<std::string> out;
  out.reserve(i.strategies.size());
  for (const auto& [key, fn] : i.strategies) out.push_back(key);
  return out;
}

std::vector<std::string> parse_strategy_list(std::string_view csv) {
  const StrategyRegistry& registry = StrategyRegistry::global();
  const std::vector<std::string> known = registry.names();
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string_view name =
        csv.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                          : comma - start);
    if (!name.empty()) {
      if (!registry.contains(name)) {
        // Same did-you-mean shape a bad enum-valued bench flag gets, so a
        // typo'd --strategies value fails like every other flag value.
        std::ostringstream message;
        message << "unknown strategy '" << name
                << "' (registered: " << common::quote_candidates(known)
                << ")";
        const std::string hint =
            common::suggest_value(std::string(name), known);
        if (!hint.empty()) message << " (did you mean '" << hint << "'?)";
        CCA_CHECK_MSG(false, message.str());
      }
      CCA_CHECK_MSG(std::find(out.begin(), out.end(), name) == out.end(),
                    "duplicate strategy '"
                        << name << "' in list '" << csv
                        << "' — each strategy may appear once");
      out.emplace_back(name);
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  CCA_CHECK_MSG(!out.empty(), "strategy list is empty");
  return out;
}

}  // namespace cca::core
