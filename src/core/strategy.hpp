// Named placement-strategy registry.
//
// Strategies are string-keyed factories that map a configured
// PartialOptimizer to a placement of its scoped instance. The built-ins
// ("random-hash", "greedy", "lprr", and the partitioner as "multilevel"
// on pairs and "hypergraph" on whole queries) are registered when the
// registry is first touched; new strategies
// register at runtime without touching the optimizer, and benches resolve
// `--strategy` flags by name through the same table:
//
//   core::StrategyRegistry::global().add("my-heuristic",
//       [](const core::PartialOptimizer& opt) {
//         return my_heuristic(opt.scoped_instance());
//       });
//   optimizer.run("my-heuristic");
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"

namespace cca::core {

class PartialOptimizer;

/// Computes a placement of `optimizer.scoped_instance()` (or of its
/// `hyperedge_instance()`, for whole-query strategies). Implementations
/// must be deterministic in the optimizer's config (seed included).
using StrategyFn = std::function<Placement(const PartialOptimizer&)>;

/// Process-wide name -> strategy table. Built-ins are registered in the
/// constructor (not via static initializers, which linkers may drop from
/// static libraries). Thread-safe for lookups after registration;
/// registration itself is expected from startup code.
class StrategyRegistry {
 public:
  /// The shared registry, with built-ins pre-registered (leaked singleton:
  /// valid through static destruction).
  static StrategyRegistry& global();

  /// Registers a strategy. Throws common::Error if the name is taken.
  void add(std::string name, StrategyFn fn);

  /// Looks up a strategy. Throws common::Error listing the registered
  /// names when `name` is unknown.
  const StrategyFn& at(std::string_view name) const;

  bool contains(std::string_view name) const;

  /// Registered names in sorted order.
  std::vector<std::string> names() const;

 private:
  StrategyRegistry();

  struct Impl;
  Impl& impl() const;
};

/// Splits a comma-separated strategy list (e.g. a --strategies flag) and
/// validates every name against the global registry — unknown names throw
/// the registry's listing error. Empty segments are skipped.
std::vector<std::string> parse_strategy_list(std::string_view csv);

}  // namespace cca::core
