// Ablation P — the strategy quality-vs-time frontier across query-length
// distributions.
//
// The paper's pipeline collapses every query to pairwise correlations, an
// approximation that is exact for 2-keyword queries and degrades as
// operations grow. This harness sweeps the workload's mean query length
// and races every registered strategy on the SAME pipeline, reporting the
// metric the pairwise view cannot see: the rate-weighted
// connectivity-minus-one cost (distinct nodes a query touches, minus one)
// replayed over the held-out February trace. Strategy wall time goes to
// the --json dump, giving the quality-vs-time frontier per distribution;
// the strategy calls run one at a time, with the pool to themselves and
// no other grid work beside them, so each cell's wall_ms is its strategy
// running alone at the configured thread count.
//
//   ./bench_strategy_frontier [--nodes=10] [--scope=1000]
//       [--qlens=2,2.54,4,6]
//       [--strategies=random-hash,greedy,multilevel,lprr,hypergraph]
//       [--json=<path>] [testbed flags]
//
// --strategies resolves through core::StrategyRegistry. stdout carries
// only deterministic quantities (bit-identical for any --threads, with or
// without --metrics); wall-clock lives in the JSON dump only: each cell's
// wall_ms, and a top-level hypergraph_speedup, the partitioner's
// configured-threads speedup over one thread on a fixed scope-1000,
// mean-length-6 instance (best of three, interleaved). The smoke tier
// drives bench/check_frontier_grid.py over the dump: full
// (qlen x strategy) coverage, on long-query workloads (mean >= 4)
// "hypergraph" must strictly beat both "multilevel" and "greedy" on the
// lambda objective at comparable capacity feasibility, and at 4 or more
// threads the speedup must reach 1.3.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/hypergraph.hpp"
#include "core/partial_optimizer.hpp"
#include "trace/workload.hpp"
#include "testbed.hpp"

using namespace cca;

namespace {

/// One (query-length, strategy) cell of the frontier grid.
struct FrontierCell {
  double qlen = 0.0;            // configured mean query length
  double realized_qlen = 0.0;   // the trace's actual mean
  std::string strategy;
  double lambda_feb = 0.0;      // mean (distinct nodes - 1) per Feb query
  double lambda_scoped = 0.0;   // scoped connectivity cost, normalized
  double pair_cost_norm = 0.0;  // scoped pairwise objective, normalized
  double max_load_factor = 0.0;
  bool feasible = false;
  double wall_ms = 0.0;         // strategy run only (JSON lane)
};

/// Thread scaling of the hypergraph partitioner on one fixed instance:
/// scope 1000 of a 5000-keyword trace of mean query length 6 over 16
/// nodes (bench_micro's BM_HypergraphPlacement/1000), whatever the grid's
/// flags, so every dump times the same work. A workspace or lock that
/// serialised the restarted V-cycles would pull it toward 1.
double hypergraph_speedup(int threads) {
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 5000;
  wcfg.num_topics = 400;
  wcfg.topic_size = 8;
  wcfg.mean_query_length = 6.0;
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(40000, 7);
  std::vector<std::uint64_t> sizes(wcfg.vocabulary_size);
  for (std::size_t k = 0; k < sizes.size(); ++k) sizes[k] = 64 + k % 512;
  core::PartialOptimizerConfig cfg;
  cfg.num_nodes = 16;
  cfg.scope = 1000;
  const core::PartialOptimizer optimizer(trace, sizes, cfg);
  const core::CcaInstance& instance = optimizer.hyperedge_instance();
  return bench::thread_speedup(
      threads, [&] { core::hypergraph_placement(instance); });
}

std::vector<double> parse_qlens(const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) {
      const double qlen = std::stod(item);
      CCA_CHECK_MSG(qlen >= 1.0 && qlen <= 32.0,
                    "--qlens entry " << item << " outside [1, 32]");
      out.push_back(qlen);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  CCA_CHECK_MSG(!out.empty(), "--qlens list is empty");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  const std::vector<double> qlens =
      parse_qlens(args.get_string("qlens", "2,2.54,4,6"));
  const std::vector<std::string> strategies =
      core::parse_strategy_list(args.get_string(
          "strategies", "random-hash,greedy,multilevel,lprr,hypergraph"));
  args.reject_unused();

  // The corpus/index is query-length independent: build it once through
  // the shared testbed, then redraw the traces per mean length.
  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner(
      "Ablation P — strategy frontier across query-length distributions");
  std::cout << "lambda-1/query = distinct nodes a February query touches,"
               " minus one (the whole-operation cost the pairwise collapse"
               " approximates)\n\n";

  // Three phases. The rows' inputs (traces, optimizer, hyperedges) build
  // concurrently; then every timed strategy call runs alone on this
  // thread, outside any pool batch, so each cell's wall_ms is its
  // strategy and nothing else; then the lambda evaluations run
  // concurrently. Index-ordered joins keep stdout deterministic.
  struct Row {
    double qlen;
    trace::QueryTrace january, february;
    core::PartialOptimizer optimizer;

    Row(const bench::Testbed& tb, const bench::TestbedConfig& cfg,
        const trace::WorkloadModel& model, double mean_qlen, int nodes,
        std::size_t scope)
        : qlen(mean_qlen),
          january(model.generate(cfg.queries, cfg.seed * 7919 + 1)),
          february(model.generate(cfg.queries, cfg.seed * 104729 + 2)),
          optimizer(january, tb.sizes, tb.optimizer_config(nodes, scope)) {
      optimizer.hyperedge_instance();
    }
  };
  const std::vector<std::unique_ptr<Row>> rows = common::parallel_map(
      qlens.size(), [&](std::size_t qi) {
        trace::WorkloadConfig wcfg;
        wcfg.vocabulary_size = cfg.vocabulary;
        wcfg.num_topics = cfg.topics;
        wcfg.topic_size = cfg.topic_size;
        wcfg.topic_coherence = cfg.coherence;
        wcfg.disjoint_topics = cfg.disjoint_topics;
        wcfg.mean_query_length = qlens[qi];
        wcfg.seed = cfg.seed;
        const trace::WorkloadModel model(wcfg);
        return std::make_unique<Row>(tb, cfg, model, qlens[qi], nodes, scope);
      });

  std::vector<std::vector<core::PlacementPlan>> plans(rows.size());
  std::vector<std::vector<double>> wall_ms(rows.size());
  for (std::size_t qi = 0; qi < rows.size(); ++qi) {
    for (const std::string& strategy : strategies) {
      const auto start = std::chrono::steady_clock::now();
      plans[qi].push_back(rows[qi]->optimizer.run(strategy));
      wall_ms[qi].push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
  }

  const auto cells_by_row = common::parallel_map(
      rows.size(), [&](std::size_t qi) -> std::vector<FrontierCell> {
        const Row& row = *rows[qi];
        const core::CcaInstance& scoped = row.optimizer.hyperedge_instance();
        const double lambda_total = scoped.total_connectivity_cost();
        std::vector<FrontierCell> cells;
        for (std::size_t si = 0; si < strategies.size(); ++si) {
          const core::PlacementPlan& plan = plans[qi][si];
          FrontierCell cell;
          cell.wall_ms = wall_ms[qi][si];
          cell.qlen = row.qlen;
          cell.realized_qlen = row.january.mean_query_length();
          cell.strategy = strategies[si];
          cell.lambda_feb =
              core::trace_lambda_cost(row.february, plan.keyword_to_node);
          core::Placement scoped_placement(
              static_cast<std::size_t>(scoped.num_objects()));
          for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
            scoped_placement[pos] = plan.keyword_to_node[plan.scope[pos]];
          cell.lambda_scoped =
              lambda_total > 0.0
                  ? scoped.connectivity_cost(scoped_placement) / lambda_total
                  : 0.0;
          cell.pair_cost_norm = plan.scoped_report.normalized_cost;
          cell.max_load_factor = plan.max_load_factor;
          cell.feasible = plan.scoped_report.feasible;
          cells.push_back(std::move(cell));
        }
        return cells;
      });

  common::Table table({"mean qlen", "realized", "strategy",
                       "lambda-1/query (Feb)", "scoped lambda norm",
                       "pair cost norm", "max load"});
  std::vector<std::string> json_cells;
  for (const std::vector<FrontierCell>& row : cells_by_row) {
    for (const FrontierCell& cell : row) {
      table.add_row({common::Table::num(cell.qlen, 2),
                     common::Table::num(cell.realized_qlen, 2), cell.strategy,
                     common::Table::num(cell.lambda_feb, 4),
                     common::Table::num(cell.lambda_scoped, 4),
                     common::Table::num(cell.pair_cost_norm, 4),
                     common::Table::num(cell.max_load_factor, 3)});
      if (!cfg.json_path.empty()) {
        std::ostringstream out;
        out << "    {\"seed\": " << cfg.seed
            << ", \"threads\": " << cfg.threads << ", \"nodes\": " << nodes
            << ", \"scope\": " << scope << ", \"qlen\": " << cell.qlen
            << ", \"realized_qlen\": " << cell.realized_qlen
            << ", \"strategy\": \"" << cell.strategy << "\""
            << ", \"lambda_feb\": " << cell.lambda_feb
            << ", \"lambda_scoped_norm\": " << cell.lambda_scoped
            << ", \"pair_cost_norm\": " << cell.pair_cost_norm
            << ", \"max_load_factor\": " << cell.max_load_factor
            << ", \"feasible\": " << (cell.feasible ? "true" : "false")
            << ", \"wall_ms\": " << cell.wall_ms << "}";
        json_cells.push_back(out.str());
      }
    }
  }
  bench::print_table(table, cfg);
  std::cout << "\n(at qlen ~2 every strategy optimizes what it sees; past"
               " qlen 4 the pairwise approximation thins out and only the"
               " hyperedge view still tracks whole operations)\n";

  // Metrics first: the speedup's extra placements stay out of the dump.
  bench::write_metrics(cfg);
  if (!cfg.json_path.empty()) {
    const double speedup = hypergraph_speedup(cfg.threads);
    std::ofstream out(cfg.json_path);
    CCA_CHECK_MSG(out.good(), "cannot write JSON log to " << cfg.json_path);
    out << "{\n  \"cells\": [\n";
    for (std::size_t i = 0; i < json_cells.size(); ++i)
      out << json_cells[i] << (i + 1 < json_cells.size() ? ",\n" : "\n");
    out << "  ],\n  \"threads\": " << cfg.threads
        << ",\n  \"hypergraph_speedup\": " << speedup << "\n}\n";
    std::cout << "\nwrote " << json_cells.size() << " cells to "
              << cfg.json_path << "\n";
  }
  return 0;
}
