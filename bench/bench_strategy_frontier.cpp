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
// the --json dump, giving the quality-vs-time frontier per distribution.
//
//   ./bench_strategy_frontier [--nodes=10] [--scope=1000]
//       [--qlens=2,2.54,4,6]
//       [--strategies=random-hash,greedy,multilevel,lprr,hypergraph]
//       [--json=<path>] [testbed flags]
//
// --strategies resolves through core::StrategyRegistry. stdout carries
// only deterministic quantities (bit-identical for any --threads, with or
// without --metrics); wall-clock lives in the JSON cells only. The smoke
// tier drives bench/check_frontier_grid.py over the dump: full
// (qlen x strategy) coverage, and on long-query workloads (mean >= 4)
// "hypergraph" must strictly beat both "multilevel" and "greedy" on the
// lambda objective at comparable capacity feasibility.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/hypergraph.hpp"
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

  // One row of cells per query length, grid cells evaluated concurrently.
  // parallel_map's index-ordered join keeps stdout deterministic.
  const auto rows = common::parallel_map(
      qlens.size(), [&](std::size_t qi) -> std::vector<FrontierCell> {
        const double qlen = qlens[qi];
        trace::WorkloadConfig wcfg;
        wcfg.vocabulary_size = cfg.vocabulary;
        wcfg.num_topics = cfg.topics;
        wcfg.topic_size = cfg.topic_size;
        wcfg.topic_coherence = cfg.coherence;
        wcfg.disjoint_topics = cfg.disjoint_topics;
        wcfg.mean_query_length = qlen;
        wcfg.seed = cfg.seed;
        const trace::WorkloadModel model(wcfg);
        const trace::QueryTrace january =
            model.generate(cfg.queries, cfg.seed * 7919 + 1);
        const trace::QueryTrace february =
            model.generate(cfg.queries, cfg.seed * 104729 + 2);
        const core::PartialOptimizer optimizer(
            january, tb.sizes, tb.optimizer_config(nodes, scope));
        const core::CcaInstance& scoped = optimizer.hyperedge_instance();
        const double lambda_total = scoped.total_connectivity_cost();

        std::vector<FrontierCell> cells;
        for (const std::string& strategy : strategies) {
          const auto start = std::chrono::steady_clock::now();
          const core::PlacementPlan plan = optimizer.run(strategy);
          FrontierCell cell;
          cell.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
          cell.qlen = qlen;
          cell.realized_qlen = january.mean_query_length();
          cell.strategy = strategy;
          cell.lambda_feb =
              core::trace_lambda_cost(february, plan.keyword_to_node);
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
  for (const std::vector<FrontierCell>& row : rows) {
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

  if (!cfg.json_path.empty()) {
    std::ofstream out(cfg.json_path);
    CCA_CHECK_MSG(out.good(), "cannot write JSON log to " << cfg.json_path);
    out << "{\n  \"cells\": [\n";
    for (std::size_t i = 0; i < json_cells.size(); ++i)
      out << json_cells[i] << (i + 1 < json_cells.size() ? ",\n" : "\n");
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_cells.size() << " cells to "
              << cfg.json_path << "\n";
  }

  bench::write_metrics(cfg);
  return 0;
}
