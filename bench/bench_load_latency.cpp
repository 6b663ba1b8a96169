// Ablation H — placement under load (event-driven simulation).
//
// The paper reports communication volume; operators feel latency. This
// harness injects each month's queries as a Poisson stream against NICs
// of finite bandwidth and reports per-strategy latency percentiles and
// the busiest NIC's utilization across an arrival-rate sweep. Placements
// that move fewer bytes saturate later: the saturation knee is where
// correlation-aware placement turns into throughput.
//
//   ./bench_load_latency [--nodes=10] [--scope=1000] [--nic-mbps=40]
//                        [--sim-queries=20000]
//                        [--strategies=random-hash,greedy,lprr]
//                        [--json=<path>] [testbed flags]
//
// --strategies resolves through core::StrategyRegistry, so strategies
// registered at startup are benchmarkable by name with no code change
// here. With --json the per-cell grid (queries/sec included) plus a
// data-plane section — block vs varint decode MB/s over this testbed's
// real posting lists — is dumped for the PR-over-PR perf trajectory
// (BENCH_load_latency.json, gated by bench/check_perf.py). stdout is
// unchanged by --json except for the trailing "wrote ..." line, and the
// golden-contract run passes no --json at all.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "search/block_postings.hpp"
#include "search/compression.hpp"
#include "sim/event_sim.hpp"
#include "sim/replay.hpp"
#include "testbed.hpp"

using namespace cca;

namespace {

/// Decode throughput of the whole vocabulary under `codec`, MB/s of
/// decoded output (8 B/posting — the same denominator for both codecs).
/// Best of a few sweeps, so one scheduler hiccup does not poison the
/// committed trajectory.
double measure_decode_mbps(const search::InvertedIndex& index,
                           search::PostingCodec codec) {
  const search::CompressedIndex compressed(index, codec);
  std::uint64_t decoded_bytes = 0;
  for (trace::KeywordId k = 0; k < index.vocabulary_size(); ++k)
    decoded_bytes += 8 * compressed.postings_count(k);
  std::vector<std::uint64_t> out;
  out.reserve(compressed.max_postings());
  double best = 0.0;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (trace::KeywordId k = 0; k < index.vocabulary_size(); ++k) {
      compressed.decode(k, out);
      if (!out.empty()) sink += out.back();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (seconds > 0.0)
      best = std::max(best, static_cast<double>(decoded_bytes) / seconds /
                                1e6);
  }
  // Keep the decode loops observable.
  if (sink == 0xDEADBEEF) std::cerr << "";
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  const double nic_mbps = args.get_double("nic-mbps", 40.0);
  const auto sim_queries =
      static_cast<std::size_t>(args.get_int("sim-queries", 20000));
  const std::vector<std::string> strategies = core::parse_strategy_list(
      args.get_string("strategies", "random-hash,greedy,lprr"));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation H — latency under load (event simulation)");
  std::cout << "NIC bandwidth " << nic_mbps << " Mbit/s per node, "
            << sim_queries << " Poisson arrivals per cell\n\n";

  const core::PartialOptimizerConfig opt_cfg = tb.optimizer_config(nodes,
                                                                   scope);
  const core::PartialOptimizer optimizer(tb.january, tb.sizes, opt_cfg);
  const double capacity =
      opt_cfg.capacity_slack * tb.total_index_bytes / nodes;

  // One plan per strategy, installed on its own cluster; every arrival
  // rate below replays against the same placements.
  std::vector<sim::Cluster> clusters;
  clusters.reserve(strategies.size());
  for (const std::string& strategy : strategies) {
    const core::PlacementPlan plan = optimizer.run(strategy);
    clusters.emplace_back(nodes, capacity);
    clusters.back().install_placement(
        tb.build_map(plan.keyword_to_node, nodes), tb.sizes);
  }

  common::Table table({"arrival qps", "strategy", "p50 ms", "p99 ms",
                       "max NIC util"});
  std::vector<std::string> json_cells;
  for (const double qps : {500.0, 2000.0, 8000.0, 32000.0}) {
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      const std::string& strategy = strategies[s];
      const sim::Cluster& cluster = clusters[s];

      sim::EventSimConfig sim_cfg;
      sim_cfg.arrival_rate_qps = qps;
      sim_cfg.nic_mbps = nic_mbps;
      sim_cfg.num_queries = sim_queries;
      sim_cfg.seed = cfg.seed;
      const sim::EventSimStats stats =
          sim::simulate_load(cluster, tb.index, tb.february, sim_cfg);
      table.add_row({common::Table::num(qps, 0), strategy,
                     common::Table::num(stats.p50_latency_ms, 2),
                     common::Table::num(stats.p99_latency_ms, 2),
                     common::Table::pct(stats.max_nic_utilization)});
      if (!cfg.json_path.empty()) {
        // Completions per simulated second: a model output that tracks the
        // arrival rate, not a wall-clock serving rate.
        const double sim_completion_qps =
            stats.makespan_ms > 0.0
                ? static_cast<double>(stats.completed) /
                      (stats.makespan_ms / 1000.0)
                : 0.0;
        std::ostringstream cell;
        cell << "    {\"arrival_qps\": " << qps << ", \"strategy\": \""
             << strategy << "\", \"p50_ms\": " << stats.p50_latency_ms
             << ", \"p99_ms\": " << stats.p99_latency_ms
             << ", \"max_nic_util\": " << stats.max_nic_utilization
             << ", \"sim_completion_qps\": " << sim_completion_qps << "}";
        json_cells.push_back(cell.str());
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n(open-loop arrivals; local queries cost 0 network ms."
               " Watch the p99 column: the strategy ordering from the"
               " byte-count figures becomes a saturation-knee ordering)\n";

  if (!cfg.json_path.empty()) {
    // The data-plane trajectory: decode throughput of both codecs over
    // this testbed's real posting lists. Measured only on the --json
    // lane, so golden-contract runs pay nothing.
    const double block_mbps =
        measure_decode_mbps(tb.index, search::PostingCodec::kBlock);
    const double varint_mbps =
        measure_decode_mbps(tb.index, search::PostingCodec::kVarint);
    // The serving kernel's thread scaling: February cycled to 64 shards of
    // arrivals, replayed and event-simulated on the last strategy's plan.
    constexpr std::size_t kScalingArrivals = 64 * 1024;
    trace::QueryTrace cycled(tb.february.vocabulary_size());
    for (std::size_t q = 0; q < kScalingArrivals; ++q)
      cycled.add_query(tb.february[q % tb.february.size()].keywords);
    const double replay_speedup = bench::thread_speedup(cfg.threads, [&] {
      sim::Cluster cluster = clusters.back();  // replay charges transfers
      sim::replay_trace(cluster, tb.index, cycled);
    });
    sim::EventSimConfig scaling_cfg;
    scaling_cfg.arrival_rate_qps = 8000.0;
    scaling_cfg.nic_mbps = nic_mbps;
    scaling_cfg.num_queries = kScalingArrivals;
    scaling_cfg.seed = cfg.seed;
    const double eventsim_speedup = bench::thread_speedup(cfg.threads, [&] {
      sim::simulate_load(clusters.back(), tb.index, tb.february, scaling_cfg);
    });
    std::ofstream out(cfg.json_path);
    CCA_CHECK_MSG(out.good(), "cannot write JSON log to " << cfg.json_path);
    out << "{\n  \"cells\": [\n";
    for (std::size_t i = 0; i < json_cells.size(); ++i)
      out << json_cells[i] << (i + 1 < json_cells.size() ? ",\n" : "\n");
    out << "  ],\n";
    out << "  \"data_plane\": {\n"
        << "    \"codec_default\": \""
        << search::posting_codec_name(search::default_posting_codec())
        << "\",\n"
        << "    \"block_decode_mbps\": " << block_mbps << ",\n"
        << "    \"varint_decode_mbps\": " << varint_mbps << ",\n"
        << "    \"decode_speedup\": "
        << (varint_mbps > 0.0 ? block_mbps / varint_mbps : 0.0) << ",\n"
        << "    \"threads\": " << cfg.threads << ",\n"
        << "    \"replay_speedup\": " << replay_speedup << ",\n"
        << "    \"eventsim_speedup\": " << eventsim_speedup << "\n"
        << "  }\n}\n";
    std::cout << "\nwrote " << json_cells.size() << " cells to "
              << cfg.json_path << "\n";
  }

  bench::write_metrics(cfg);
  return 0;
}
