// Figure 2 reproduction: (A) skewness of keyword-pair correlations and
// (B) their stability across two month-long observation periods.
//
// Paper reference points (Ask.com, Jan/Feb 2006): the most correlated
// pair is ~177x the 1000th pair, and only ~1.2% of top pairs change by
// more than 2x between months.
//
// The --miner flag selects the correlation miner: `exact` (PairCounter,
// one hash slot per distinct pair — the historical path, byte-identical
// output) or `sketch` (StreamMiner: Count-Min pair sketch + bounded
// candidate set, memory independent of the pair vocabulary). The sketch
// is what unlocks the million-object cell. --stream-batch=N generates and
// mines the trace in N-query batches instead of materializing it, so the
// only thing that grows with the workload is the miner itself:
//
//   ./bench_fig2_correlation --vocab=1000000 --queries=10000000
//       --topics=50000 --miner=sketch --stream-batch=100000
//
// --recall-check additionally builds the exact counter on the January
// stream and reports the sketch's top-k recall against it (the
// smoke_miner_equiv contract requires >= 0.95 at tier-1 scale); skip it
// at scales where the exact counter itself is the memory problem.
//
//   ./bench_fig2_correlation [--vocab=N] [--queries=N] [--seed=N]
//                            [--top=1000] [--drift=0.02]
//                            [--miner={exact,sketch}] [--recall-check]
//                            [--stream-batch=N] [--json=cells.json]
#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "testbed.hpp"
#include "trace/pair_stats.hpp"
#include "trace/stream_miner.hpp"

using namespace cca;

namespace {

/// Peak resident set of this process so far, in KiB (ru_maxrss is KiB on
/// Linux). Goes to stderr/--json only: RSS is not deterministic, stdout
/// must stay byte-identical across runs and thread counts.
long peak_rss_kib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Top-k recall: fraction of `reference` pairs present in `mined`.
double top_k_recall(const std::vector<trace::PairCount>& reference,
                    const std::vector<trace::PairCount>& mined) {
  if (reference.empty()) return 1.0;
  std::size_t hit = 0;
  for (const trace::PairCount& ref : reference)
    for (const trace::PairCount& got : mined)
      if (got.pair == ref.pair) {
        ++hit;
        break;
      }
  return static_cast<double>(hit) / static_cast<double>(reference.size());
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  // Pair-stability statistics need deep traces: at the testbed default of
  // 40k queries the 1000th pair has only ~12 observations and sampling
  // noise would masquerade as instability (the paper used 29M queries).
  if (!args.has("queries")) cfg.queries = 300000;
  const auto top_k = static_cast<std::size_t>(args.get_int("top", 1000));
  const double drift = args.get_double("drift", 0.01);
  const bool recall_check = args.get_bool("recall-check", false);
  const auto stream_batch =
      static_cast<std::size_t>(args.get_int("stream-batch", 0));
  args.reject_unused();
  const bool sketch = cfg.miner.kind == core::MinerOptions::Kind::kSketch;

  // Fig. 2 needs only traces (no corpus); generate the "February" trace
  // from a slightly drifted model so stability reflects both sampling
  // noise and genuine interest drift.
  trace::WorkloadConfig query_cfg;
  query_cfg.vocabulary_size = cfg.vocabulary;
  query_cfg.num_topics = cfg.topics;
  query_cfg.topic_size = cfg.topic_size;
  query_cfg.seed = cfg.seed;
  const trace::WorkloadModel january_model(query_cfg);
  const trace::WorkloadModel february_model =
      january_model.drifted(drift, cfg.seed + 55);
  const std::uint64_t jan_seed = cfg.seed * 7919 + 1;
  const std::uint64_t feb_seed = cfg.seed * 104729 + 2;

  std::cout << "Figure 2 — keyword-pair correlation skewness & stability\n"
            << "traces: " << cfg.queries << " January queries, "
            << cfg.queries << " February queries (model drift " << drift
            << ")\n\n";

  // Streams one month into whichever miner is non-null, generating in
  // --stream-batch chunks so the full trace never exists in memory (the
  // million-object cell: queries are cheap, the materialized trace is
  // what breaks first). Batch seeds derive from the month seed, so the
  // stream is reproducible for fixed flags.
  const auto mine_month = [&](const trace::WorkloadModel& model,
                              std::uint64_t month_seed,
                              trace::StreamMiner* miner,
                              trace::PairCounter* counter) {
    std::size_t done = 0, batch_no = 0;
    const auto next_batch = [&](trace::QueryTrace& batch) {
      if (done >= cfg.queries) return false;
      const std::size_t n = stream_batch > 0
                                ? std::min(stream_batch, cfg.queries - done)
                                : cfg.queries;
      batch = model.generate(n, month_seed + 1000003 * batch_no);
      done += n;
      ++batch_no;
      return true;
    };
    if (counter) {
      *counter = trace::PairCounter::count_all_pairs_batched(next_batch);
      return;
    }
    trace::QueryTrace batch(0);
    while (next_batch(batch))
      miner->observe_trace(batch, trace::PairMode::kAllPairs);
  };

  // --- Mine both months with the selected miner. ---
  std::vector<trace::PairCount> top;  // January top-k with probabilities
  trace::StreamMiner jan_miner(cfg.miner.sketch);
  trace::StreamMiner feb_miner(cfg.miner.sketch);
  trace::PairCounter jan_exact, feb_exact;
  std::size_t miner_bytes = 0, distinct_or_candidates = 0;
  if (sketch) {
    mine_month(january_model, jan_seed, &jan_miner, nullptr);
    mine_month(february_model, feb_seed, &feb_miner, nullptr);
    top = jan_miner.top_pairs(top_k);
    miner_bytes = jan_miner.memory_bytes();
    distinct_or_candidates =
        jan_miner.top_pairs(cfg.miner.sketch.top_pairs).size();
  } else {
    mine_month(january_model, jan_seed, nullptr, &jan_exact);
    mine_month(february_model, feb_seed, nullptr, &feb_exact);
    top = jan_exact.top_pairs(top_k);
    miner_bytes = jan_exact.memory_bytes();
    distinct_or_candidates = jan_exact.distinct_pairs();
  }
  const double feb_n = static_cast<double>(cfg.queries);
  const auto feb_probability = [&](const trace::KeywordPair& pair) {
    if (sketch)
      return feb_miner.estimate_pair(pair.first, pair.second) /
             std::max(feb_miner.query_weight(), 1.0);
    return static_cast<double>(feb_exact.count(pair.first, pair.second)) /
           std::max(feb_n, 1.0);
  };

  // --- (A) skewness: correlation vs rank, log-scale flavour. ---
  std::cout << "(A) correlation by rank (January, " << (sketch ? "sketch" : "exact")
            << " miner):\n";
  common::Table skew({"pair rank", "P(pair | query) Jan", "P Feb",
                      "Feb/Jan ratio"});
  for (std::size_t rank : {std::size_t{1}, std::size_t{5}, std::size_t{10},
                           std::size_t{50}, std::size_t{100},
                           std::size_t{200}, std::size_t{500}, top_k}) {
    if (rank > top.size()) continue;
    const auto& pc = top[rank - 1];
    const double feb_p = feb_probability(pc.pair);
    skew.add_row({std::to_string(rank),
                  common::Table::num(pc.probability * 1e4, 3) + "e-4",
                  common::Table::num(feb_p * 1e4, 3) + "e-4",
                  common::Table::num(pc.probability > 0
                                         ? feb_p / pc.probability
                                         : 0.0, 2)});
  }
  bench::print_table(skew, cfg);
  if (top.size() >= top_k && top_k >= 1) {
    const double ratio = top.front().probability / top[top_k - 1].probability;
    std::cout << "\nskew summary: top pair is "
              << common::Table::num(ratio, 1) << "x the " << top_k
              << "th pair (paper: ~177x for its trace)\n";
  }

  // --- (B) stability. ---
  std::size_t pairs_changed = 0;
  double log_sum = 0.0;
  for (const trace::PairCount& pc : top) {
    const double ratio = feb_probability(pc.pair) / pc.probability;
    if (ratio > 2.0 || ratio < 0.5) ++pairs_changed;
    // An absent pair reads as a 2^64 change rather than infinity so the
    // mean stays finite (same convention as trace::compare_stability).
    log_sum += ratio > 0.0 ? std::abs(std::log2(ratio)) : 64.0;
  }
  const double changed_fraction =
      top.empty() ? 0.0
                  : static_cast<double>(pairs_changed) /
                        static_cast<double>(top.size());
  const double mean_abs_log2 =
      top.empty() ? 0.0 : log_sum / static_cast<double>(top.size());
  std::cout << "\n(B) stability of the top " << top.size()
            << " January pairs in February:\n"
            << "  pairs changed >2x or <0.5x: " << pairs_changed << " ("
            << common::Table::pct(changed_fraction) << "; paper: ~1.2%)\n"
            << "  mean |log2(Feb/Jan)|: "
            << common::Table::num(mean_abs_log2, 3) << "\n";

  // --- Miner footprint and (optional) sketch-vs-exact recall. ---
  std::cout << "\nminer: " << (sketch ? "sketch" : "exact") << ", "
            << distinct_or_candidates
            << (sketch ? " candidate pairs" : " distinct pairs") << ", "
            << miner_bytes / 1024 << " KiB retained\n";
  double recall = -1.0;
  std::size_t exact_bytes = 0;
  if (recall_check) {
    trace::PairCounter sketch_reference;
    if (sketch) mine_month(january_model, jan_seed, nullptr, &sketch_reference);
    const trace::PairCounter& reference =
        sketch ? sketch_reference : jan_exact;
    const std::vector<trace::PairCount> mined =
        sketch ? jan_miner.top_pairs(top_k) : top;
    recall = top_k_recall(reference.top_pairs(top_k), mined);
    exact_bytes = reference.memory_bytes();
    std::cout << "recall@" << top_k << " vs exact: "
              << common::Table::num(recall, 3) << " (exact miner holds "
              << reference.distinct_pairs() << " pairs, "
              << exact_bytes / 1024 << " KiB)\n";
  }
  // RSS is run-environment noise, never part of the deterministic stdout.
  const long rss_kib = peak_rss_kib();
  std::cerr << "peak RSS: " << rss_kib << " KiB\n";

  if (!cfg.json_path.empty()) {
    std::ofstream out(cfg.json_path);
    CCA_CHECK_MSG(out.good(), "cannot write JSON to " << cfg.json_path);
    out << "{\n"
        << "  \"miner\": \"" << (sketch ? "sketch" : "exact") << "\",\n"
        << "  \"vocab\": " << cfg.vocabulary << ",\n"
        << "  \"queries\": " << cfg.queries << ",\n"
        << "  \"top_k\": " << top_k << ",\n"
        << "  \"miner_bytes\": " << miner_bytes << ",\n"
        << "  \"exact_bytes\": " << exact_bytes << ",\n"
        << "  \"recall_vs_exact\": " << (recall < 0.0 ? -1.0 : recall)
        << ",\n"
        << "  \"changed_fraction\": " << changed_fraction << ",\n"
        << "  \"mean_abs_log2_ratio\": " << mean_abs_log2 << ",\n"
        << "  \"peak_rss_kib\": " << rss_kib << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < top.size(); ++i) {
      out << "    {\"rank\": " << (i + 1) << ", \"a\": " << top[i].pair.first
          << ", \"b\": " << top[i].pair.second
          << ", \"p_jan\": " << top[i].probability
          << ", \"p_feb\": " << feb_probability(top[i].pair) << "}"
          << (i + 1 < top.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << top.size() << " rows to " << cfg.json_path
              << "\n";
  }
  bench::write_metrics(cfg);
  return 0;
}
