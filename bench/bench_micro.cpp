// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: MD5 hashing, placement-map builds, Zipf sampling,
// posting-list intersection, pair counting, the trace front end (mining,
// ranking, hyperedges, lexicographic order), component grouping, LP
// solves, and randomized rounding.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/lex_order.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "core/component_solver.hpp"
#include "core/correlation.hpp"
#include "core/hypergraph.hpp"
#include "core/lp_formulation.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placement_map.hpp"
#include "core/rounding.hpp"
#include "hash/md5.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/solver.hpp"
#include "search/block_postings.hpp"
#include "search/compression.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "trace/documents.hpp"
#include "trace/pair_stats.hpp"
#include "trace/workload.hpp"

namespace {

using namespace cca;

void BM_Md5Digest64(benchmark::State& state) {
  const std::string input(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Md5::digest64(input));
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Digest64)->Arg(16)->Arg(64)->Arg(1024)->Arg(65536);

// tail_node over a 20 000-keyword vocabulary on 16 nodes. Arg "table"
// picks the key source: 1 reads the process-wide digest table (warmed
// before timing, as every map build after the first finds it), 0 hashes
// "kw<id>" directly with Md5::digest64 — what each call cost before the
// table.
void BM_TailNode(benchmark::State& state) {
  constexpr trace::KeywordId kVocab = 20000;
  const bool table = state.range(0) != 0;
  for (trace::KeywordId k = 0; k < kVocab; ++k)
    benchmark::DoNotOptimize(core::tail_node(core::HashTail::kMd5, k, 16));
  for (auto _ : state) {
    for (trace::KeywordId k = 0; k < kVocab; ++k) {
      if (table) {
        benchmark::DoNotOptimize(core::tail_node(core::HashTail::kMd5, k, 16));
      } else {
        benchmark::DoNotOptimize(
            hash::Md5::digest64(trace::keyword_name(k)) % 16);
      }
    }
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * kVocab);
}
BENCHMARK(BM_TailNode)
    ->ArgName("table")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// One epoch of a state.range(0)-keyword vocabulary on 16 nodes, every
// tenth keyword pinned off its tail node: the hash tail of every keyword
// is recomputed from the warm digest table (BM_TailNode), so this row is
// the map's own copying and pin scan.
void BM_PlacementMapBuild(benchmark::State& state) {
  const auto vocab = static_cast<trace::KeywordId>(state.range(0));
  core::PlacementMapConfig config;
  config.num_nodes = 16;
  std::vector<int> placement(vocab);
  for (trace::KeywordId k = 0; k < vocab; ++k) {
    const int tail = core::tail_node(config.hash_tail, k, config.num_nodes);
    placement[k] = k % 10 == 0 ? (tail + 1) % config.num_nodes : tail;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PlacementMap::build(placement, config));
  }
}
BENCHMARK(BM_PlacementMapBuild)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  const common::ZipfSampler zipf(
      static_cast<std::size_t>(state.range(0)), 1.0);
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_PostingIntersection(benchmark::State& state) {
  common::Rng rng(7);
  std::vector<std::uint64_t> a, b;
  for (long i = 0; i < state.range(0); ++i) a.push_back(rng() % 1000000);
  for (long i = 0; i < state.range(1); ++i) b.push_back(rng() % 1000000);
  const search::PostingList list_a(std::move(a)), list_b(std::move(b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search::intersect(list_a, list_b));
  }
}
BENCHMARK(BM_PostingIntersection)
    ->Args({1000, 1000})     // merge path
    ->Args({100, 100000});   // galloping path

/// Strictly increasing posting IDs: dense (gaps 1-2, narrow block width)
/// or sparse (gaps up to ~1M, wide block width) — the two decode regimes
/// EXPERIMENTS.md Ablation O quotes.
std::vector<std::uint64_t> synthetic_postings(std::size_t n, bool sparse) {
  common::Rng rng(sparse ? 41 : 40);
  std::vector<std::uint64_t> ids(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += sparse ? 1 + rng() % 1000000 : 1 + rng() % 2;
    ids[i] = acc;
  }
  return ids;
}

void BM_VarintDecode(benchmark::State& state) {
  // Scalar LEB128 gap decode (the --codec=varint ablation baseline).
  // Bytes processed = decoded output (8 B/posting), so MB/s is directly
  // comparable with BM_BlockDecode on the same profile.
  const std::vector<std::uint64_t> ids = synthetic_postings(
      static_cast<std::size_t>(state.range(0)), state.range(1) != 0);
  const std::vector<std::uint8_t> encoded = search::compress_postings(ids);
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (auto _ : state) {
    search::decompress_postings_into(encoded, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_VarintDecode)
    ->Args({100000, 0})   // dense gaps
    ->Args({100000, 1});  // sparse gaps

void BM_BlockDecode(benchmark::State& state) {
  // SWAR frame-of-reference decode (the serving default).
  const std::vector<std::uint64_t> ids = synthetic_postings(
      static_cast<std::size_t>(state.range(0)), state.range(1) != 0);
  const search::BlockPostings blocks = search::BlockPostings::encode(ids);
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (auto _ : state) {
    blocks.decode_all(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_BlockDecode)
    ->Args({100000, 0})   // dense gaps
    ->Args({100000, 1});  // sparse gaps

/// The skewed 1:100 intersection cell shared by the three kernel benches
/// below, so their ns/posting numbers are directly comparable.
struct SkewedCell {
  std::vector<std::uint64_t> small;
  std::vector<std::uint64_t> large;

  static SkewedCell build(std::size_t na, std::size_t nb) {
    common::Rng rng(7);
    SkewedCell cell;
    cell.small.reserve(na);
    cell.large.reserve(nb);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      acc += 1 + rng() % 32;
      cell.large.push_back(acc);
      // ~na/nb of the large list also lands in the small list, so the
      // intersection is non-trivial in every kernel.
      if (rng() % (nb / na) == 0 && cell.small.size() < na)
        cell.small.push_back(acc);
    }
    while (cell.small.size() < na) {
      acc += 1 + rng() % 32;
      cell.small.push_back(acc);
    }
    return cell;
  }
};

void BM_IntersectMerge(benchmark::State& state) {
  // Classic two-pointer sorted merge — the baseline the block-max kernel
  // is measured against on the same 1:100 cell.
  const SkewedCell cell =
      SkewedCell::build(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  std::vector<std::uint64_t> out;
  out.reserve(cell.small.size());
  for (auto _ : state) {
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < cell.small.size() && j < cell.large.size()) {
      if (cell.small[i] < cell.large[j]) {
        ++i;
      } else if (cell.large[j] < cell.small[i]) {
        ++j;
      } else {
        out.push_back(cell.small[i]);
        ++i;
        ++j;
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          (state.range(0) + state.range(1)));
}
BENCHMARK(BM_IntersectMerge)->Args({1000, 100000});

void BM_IntersectGallop(benchmark::State& state) {
  // Span kernel (small drives, lower_bound gallop into the large list).
  const SkewedCell cell =
      SkewedCell::build(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  std::vector<std::uint64_t> out;
  out.reserve(cell.small.size());
  for (auto _ : state) {
    search::intersect_into(cell.small.data(), cell.small.size(),
                           cell.large.data(), cell.large.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          (state.range(0) + state.range(1)));
}
BENCHMARK(BM_IntersectGallop)->Args({1000, 100000});

void BM_IntersectBlockMax(benchmark::State& state) {
  // Block-max skipping over the compressed large list, warm decoded-block
  // cache: the serving-path configuration.
  const SkewedCell cell =
      SkewedCell::build(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  const search::BlockPostings blocks =
      search::BlockPostings::encode(cell.large);
  search::DecodedBlockCache cache;
  cache.begin_epoch(1);
  std::vector<std::uint64_t> out;
  out.reserve(cell.small.size());
  for (auto _ : state) {
    search::intersect_with_blocks(cell.small.data(), cell.small.size(),
                                  blocks, 0, &cache, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          (state.range(0) + state.range(1)));
}
BENCHMARK(BM_IntersectBlockMax)->Args({1000, 100000});

void BM_ResolveBatch(benchmark::State& state) {
  // Steady-state batched execution: one engine + scratch over a testbed
  // trace against a hashed placement — the replay inner loop without the
  // replay bookkeeping. Also the one-pass sizing regression gate: with
  // metrics on, each keyword must be sized exactly once per execution
  // (search.postings.sized == search.postings.fetched).
  trace::CorpusConfig corpus_cfg;
  corpus_cfg.num_documents = 3000;
  corpus_cfg.vocabulary_size = 2000;
  corpus_cfg.mean_distinct_words = 60.0;
  corpus_cfg.seed = 5;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(corpus_cfg));

  trace::WorkloadConfig query_cfg;
  query_cfg.vocabulary_size = 2000;
  query_cfg.num_topics = 100;
  query_cfg.seed = 5;
  const trace::QueryTrace trace =
      trace::WorkloadModel(query_cfg).generate(
          static_cast<std::size_t>(state.range(0)), 5);

  core::PlacementMapConfig map_cfg;
  map_cfg.num_nodes = 16;
  const core::PlacementMap map = core::PlacementMap::hashed(2000, map_cfg);
  const auto placement = [&map](trace::KeywordId k) {
    return map.resolve(k);
  };

  const search::QueryEngine engine(index);
  std::size_t max_width = 0;
  for (std::size_t q = 0; q < trace.size(); ++q)
    max_width = std::max(max_width, trace[q].size());
  search::QueryScratch scratch;
  scratch.reserve(max_width, engine.max_postings());
  scratch.begin_epoch(map.cache_token());

  const auto run_batch = [&] {
    std::uint64_t bytes = 0;
    for (std::size_t q = 0; q < trace.size(); ++q)
      bytes +=
          engine.execute_intersection(trace[q], placement, {}, &scratch)
              .bytes_transferred;
    return bytes;
  };

  // One-pass regression assert (runs once, outside the timed loop): the
  // metrics-on path must size each keyword exactly once per execution.
  {
    auto& reg = common::MetricsRegistry::global();
    common::Counter& sized = reg.counter("search.postings.sized");
    common::Counter& fetched = reg.counter("search.postings.fetched");
    reg.set_enabled(true);
    sized.reset();
    fetched.reset();
    run_batch();
    CCA_CHECK_MSG(sized.total() == fetched.total(),
                  "metrics-on path sized keywords "
                      << sized.total() << " times for " << fetched.total()
                      << " fetches — sizing must be one pass per query");
    reg.set_enabled(false);
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batch());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ResolveBatch)->Arg(2000);

void BM_PairCounting(benchmark::State& state) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = 5000;
  cfg.num_topics = 200;
  const trace::WorkloadModel model(cfg);
  const trace::QueryTrace trace =
      model.generate(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::PairCounter::count_all_pairs(trace));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PairCounting)->Arg(10000)->Arg(50000);

// The trace front end at perfbench's shape: a 400k-query month over a
// 20k-keyword vocabulary and 1000 topics, mean query length 2.54 or 6.
struct FrontEndInputs {
  trace::QueryTrace trace{0};
  std::vector<std::uint64_t> sizes;
};

const FrontEndInputs& front_end_inputs(double mean_query_length) {
  static std::map<double, FrontEndInputs> cache;
  FrontEndInputs& in = cache[mean_query_length];
  if (in.sizes.empty()) {
    trace::WorkloadConfig wcfg;
    wcfg.vocabulary_size = 20000;
    wcfg.num_topics = 1000;
    wcfg.topic_size = 8;
    wcfg.mean_query_length = mean_query_length;
    in.trace = trace::WorkloadModel(wcfg).generate(400000, 7919);
    in.sizes.resize(wcfg.vocabulary_size);
    for (std::size_t k = 0; k < in.sizes.size(); ++k)
      in.sizes[k] = 64 + k % 512;
  }
  return in;
}

void BM_MinePairWeights(benchmark::State& state) {
  const FrontEndInputs& in = front_end_inputs(2.54);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_pair_weights(
        in.trace, in.sizes, core::OperationModel::kSmallestPair, {}));
  }
}
BENCHMARK(BM_MinePairWeights)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ImportanceRanking(benchmark::State& state) {
  const FrontEndInputs& in = front_end_inputs(2.54);
  const auto pairs = core::mine_pair_weights(
      in.trace, in.sizes, core::OperationModel::kSmallestPair, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::importance_ranking(pairs, in.sizes));
  }
}
BENCHMARK(BM_ImportanceRanking)->UseRealTime()->Unit(benchmark::kMillisecond);

// The lazy whole-query view of a perfbench-shaped optimizer (16 nodes,
// scope 4000) at mean query length 6; the constructor is untimed.
void BM_HyperedgeInstance(benchmark::State& state) {
  const FrontEndInputs& in = front_end_inputs(6.0);
  core::PartialOptimizerConfig cfg;
  cfg.num_nodes = 16;
  cfg.scope = 4000;
  cfg.capacity_slack = 2.0;
  for (auto _ : state) {
    state.PauseTiming();
    const core::PartialOptimizer optimizer(in.trace, in.sizes, cfg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(&optimizer.hyperedge_instance());
  }
}
BENCHMARK(BM_HyperedgeInstance)->UseRealTime()->Unit(benchmark::kMillisecond);

// The sort behind every hyperedge aggregation, over the multi-keyword
// queries of the mean-length-6 month.
void BM_LexicographicOrder(benchmark::State& state) {
  const FrontEndInputs& in = front_end_inputs(6.0);
  std::vector<const std::vector<trace::KeywordId>*> shapes;
  for (const trace::Query& q : in.trace.queries())
    if (q.size() >= 2) shapes.push_back(&q.keywords);
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::lexicographic_order(
        shapes.size(),
        [&](std::size_t i) -> const std::vector<trace::KeywordId>& {
          return *shapes[i];
        },
        in.trace.vocabulary_size()));
  }
}
BENCHMARK(BM_LexicographicOrder)->UseRealTime()->Unit(benchmark::kMillisecond);

core::CcaInstance bench_instance(int num_components, int objects_per_comp,
                                 int nodes) {
  common::Rng rng(3);
  std::vector<double> sizes;
  std::vector<core::PairWeight> pairs;
  for (int c = 0; c < num_components; ++c) {
    const int base = c * objects_per_comp;
    for (int o = 0; o < objects_per_comp; ++o) {
      sizes.push_back(1.0 + rng.next_double() * 9.0);
      if (o > 0)
        pairs.push_back({base + o - 1, base + o, 0.1 + rng.next_double() * 0.4,
                         1.0 + rng.next_double() * 10.0});
    }
  }
  double total = 0.0;
  for (double s : sizes) total += s;
  return core::CcaInstance(
      sizes, std::vector<double>(static_cast<std::size_t>(nodes),
                                 2.0 * total / nodes),
      pairs);
}

void BM_ComponentLpSolve(benchmark::State& state) {
  const core::CcaInstance instance =
      bench_instance(static_cast<int>(state.range(0)), 4, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComponentLpSolver(1).solve(instance));
  }
}
BENCHMARK(BM_ComponentLpSolve)->Arg(25)->Arg(100)->Arg(400);

// One connected component of state.range(0) objects: a chain plus twice
// as many random chords, over 16 nodes at fill 1.0. Node capacity is twice
// the average load, so the peel cuts the component into ~8 pieces — the
// cost BM_ComponentLpSolve's 4-object components never reach.
void BM_BuildGroups(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(5);
  std::vector<double> sizes;
  std::vector<core::PairWeight> pairs;
  double total = 0.0;
  for (int o = 0; o < n; ++o) {
    sizes.push_back(1.0 + rng.next_double() * 9.0);
    total += sizes.back();
    if (o > 0)
      pairs.push_back({o - 1, o, 0.1 + rng.next_double() * 0.4,
                       1.0 + rng.next_double() * 10.0});
  }
  const auto pick = [&] {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  for (int c = 0; c < 2 * n; ++c) {
    const int i = pick();
    const int j = pick();
    if (i != j)
      pairs.push_back({i, j, 0.1 + rng.next_double() * 0.4,
                       1.0 + rng.next_double() * 10.0});
  }
  const core::CcaInstance instance(
      sizes, std::vector<double>(16, 2.0 * total / 16), pairs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_groups(instance, core::ComponentSolverOptions{1, 1.0}));
  }
}
BENCHMARK(BM_BuildGroups)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// The hypergraph strategy's partitioner alone, default options, on the
// whole-query instance of a mean-length-6 pipeline (16 nodes; the
// argument is the scope: 1000 scoped keywords, and 4000, the
// place-and-serve benchmark's scope, where refinement makes thousands of
// moves). Its restarted V-cycles run on the pool, so this row reads wall
// clock: compare it at CCA_THREADS=1 and 4.
void BM_HypergraphPlacement(benchmark::State& state) {
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
  cfg.scope = static_cast<std::size_t>(state.range(0));
  const core::PartialOptimizer optimizer(trace, sizes, cfg);
  const core::CcaInstance& instance = optimizer.hyperedge_instance();
  // Page mappings per placement: the minor faults and kernel time behind
  // them show in no stage timer, so they are reported beside the time.
  auto& reg = common::MetricsRegistry::global();
  common::Counter& maps = reg.counter("common.page_allocator.maps");
  common::Counter& mapped_bytes =
      reg.counter("common.page_allocator.mapped_bytes");
  maps.reset();
  mapped_bytes.reset();
  reg.set_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hypergraph_placement(instance));
  }
  reg.set_enabled(false);
  state.counters["maps"] = benchmark::Counter(
      static_cast<double>(maps.total()), benchmark::Counter::kAvgIterations);
  state.counters["mapped_bytes"] =
      benchmark::Counter(static_cast<double>(mapped_bytes.total()),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HypergraphPlacement)
    ->Arg(1000)
    ->Arg(4000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FullLpSolve(benchmark::State& state) {
  const core::CcaInstance instance =
      bench_instance(static_cast<int>(state.range(0)), 4, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_cca_lp(instance));
  }
}
BENCHMARK(BM_FullLpSolve)->Arg(4)->Arg(10);

void BM_RandomizedRounding(benchmark::State& state) {
  const core::CcaInstance instance =
      bench_instance(static_cast<int>(state.range(0)), 4, 10);
  const core::FractionalPlacement x = core::ComponentLpSolver(1).solve(instance);
  common::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::round_once(x, rng));
  }
}
BENCHMARK(BM_RandomizedRounding)->Arg(25)->Arg(100)->Arg(400);

void BM_DenseVsRevisedSimplex(benchmark::State& state) {
  // Random dense-ish LP solved by the engine selected via state.range(1).
  common::Rng rng(11);
  lp::Model model;
  const int n = static_cast<int>(state.range(0));
  std::vector<double> xstar(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    xstar[j] = rng.next_double() * 5.0;
    model.add_variable(0.0, 10.0, rng.next_double() * 4.0 - 2.0);
  }
  for (int i = 0; i < n; ++i) {
    std::vector<lp::Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.next_double() < 0.3) {
        const double coef = rng.next_double() * 6.0 - 3.0;
        terms.push_back({j, coef});
        lhs += coef * xstar[j];
      }
    }
    if (!terms.empty())
      model.add_constraint(lp::Relation::kLessEqual,
                           lhs + rng.next_double(), std::move(terms));
  }
  const bool revised = state.range(1) != 0;
  for (auto _ : state) {
    if (revised) {
      benchmark::DoNotOptimize(lp::RevisedSimplex().solve(model));
    } else {
      benchmark::DoNotOptimize(lp::DenseSimplex().solve(model));
    }
  }
}
BENCHMARK(BM_DenseVsRevisedSimplex)
    ->Args({40, 0})
    ->Args({40, 1})
    ->Args({120, 0})
    ->Args({120, 1});

/// Sparse LP with singleton rows and fixed variables for the dual-lane
/// micro-benchmark below. slack_scale shrinks the inequality slack of
/// the generator's feasible point: regenerating with the same seed and a
/// smaller scale yields a tightened sibling that is still feasible by
/// construction but makes the original optimal basis primal infeasible —
/// the post-perturbation shape the dual lane repairs.
lp::Model sparse_mixed_model(int rows, std::uint64_t seed,
                            double slack_scale = 1.0) {
  common::Rng rng(seed);
  lp::Model model;
  const int n = 2 * rows;
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double l = rng.next_double() < 0.1 ? 2.0 : 0.0;
    const double u = rng.next_double() < 0.1 ? l : 10.0;  // 10% fixed
    model.add_variable(l, u, rng.next_double() * 4.0 - 2.0);
    x0[static_cast<std::size_t>(j)] = l + (u - l) * rng.next_double();
  }
  // rhs values come from the known point x0, so the model is feasible by
  // construction even through the singleton equality rows.
  for (int i = 0; i < rows; ++i) {
    std::vector<lp::Term> terms;
    double activity = 0.0;
    const int width = 1 + static_cast<int>(rng.next_below(4));  // 25% singleton
    for (int k = 0; k < width; ++k) {
      const int j = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const double a = 0.2 + rng.next_double();
      terms.push_back({j, a});
      activity += a * x0[static_cast<std::size_t>(j)];
    }
    if (i % 4 == 0) {
      model.add_constraint(lp::Relation::kEqual, activity, std::move(terms));
    } else {
      model.add_constraint(lp::Relation::kLessEqual,
                           activity + slack_scale * rng.next_double(),
                           std::move(terms));
    }
  }
  return model;
}

void BM_DualWarmRestart(benchmark::State& state) {
  // One dual-lane warm restart: re-solve an rhs-perturbed sibling from
  // the optimal basis, timing the dual ratio-test/BTRAN/FTRAN repair
  // cycle (a handful of pivots) against a hint-free cold solve of the
  // same sibling (state.range(1) selects warm or cold).
  const int rows = static_cast<int>(state.range(0));
  const lp::Model base = sparse_mixed_model(rows, 27);
  // Same structure, inequality slack shrunk to 25%: feasible by
  // construction, but tight enough that the base optimum's basis prices
  // out primal infeasible and the warm restart has real repair work.
  const lp::Model moved = sparse_mixed_model(rows, 27, 0.25);
  const lp::Solver solver;
  const lp::SolveResult first = solver.solve(base);
  if (!first.optimal() || first.basis.empty()) {
    state.SkipWithError("base solve did not yield a warm-startable basis");
    return;
  }
  const lp::Basis* hint = state.range(1) != 0 ? &first.basis : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(moved, hint));
  }
}
BENCHMARK(BM_DualWarmRestart)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({400, 0})
    ->Args({400, 1});

}  // namespace

BENCHMARK_MAIN();
