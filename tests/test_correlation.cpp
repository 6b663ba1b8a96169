// Correlation estimation (Sec. 3.2 operation models), importance ranking
// (Sec. 4.2), and the Fig. 5 dominance curve.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/correlation.hpp"
#include "trace/workload.hpp"

namespace cca::core {
namespace {

trace::QueryTrace tiny_trace() {
  trace::QueryTrace t(6);
  t.add_query({0, 1});
  t.add_query({0, 1});
  t.add_query({0, 1, 2});
  t.add_query({3, 4});
  t.add_query({5});
  return t;
}

TEST(PairWeights, AllPairsModelUsesEveryPair) {
  // Sizes: kw0=100, kw1=50, kw2=10, others 20.
  std::vector<std::uint64_t> sizes{100, 50, 10, 20, 20, 20};
  const auto pairs = build_pair_weights(tiny_trace(), sizes,
                                        OperationModel::kAllPairs);
  // Distinct pairs: (0,1) x3, (0,2), (1,2), (3,4).
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 1u);
  EXPECT_NEAR(pairs[0].r, 3.0 / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(pairs[0].w, 50.0);  // min(100, 50)
}

TEST(PairWeights, SmallestPairModelPicksTwoSmallestIndices) {
  std::vector<std::uint64_t> sizes{100, 50, 10, 20, 20, 20};
  const auto pairs = build_pair_weights(tiny_trace(), sizes,
                                        OperationModel::kSmallestPair);
  // Query {0,1,2}: two smallest are kw2 (10) and kw1 (50) -> pair (1,2).
  // So pairs: (0,1) x2, (1,2) x1, (3,4) x1.
  ASSERT_EQ(pairs.size(), 3u);
  bool found_12 = false;
  for (const auto& p : pairs) {
    if (p.a == 1 && p.b == 2) {
      found_12 = true;
      EXPECT_NEAR(p.r, 1.0 / 5.0, 1e-12);
      EXPECT_DOUBLE_EQ(p.w, 10.0);
    }
    EXPECT_FALSE(p.a == 0 && p.b == 2);  // never the two smallest together
  }
  EXPECT_TRUE(found_12);
}

TEST(Hyperedges, AggregatesQueryShapesInPinSetOrder) {
  // The singleton query drops out, repeated shapes merge into one edge
  // weighted by their rate, and edges come out sorted by pin set with a
  // proper prefix first.
  const auto edges = build_hyperedges(tiny_trace());
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].pins, (std::vector<trace::KeywordId>{0, 1}));
  EXPECT_DOUBLE_EQ(edges[0].weight, 2.0 / 5.0);
  EXPECT_EQ(edges[1].pins, (std::vector<trace::KeywordId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(edges[1].weight, 1.0 / 5.0);
  EXPECT_EQ(edges[2].pins, (std::vector<trace::KeywordId>{3, 4}));
  EXPECT_DOUBLE_EQ(edges[2].weight, 1.0 / 5.0);
  EXPECT_TRUE(build_hyperedges(trace::QueryTrace(6)).empty());
}

TEST(ImportanceRanking, OrdersByPairCostFirstAppearance) {
  // Pairs with hand-picked costs: (4,5) cost 10, (0,1) cost 4, (1,2) cost 1.
  std::vector<KeywordPairWeight> pairs{
      {0, 1, 0.4, 10.0},   // cost 4
      {1, 2, 0.5, 2.0},    // cost 1
      {4, 5, 1.0, 10.0},   // cost 10
  };
  std::vector<std::uint64_t> sizes{5, 5, 5, 7, 5, 5};
  const auto ranking = importance_ranking(pairs, sizes);
  ASSERT_EQ(ranking.size(), 6u);
  // Pair order: (4,5), (0,1), (1,2) -> keywords 4,5,0,1,2; never-seen 3 last.
  EXPECT_EQ(ranking[0], 4u);
  EXPECT_EQ(ranking[1], 5u);
  EXPECT_EQ(ranking[2], 0u);
  EXPECT_EQ(ranking[3], 1u);
  EXPECT_EQ(ranking[4], 2u);
  EXPECT_EQ(ranking[5], 3u);
}

TEST(ImportanceRanking, NeverCommunicatingKeywordsOrderedBySize) {
  std::vector<KeywordPairWeight> pairs{{0, 1, 0.5, 1.0}};
  std::vector<std::uint64_t> sizes{1, 1, 5, 9, 2};
  const auto ranking = importance_ranking(pairs, sizes);
  // Tail: keywords 2,3,4 by descending size: 3 (9), 2 (5), 4 (2).
  EXPECT_EQ(ranking[2], 3u);
  EXPECT_EQ(ranking[3], 2u);
  EXPECT_EQ(ranking[4], 4u);
}

TEST(ImportanceRanking, CoversWholeVocabularyExactlyOnce) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = 500;
  cfg.num_topics = 30;
  cfg.topic_size = 6;
  const trace::WorkloadModel model(cfg);
  const trace::QueryTrace t = model.generate(5000, 1);
  std::vector<std::uint64_t> sizes(500, 8);
  const auto pairs =
      build_pair_weights(t, sizes, OperationModel::kSmallestPair);
  const auto ranking = importance_ranking(pairs, sizes);
  ASSERT_EQ(ranking.size(), 500u);
  std::vector<bool> seen(500, false);
  for (trace::KeywordId k : ranking) {
    EXPECT_FALSE(seen[k]);
    seen[k] = true;
  }
}

TEST(DominanceCurve, IsMonotoneAndEndsAtOne) {
  std::vector<KeywordPairWeight> pairs{
      {0, 1, 0.4, 10.0}, {1, 2, 0.5, 2.0}, {4, 5, 1.0, 10.0}};
  std::vector<std::uint64_t> sizes{5, 5, 5, 7, 5, 5};
  const auto ranking = importance_ranking(pairs, sizes);
  const auto curve = dominance_curve(ranking, pairs, sizes, 6);
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].cumulative_cost_fraction,
              curve[i - 1].cumulative_cost_fraction);
    EXPECT_GE(curve[i].cumulative_size_fraction,
              curve[i - 1].cumulative_size_fraction);
  }
  EXPECT_NEAR(curve.back().cumulative_cost_fraction, 1.0, 1e-12);
  EXPECT_NEAR(curve.back().cumulative_size_fraction, 1.0, 1e-12);
}

TEST(DominanceCurve, PairCostCountedOnlyWhenBothEndpointsCovered) {
  // Ranking 4,5,0,1,2,3. After rank 2 only pair (4,5) is covered:
  // fraction 10/15.
  std::vector<KeywordPairWeight> pairs{
      {0, 1, 0.4, 10.0}, {1, 2, 0.5, 2.0}, {4, 5, 1.0, 10.0}};
  std::vector<std::uint64_t> sizes{5, 5, 5, 7, 5, 5};
  const auto ranking = importance_ranking(pairs, sizes);
  const auto curve = dominance_curve(ranking, pairs, sizes, 6);
  ASSERT_GE(curve.size(), 2u);
  EXPECT_EQ(curve[1].rank, 2u);
  EXPECT_NEAR(curve[1].cumulative_cost_fraction, 10.0 / 15.0, 1e-12);
}

TEST(DominanceCurve, TopKeywordsDominateOnSkewedWorkload) {
  // The Fig. 5 premise on a realistic synthetic workload: the top 10% of
  // keywords should cover the large majority of communication cost.
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = 2000;
  cfg.num_topics = 100;
  cfg.topic_size = 8;
  const trace::WorkloadModel model(cfg);
  const trace::QueryTrace t = model.generate(30000, 7);
  std::vector<std::uint64_t> sizes(2000);
  for (std::size_t k = 0; k < sizes.size(); ++k)
    sizes[k] = 8 * (1 + 2000 / (k + 1));  // Zipf-ish index sizes
  const auto pairs =
      build_pair_weights(t, sizes, OperationModel::kSmallestPair);
  const auto ranking = importance_ranking(pairs, sizes);
  const auto curve = dominance_curve(ranking, pairs, sizes, 10);
  // First sample = top 200 keywords (10%).
  EXPECT_GT(curve.front().cumulative_cost_fraction, 0.6);
}

// ---------- goldens: mining and ranking, bit for bit ----------

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (v >> (8 * b)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// A 50k-query trace over 5000 keywords whose index sizes repeat every 97
/// keywords, so equal pair costs (and equal tail sizes) are common and the
/// tie-breaks decide the order.
struct GoldenInputs {
  trace::QueryTrace trace{0};
  std::vector<std::uint64_t> sizes;
};

GoldenInputs golden_inputs(double mean_query_length) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = 5000;
  cfg.num_topics = 200;
  cfg.topic_size = 8;
  cfg.mean_query_length = mean_query_length;
  cfg.seed = 5;
  GoldenInputs in;
  in.trace = trace::WorkloadModel(cfg).generate(50000, 17);
  in.sizes.resize(cfg.vocabulary_size);
  for (std::size_t k = 0; k < in.sizes.size(); ++k)
    in.sizes[k] = 8 * (1 + k % 97);
  return in;
}

std::uint64_t pairs_hash(const std::vector<KeywordPairWeight>& pairs) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const KeywordPairWeight& p : pairs) {
    hash = fnv1a_mix(hash, p.a);
    hash = fnv1a_mix(hash, p.b);
    hash = fnv1a_mix(hash, std::bit_cast<std::uint64_t>(p.r));
    hash = fnv1a_mix(hash, std::bit_cast<std::uint64_t>(p.w));
  }
  return hash;
}

TEST(PairWeights, GoldenMinedPairsHash) {
  // Pins the exact miner's output (order, r and w bit patterns) for both
  // operation models. Speed work on counting or ordering must leave it
  // unchanged; a deliberate behaviour change updates these constants and
  // says why.
  const struct {
    double qlen;
    OperationModel model;
    std::size_t pairs;
    std::uint64_t hash;
  } golden[] = {
      {2.54, OperationModel::kSmallestPair, 10393, 0xd590c8b5c1566516ULL},
      {2.54, OperationModel::kAllPairs, 33251, 0x8c52de7dcc02af2aULL},
      {6.0, OperationModel::kSmallestPair, 12679, 0x0809d45bd9a06543ULL},
      {6.0, OperationModel::kAllPairs, 90206, 0x0bdfbba718cadd53ULL},
  };
  for (const auto& g : golden) {
    SCOPED_TRACE(testing::Message() << "qlen " << g.qlen << " model "
                                    << static_cast<int>(g.model));
    const GoldenInputs in = golden_inputs(g.qlen);
    const auto pairs =
        mine_pair_weights(in.trace, in.sizes, g.model, MinerOptions{});
    EXPECT_EQ(pairs.size(), g.pairs);
    EXPECT_EQ(pairs_hash(pairs), g.hash);
  }
}

TEST(ImportanceRanking, GoldenRankingHash) {
  const struct {
    double qlen;
    OperationModel model;
    std::uint64_t hash;
  } golden[] = {
      {2.54, OperationModel::kSmallestPair, 0x01d1074a989c9151ULL},
      {2.54, OperationModel::kAllPairs, 0x56e8bf301b517365ULL},
      {6.0, OperationModel::kSmallestPair, 0x2b4d0c83ee162cbdULL},
      {6.0, OperationModel::kAllPairs, 0xd89338d24beb7879ULL},
  };
  for (const auto& g : golden) {
    SCOPED_TRACE(testing::Message() << "qlen " << g.qlen << " model "
                                    << static_cast<int>(g.model));
    const GoldenInputs in = golden_inputs(g.qlen);
    const auto ranking = importance_ranking(
        mine_pair_weights(in.trace, in.sizes, g.model, MinerOptions{}),
        in.sizes);
    ASSERT_EQ(ranking.size(), in.sizes.size());
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const trace::KeywordId k : ranking) hash = fnv1a_mix(hash, k);
    EXPECT_EQ(hash, g.hash);
  }
}

}  // namespace
}  // namespace cca::core
