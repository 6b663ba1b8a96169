// Trace model, topic-model workload generator (the paper's premise checks:
// skewness + stability), document corpus, and pair statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "trace/documents.hpp"
#include "trace/pair_stats.hpp"
#include "trace/trace.hpp"
#include "trace/workload.hpp"

namespace cca::trace {
namespace {

// ---------- QueryTrace ----------

TEST(QueryTrace, DedupesAndSortsKeywords) {
  QueryTrace t(100);
  t.add_query({5, 3, 5, 3, 7});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].keywords, (std::vector<KeywordId>{3, 5, 7}));
}

TEST(QueryTrace, RejectsEmptyAndOutOfVocabulary) {
  QueryTrace t(10);
  EXPECT_THROW(t.add_query({}), common::Error);
  EXPECT_THROW(t.add_query({10}), common::Error);
}

TEST(QueryTrace, ComputesLengthStatistics) {
  QueryTrace t(10);
  t.add_query({1});
  t.add_query({1, 2});
  t.add_query({1, 2, 3});
  EXPECT_NEAR(t.mean_query_length(), 2.0, 1e-12);
  EXPECT_EQ(t.multi_keyword_queries(), 2u);
  const auto freq = t.keyword_frequencies();
  EXPECT_EQ(freq[1], 3u);
  EXPECT_EQ(freq[2], 2u);
  EXPECT_EQ(freq[3], 1u);
  EXPECT_EQ(freq[0], 0u);
}

// ---------- WorkloadModel ----------

WorkloadConfig small_config() {
  WorkloadConfig cfg;
  cfg.vocabulary_size = 2000;
  cfg.num_topics = 80;
  cfg.topic_size = 8;
  cfg.seed = 42;
  return cfg;
}

TEST(Workload, MeanQueryLengthNearTarget) {
  const WorkloadModel model(small_config());
  const QueryTrace t = model.generate(20000, 1);
  // Dedup within queries shaves a little off the configured mean of 2.54.
  EXPECT_GT(t.mean_query_length(), 1.9);
  EXPECT_LT(t.mean_query_length(), 2.8);
}

TEST(Workload, GenerationIsDeterministicPerSeed) {
  const WorkloadModel model(small_config());
  const QueryTrace a = model.generate(500, 9);
  const QueryTrace b = model.generate(500, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].keywords, b[i].keywords);
}

TEST(Workload, DifferentSamplingSeedsDiffer) {
  const WorkloadModel model(small_config());
  const QueryTrace a = model.generate(500, 1);
  const QueryTrace b = model.generate(500, 2);
  std::size_t identical = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].keywords == b[i].keywords) ++identical;
  EXPECT_LT(identical, a.size() / 2);
}

TEST(Workload, PairCorrelationsAreSkewed) {
  // The paper's Fig. 2(A) premise: top pair much more correlated than the
  // k-th pair. Our generator must reproduce that skew.
  const WorkloadModel model(small_config());
  const QueryTrace t = model.generate(50000, 3);
  const auto top = PairCounter::count_all_pairs(t).top_pairs(200);
  ASSERT_GE(top.size(), 200u);
  EXPECT_GT(top.front().probability / top.back().probability, 5.0);
}

TEST(Workload, TwoSamplesFromSameModelAreStable) {
  // Fig. 2(B) premise: month-to-month correlation stability. Two
  // independent samples of the same model must mostly agree on top pairs.
  const WorkloadModel model(small_config());
  const QueryTrace jan = model.generate(60000, 100);
  const QueryTrace feb = model.generate(60000, 200);
  const auto jan_counts = PairCounter::count_all_pairs(jan);
  const auto feb_counts = PairCounter::count_all_pairs(feb);
  const StabilityReport report =
      compare_stability(jan_counts, feb_counts, 100);
  EXPECT_EQ(report.pairs_compared, 100u);
  EXPECT_LT(report.changed_fraction, 0.15);  // paper observed 1.2%
}

TEST(Workload, DriftedModelChangesCorrelations) {
  const WorkloadModel model(small_config());
  const WorkloadModel heavy_drift = model.drifted(0.9, 5);
  const QueryTrace before = model.generate(40000, 1);
  const QueryTrace after = heavy_drift.generate(40000, 1);
  const StabilityReport report = compare_stability(
      PairCounter::count_all_pairs(before),
      PairCounter::count_all_pairs(after), 100);
  EXPECT_GT(report.changed_fraction, 0.3);
}

TEST(Workload, DriftZeroIsIdentity) {
  const WorkloadModel model(small_config());
  const WorkloadModel same = model.drifted(0.0, 5);
  EXPECT_EQ(model.topics(), same.topics());
}

TEST(Workload, DisjointTopicsDoNotOverlap) {
  WorkloadConfig cfg = small_config();
  cfg.disjoint_topics = true;
  cfg.num_topics = 100;
  cfg.topic_size = 8;  // 800 <= vocab 2000
  const WorkloadModel model(cfg);
  std::set<KeywordId> seen;
  for (const auto& topic : model.topics()) {
    EXPECT_EQ(topic.size(), 8u);
    for (KeywordId k : topic) {
      EXPECT_TRUE(seen.insert(k).second) << "keyword " << k << " reused";
    }
  }
}

TEST(Workload, DisjointTopicsStrideAcrossPopularityBands) {
  WorkloadConfig cfg = small_config();
  cfg.disjoint_topics = true;
  cfg.num_topics = 100;
  cfg.topic_size = 8;
  const WorkloadModel model(cfg);
  // Topic t holds {t, t+100, t+200, ...}: one keyword per popularity band.
  EXPECT_EQ(model.topics()[0],
            (std::vector<KeywordId>{0, 100, 200, 300, 400, 500, 600, 700}));
}

TEST(Workload, DisjointTopicsRejectVocabularyOverflow) {
  WorkloadConfig cfg = small_config();
  cfg.disjoint_topics = true;
  cfg.num_topics = 300;
  cfg.topic_size = 8;  // 2400 > vocab 2000
  EXPECT_THROW(WorkloadModel{cfg}, common::Error);
}

TEST(Workload, RejectsBadConfig) {
  WorkloadConfig cfg = small_config();
  cfg.topic_size = 1;
  EXPECT_THROW(WorkloadModel{cfg}, common::Error);
  cfg = small_config();
  cfg.topic_coherence = 1.5;
  EXPECT_THROW(WorkloadModel{cfg}, common::Error);
  cfg = small_config();
  cfg.mean_query_length = 0.5;
  EXPECT_THROW(WorkloadModel{cfg}, common::Error);
}

// ---------- Corpus ----------

CorpusConfig small_corpus() {
  CorpusConfig cfg;
  cfg.num_documents = 500;
  cfg.vocabulary_size = 2000;
  cfg.mean_distinct_words = 50.0;
  cfg.seed = 11;
  return cfg;
}

TEST(Corpus, DocumentsHaveDistinctSortedWordsNearTargetCount) {
  const Corpus corpus = Corpus::generate(small_corpus());
  ASSERT_EQ(corpus.size(), 500u);
  common::RunningStats words;
  for (const Document& doc : corpus.documents()) {
    EXPECT_TRUE(std::is_sorted(doc.words.begin(), doc.words.end()));
    EXPECT_TRUE(std::adjacent_find(doc.words.begin(), doc.words.end()) ==
                doc.words.end());
    words.add(static_cast<double>(doc.words.size()));
  }
  EXPECT_NEAR(words.mean(), 50.0, 5.0);
}

TEST(Corpus, DocumentIdsAreUnique) {
  const Corpus corpus = Corpus::generate(small_corpus());
  std::vector<std::uint64_t> ids;
  for (const Document& doc : corpus.documents()) ids.push_back(doc.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(Corpus, DocumentFrequenciesAreHeavyTailed) {
  const Corpus corpus = Corpus::generate(small_corpus());
  const auto df = corpus.document_frequencies();
  std::vector<double> values(df.begin(), df.end());
  // Zipf word draws make a few keywords appear in most documents while the
  // tail is rare: high Gini coefficient.
  EXPECT_GT(common::gini(values), 0.5);
  // Frequencies are consistent: sum over keywords == sum of doc lengths.
  std::size_t total_from_df = 0;
  for (std::size_t f : df) total_from_df += f;
  std::size_t total_from_docs = 0;
  for (const Document& doc : corpus.documents())
    total_from_docs += doc.words.size();
  EXPECT_EQ(total_from_df, total_from_docs);
}

TEST(Corpus, GenerationIsDeterministic) {
  const Corpus a = Corpus::generate(small_corpus());
  const Corpus b = Corpus::generate(small_corpus());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].words, b[i].words);
  }
}

// ---------- PairCounter ----------

TEST(PairStats, PackUnpackRoundTrip) {
  const std::uint64_t packed = pack_pair(123456, 42);
  const KeywordPair pair = unpack_pair(packed);
  EXPECT_EQ(pair.first, 42u);
  EXPECT_EQ(pair.second, 123456u);
  EXPECT_THROW(pack_pair(7, 7), common::Error);
}

TEST(PairStats, AllPairsCountsEveryCombination) {
  QueryTrace t(10);
  t.add_query({1, 2, 3});  // pairs (1,2) (1,3) (2,3)
  t.add_query({1, 2});     // pair (1,2)
  t.add_query({5});        // no pairs
  const PairCounter counter = PairCounter::count_all_pairs(t);
  EXPECT_EQ(counter.count(1, 2), 2u);
  EXPECT_EQ(counter.count(2, 1), 2u);  // order-insensitive
  EXPECT_EQ(counter.count(1, 3), 1u);
  EXPECT_EQ(counter.count(2, 3), 1u);
  EXPECT_EQ(counter.count(1, 5), 0u);
  EXPECT_EQ(counter.distinct_pairs(), 3u);
}

TEST(PairStats, SmallestPairUsesObjectSizes) {
  QueryTrace t(10);
  t.add_query({1, 2, 3});
  // Sizes: keyword 2 and 3 are the two smallest.
  std::vector<std::uint64_t> sizes(10, 1000);
  sizes[2] = 10;
  sizes[3] = 20;
  const PairCounter counter = PairCounter::count_smallest_pair(t, sizes);
  EXPECT_EQ(counter.count(2, 3), 1u);
  EXPECT_EQ(counter.count(1, 2), 0u);
  EXPECT_EQ(counter.distinct_pairs(), 1u);
}

TEST(PairStats, SmallestPairTieBreaksById) {
  QueryTrace t(10);
  t.add_query({4, 2, 9});
  const std::vector<std::uint64_t> sizes(10, 5);  // all tied
  const PairCounter counter = PairCounter::count_smallest_pair(t, sizes);
  EXPECT_EQ(counter.count(2, 4), 1u);  // two lowest IDs win
}

TEST(PairStats, ProbabilitiesNormalizeByTraceSize) {
  QueryTrace t(10);
  t.add_query({1, 2});
  t.add_query({1, 2});
  t.add_query({3, 4});
  t.add_query({5});
  const auto pairs = PairCounter::count_all_pairs(t).sorted_pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].pair, (KeywordPair{1, 2}));
  EXPECT_NEAR(pairs[0].probability, 0.5, 1e-12);
  EXPECT_NEAR(pairs[1].probability, 0.25, 1e-12);
}

TEST(PairStats, TopPairsTruncates) {
  QueryTrace t(10);
  t.add_query({1, 2});
  t.add_query({1, 2});
  t.add_query({3, 4});
  const auto top = PairCounter::count_all_pairs(t).top_pairs(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].pair, (KeywordPair{1, 2}));
}

TEST(PairStats, BatchedCountMatchesWholeTrace) {
  // Enough pairs that the batched counter folds several times mid-stream,
  // merging new runs into counts it already holds.
  WorkloadConfig cfg;
  cfg.vocabulary_size = 3000;
  cfg.num_topics = 100;
  cfg.mean_query_length = 6.0;
  const WorkloadModel model(cfg);
  std::vector<QueryTrace> batches;
  QueryTrace whole(cfg.vocabulary_size);
  for (std::uint64_t b = 0; b < 8; ++b) {
    batches.push_back(model.generate(12000, b + 1));
    for (const Query& q : batches.back().queries()) whole.add_query(q.keywords);
  }
  std::size_t next = 0;
  const PairCounter batched = PairCounter::count_all_pairs_batched(
      [&](QueryTrace& batch) {
        if (next == batches.size()) return false;
        batch = batches[next++];
        return true;
      });
  const PairCounter reference = PairCounter::count_all_pairs(whole);
  EXPECT_EQ(batched.num_queries(), whole.size());
  ASSERT_EQ(batched.distinct_pairs(), reference.distinct_pairs());
  // The merges are sized exactly: 16 B per distinct pair, nothing spare.
  EXPECT_EQ(batched.memory_bytes(),
            batched.distinct_pairs() * 2 * sizeof(std::uint64_t));
  const auto expected = reference.sorted_pairs();
  const auto actual = batched.sorted_pairs();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].pair, expected[i].pair);
    EXPECT_EQ(actual[i].count, expected[i].count);
  }
  EXPECT_EQ(batched.count(expected[0].pair.first, expected[0].pair.second),
            expected[0].count);
}

TEST(PairStats, StabilityReportCountsDoublingsAndHalvings) {
  QueryTrace ref(10), other(10);
  for (int i = 0; i < 4; ++i) ref.add_query({1, 2});    // p = 1.0
  for (int i = 0; i < 4; ++i) other.add_query({3, 4});  // (1,2) vanished
  const StabilityReport report = compare_stability(
      PairCounter::count_all_pairs(ref),
      PairCounter::count_all_pairs(other), 10);
  EXPECT_EQ(report.pairs_compared, 1u);
  EXPECT_EQ(report.pairs_changed, 1u);
  EXPECT_NEAR(report.changed_fraction, 1.0, 1e-12);
}

}  // namespace
}  // namespace cca::trace
