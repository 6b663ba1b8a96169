// Inverted-index substrate and the distributed query-execution engine's
// communication accounting.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "trace/documents.hpp"

namespace cca::search {
namespace {

// ---------- PostingList / intersection ----------

TEST(PostingList, SortsAndDedupes) {
  const PostingList list({5, 1, 3, 5, 1});
  EXPECT_EQ(list.ids(), (std::vector<std::uint64_t>{1, 3, 5}));
  EXPECT_EQ(list.size_bytes(), 24u);  // 8 bytes per posting
  EXPECT_TRUE(list.contains(3));
  EXPECT_FALSE(list.contains(4));
}

TEST(Intersect, BasicOverlap) {
  const PostingList a({1, 2, 3, 4});
  const PostingList b({3, 4, 5});
  EXPECT_EQ(intersect(a, b).ids(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(intersect(b, a).ids(), (std::vector<std::uint64_t>{3, 4}));
}

TEST(Intersect, DisjointAndEmpty) {
  const PostingList a({1, 2});
  const PostingList b({3, 4});
  EXPECT_TRUE(intersect(a, b).empty());
  EXPECT_TRUE(intersect(a, PostingList{}).empty());
}

TEST(Intersect, GallopingPathMatchesMergePath) {
  // Force the galloping branch (large >> small) and compare to the
  // straightforward answer.
  std::vector<std::uint64_t> large;
  for (std::uint64_t i = 0; i < 1000; ++i) large.push_back(i * 3);
  const PostingList big(std::move(large));
  const PostingList small({6, 7, 300, 2997});
  EXPECT_EQ(intersect(small, big).ids(),
            (std::vector<std::uint64_t>{6, 300, 2997}));
}

TEST(Unite, MergesDistinct) {
  const PostingList a({1, 3});
  const PostingList b({2, 3});
  EXPECT_EQ(unite(a, b).ids(), (std::vector<std::uint64_t>{1, 2, 3}));
}

// ---------- InvertedIndex ----------

TEST(InvertedIndex, BuildsCorrectPostings) {
  trace::CorpusConfig cfg;
  cfg.num_documents = 200;
  cfg.vocabulary_size = 500;
  cfg.mean_distinct_words = 30.0;
  const trace::Corpus corpus = trace::Corpus::generate(cfg);
  const InvertedIndex index = InvertedIndex::build(corpus);

  ASSERT_EQ(index.vocabulary_size(), 500u);
  // Cross-check: every document appears in the posting list of each of its
  // words, and posting sizes equal document frequencies.
  const auto df = corpus.document_frequencies();
  for (std::size_t k = 0; k < 500; ++k)
    EXPECT_EQ(index.postings(static_cast<trace::KeywordId>(k)).size(), df[k]);
  for (const trace::Document& doc : corpus.documents())
    for (trace::KeywordId w : doc.words)
      EXPECT_TRUE(index.postings(w).contains(doc.id));
}

TEST(InvertedIndex, SizesSumToTotal) {
  trace::CorpusConfig cfg;
  cfg.num_documents = 100;
  cfg.vocabulary_size = 300;
  cfg.mean_distinct_words = 20.0;
  const InvertedIndex index =
      InvertedIndex::build(trace::Corpus::generate(cfg));
  std::uint64_t sum = 0;
  for (std::uint64_t s : index.index_sizes()) sum += s;
  EXPECT_EQ(sum, index.total_bytes());
  EXPECT_THROW(index.postings(300), common::Error);
}

TEST(InvertedIndex, SortFreeBuildMatchesPushSortUnique) {
  // External documents with duplicate ids (whose words merge), unsorted
  // and repeated words, and ids in no particular order.
  common::Rng rng(41);
  std::vector<trace::Document> docs;
  for (int d = 0; d < 300; ++d) {
    trace::Document doc;
    doc.id = rng.next_below(120);  // ~2.5 documents per id
    for (int w = 0; w < 12; ++w)
      doc.words.push_back(static_cast<trace::KeywordId>(rng.next_below(60)));
    docs.push_back(doc);
  }
  const trace::Corpus corpus(60, docs);
  // The reference: push every (word, id), then sort and dedupe each list.
  std::vector<std::vector<std::uint64_t>> raw(60);
  for (const trace::Document& doc : corpus.documents())
    for (const trace::KeywordId w : doc.words) raw[w].push_back(doc.id);

  const InvertedIndex index = InvertedIndex::build(corpus);
  ASSERT_EQ(index.vocabulary_size(), 60u);
  std::size_t merged = 0;
  for (trace::KeywordId k = 0; k < 60; ++k) {
    const PostingList reference(raw[k]);
    EXPECT_EQ(index.postings(k).ids(), reference.ids()) << "keyword " << k;
    merged += raw[k].size() - reference.size();
  }
  EXPECT_GT(merged, 0u);  // duplicate ids genuinely collapsed
}

// ---------- QueryEngine ----------

/// Hand-built corpus with exactly known posting lists:
///   kw0 -> docs {1,2,3,4,5,6}   48 bytes
///   kw1 -> docs {2,3}           16 bytes
///   kw2 -> docs {3,4,9}         24 bytes
///   kw3 -> docs {9}              8 bytes
InvertedIndex hand_index() {
  std::vector<trace::Document> docs = {
      {1, {0}},       {2, {0, 1}}, {3, {0, 1, 2}}, {4, {0, 2}},
      {5, {0}},       {6, {0}},    {9, {2, 3}},
  };
  return InvertedIndex::build(trace::Corpus(4, std::move(docs)));
}

TEST(QueryEngine, SingleKeywordIsFreeAndLocal) {
  const InvertedIndex index = hand_index();
  const QueryEngine engine(index);
  const QueryCost cost = engine.execute_intersection(
      trace::Query{{2}}, [](trace::KeywordId) { return core::ReplicaSet::single(0); });
  EXPECT_EQ(cost.bytes_transferred, 0u);
  EXPECT_TRUE(cost.local);
  EXPECT_EQ(cost.result_size, 3u);
}

TEST(QueryEngine, CoLocatedQueryIsFree) {
  const InvertedIndex index = hand_index();
  const QueryEngine engine(index);
  const QueryCost cost = engine.execute_intersection(
      trace::Query{{0, 1, 2}}, [](trace::KeywordId) { return core::ReplicaSet::single(3); });
  EXPECT_EQ(cost.bytes_transferred, 0u);
  EXPECT_EQ(cost.messages, 0u);
  EXPECT_TRUE(cost.local);
  EXPECT_EQ(cost.result_size, 1u);  // only doc 3 holds kw0, kw1, kw2
}

TEST(QueryEngine, SeparatedPairShipsSmallerList) {
  const InvertedIndex index = hand_index();
  const QueryEngine engine(index);
  // kw1 (16 B) apart from kw0 (48 B): the smaller list travels.
  const QueryCost cost = engine.execute_intersection(
      trace::Query{{0, 1}},
      [](trace::KeywordId k) {
        return core::ReplicaSet::single(k == 1 ? 0 : 1);
      });
  EXPECT_EQ(cost.bytes_transferred, 16u);
  EXPECT_EQ(cost.messages, 1u);
  EXPECT_FALSE(cost.local);
  EXPECT_EQ(cost.result_size, 2u);  // docs {2, 3}
}

TEST(QueryEngine, ThreeKeywordResidualShipsRunningIntersection) {
  const InvertedIndex index = hand_index();
  const QueryEngine engine(index);
  // {0,1,2} on three distinct nodes. Size order: kw1 (16) < kw2 (24) <
  // kw0 (48). Step 1 ships kw1's 16 B to kw2's node; the running
  // intersection {2,3} n {3,4,9} = {3} (8 B) then travels to kw0's node.
  const QueryCost cost = engine.execute_intersection(
      trace::Query{{0, 1, 2}},
      [](trace::KeywordId k) {
        return core::ReplicaSet::single(static_cast<int>(k));
      });
  EXPECT_EQ(cost.bytes_transferred, 16u + 8u);
  EXPECT_EQ(cost.messages, 2u);
  EXPECT_EQ(cost.result_size, 1u);
}

TEST(QueryEngine, IntersectionResultIndependentOfPlacement) {
  const InvertedIndex index = hand_index();
  const QueryEngine engine(index);
  const trace::Query q{{0, 1, 2}};
  const QueryCost together = engine.execute_intersection(
      q, [](trace::KeywordId) { return core::ReplicaSet::single(0); });
  const QueryCost apart = engine.execute_intersection(
      q, [](trace::KeywordId k) {
        return core::ReplicaSet::single(static_cast<int>(k));
      });
  EXPECT_EQ(together.result_size, apart.result_size);
}

TEST(QueryEngine, UnionShipsEverythingToLargestNode) {
  const InvertedIndex index = hand_index();
  const QueryEngine engine(index);
  // kw0 (48 B) is the largest; everything else moves to its node 7:
  // 16 + 24 + 8 = 48 bytes. Union result covers docs {1..6, 9}.
  const QueryCost cost = engine.execute_union(
      trace::Query{{0, 1, 2, 3}},
      [](trace::KeywordId k) {
        return core::ReplicaSet::single(k == 0 ? 7 : 1);
      });
  EXPECT_EQ(cost.bytes_transferred, 48u);
  EXPECT_EQ(cost.messages, 3u);
  EXPECT_EQ(cost.result_size, 7u);
}

TEST(QueryEngine, UnionIsFreeWhenCoLocated) {
  const InvertedIndex index = hand_index();
  const QueryEngine engine(index);
  const QueryCost cost = engine.execute_union(
      trace::Query{{1, 2, 3}}, [](trace::KeywordId) { return core::ReplicaSet::single(2); });
  EXPECT_EQ(cost.bytes_transferred, 0u);
  EXPECT_TRUE(cost.local);
  EXPECT_EQ(cost.result_size, 4u);  // docs {2, 3, 4, 9}
}

TEST(QueryEngine, TransferObserverSeesAllBytes) {
  const InvertedIndex index = hand_index();
  const QueryEngine engine(index);
  std::uint64_t observed = 0;
  const QueryCost cost = engine.execute_intersection(
      trace::Query{{0, 1, 2}},
      [](trace::KeywordId k) {
        return core::ReplicaSet::single(static_cast<int>(k));
      },
      [&](int from, int to, std::uint64_t bytes) {
        EXPECT_NE(from, to);
        observed += bytes;
      });
  EXPECT_EQ(observed, cost.bytes_transferred);
}

}  // namespace
}  // namespace cca::search
