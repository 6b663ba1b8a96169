// Replay determinism under the block data plane: every ReplayStats field
// must be bit-identical across --threads={1,2,8} AND across
// --codec={block,varint}. Thread count moves the shard boundaries, which
// moves which shard's decoded-block cache serves each query warm or cold
// — so this is exactly the warm/cold byte-identity contract, scrutinised
// under TSan via the sanitize label.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "search/block_postings.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca {
namespace {

/// Restores the default pool size and codec when a test returns.
struct ThreadsAndCodecGuard {
  search::PostingCodec saved = search::default_posting_codec();
  ~ThreadsAndCodecGuard() {
    common::set_global_threads(0);
    search::set_default_posting_codec(saved);
  }
};

TEST(BlockParallel, CompressedIndexEncodeIsThreadCountInvariant) {
  ThreadsAndCodecGuard guard;
  trace::CorpusConfig ccfg;
  ccfg.num_documents = 3000;
  ccfg.vocabulary_size = 2000;
  ccfg.mean_distinct_words = 40.0;
  ccfg.seed = 23;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(ccfg));
  for (search::PostingCodec codec :
       {search::PostingCodec::kBlock, search::PostingCodec::kVarint}) {
    common::set_global_threads(1);
    const search::CompressedIndex one(index, codec);
    common::set_global_threads(4);
    const search::CompressedIndex four(index, codec);
    EXPECT_EQ(four.max_postings(), one.max_postings());
    EXPECT_EQ(four.encoded_bytes(), one.encoded_bytes());
    for (trace::KeywordId k = 0; k < index.vocabulary_size(); ++k) {
      if (codec == search::PostingCodec::kBlock)
        ASSERT_TRUE(four.blocks(k) == one.blocks(k)) << "keyword " << k;
      else
        ASSERT_EQ(four.varint(k), one.varint(k)) << "keyword " << k;
    }
  }
}

TEST(BlockParallel, ReplayBitIdenticalAcrossThreadsAndCodecs) {
  ThreadsAndCodecGuard guard;
  // 5000 queries span several 1024-query shards, so raising the thread
  // count genuinely reshuffles cache warm/cold patterns.
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 300;
  wcfg.num_topics = 30;
  wcfg.topic_size = 6;
  wcfg.seed = 17;
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(5000, 23);

  trace::CorpusConfig ccfg;
  ccfg.num_documents = 400;
  ccfg.vocabulary_size = 300;
  ccfg.mean_distinct_words = 40.0;
  ccfg.seed = 17;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(ccfg));
  const std::vector<std::uint64_t> sizes = index.index_sizes();

  std::vector<int> placement(sizes.size());
  for (std::size_t k = 0; k < placement.size(); ++k)
    placement[k] = static_cast<int>(k % 5);

  for (auto kind : {sim::OperationKind::kIntersection,
                    sim::OperationKind::kIntersectionBloom,
                    sim::OperationKind::kUnion}) {
    std::vector<sim::ReplayStats> stats;
    for (search::PostingCodec codec :
         {search::PostingCodec::kBlock, search::PostingCodec::kVarint}) {
      search::set_default_posting_codec(codec);
      for (int threads : {1, 2, 8}) {
        common::set_global_threads(threads);
        sim::Cluster cluster(5, 1e9);
        cluster.install_placement(placement, sizes);
        stats.push_back(sim::replay_trace(cluster, index, trace, kind));
      }
    }
    // All six runs (2 codecs x 3 thread counts) must agree field-exact:
    // the codec and the cache change time, never answers.
    for (std::size_t i = 1; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].queries, stats[0].queries);
      EXPECT_EQ(stats[i].multi_keyword_queries,
                stats[0].multi_keyword_queries);
      EXPECT_EQ(stats[i].local_queries, stats[0].local_queries);
      EXPECT_EQ(stats[i].total_bytes, stats[0].total_bytes);
      EXPECT_EQ(stats[i].total_messages, stats[0].total_messages);
      EXPECT_EQ(stats[i].mean_bytes_per_query, stats[0].mean_bytes_per_query);
      EXPECT_EQ(stats[i].p99_bytes_per_query, stats[0].p99_bytes_per_query);
      EXPECT_EQ(stats[i].mean_latency_ms, stats[0].mean_latency_ms);
      EXPECT_EQ(stats[i].p99_latency_ms, stats[0].p99_latency_ms);
      EXPECT_EQ(stats[i].max_storage_factor, stats[0].max_storage_factor);
      EXPECT_EQ(stats[i].storage_imbalance, stats[0].storage_imbalance);
    }
    EXPECT_GT(stats[0].total_bytes, 0u);  // the comparison is not vacuous
  }
}

TEST(BlockParallel, FaultReplayBitIdenticalAcrossThreadsAndCodecs) {
  ThreadsAndCodecGuard guard;
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 200;
  wcfg.num_topics = 20;
  wcfg.seed = 19;
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(3000, 29);

  trace::CorpusConfig ccfg;
  ccfg.num_documents = 300;
  ccfg.vocabulary_size = 200;
  ccfg.mean_distinct_words = 30.0;
  ccfg.seed = 19;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(ccfg));
  const std::vector<std::uint64_t> sizes = index.index_sizes();

  std::vector<int> placement(sizes.size());
  for (std::size_t k = 0; k < placement.size(); ++k)
    placement[k] = static_cast<int>(k % 4);

  const sim::FaultSchedule schedule = sim::FaultSchedule::from_events(
      4, {{50.0, 1, sim::FaultEventKind::kCrash},
          {450.0, 1, sim::FaultEventKind::kRecover}});
  sim::FaultReplayConfig config;
  config.faults = &schedule;
  config.arrival_rate_qps = 5000.0;  // the crash window covers real traffic

  std::vector<sim::FaultReplayStats> stats;
  for (search::PostingCodec codec :
       {search::PostingCodec::kBlock, search::PostingCodec::kVarint}) {
    search::set_default_posting_codec(codec);
    for (int threads : {1, 2, 8}) {
      common::set_global_threads(threads);
      sim::Cluster cluster(4, 1e9);
      cluster.install_placement(placement, sizes);
      stats.push_back(
          sim::replay_trace_with_faults(cluster, index, trace, config));
    }
  }
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].base.total_bytes, stats[0].base.total_bytes);
    EXPECT_EQ(stats[i].base.p99_latency_ms, stats[0].base.p99_latency_ms);
    EXPECT_EQ(stats[i].fully_served, stats[0].fully_served);
    EXPECT_EQ(stats[i].degraded, stats[0].degraded);
    EXPECT_EQ(stats[i].failed, stats[0].failed);
    EXPECT_EQ(stats[i].availability, stats[0].availability);
    EXPECT_EQ(stats[i].mean_coverage, stats[0].mean_coverage);
    EXPECT_EQ(stats[i].retries, stats[0].retries);
    EXPECT_EQ(stats[i].failovers, stats[0].failovers);
  }
  EXPECT_GT(stats[0].base.total_bytes, 0u);
}

}  // namespace
}  // namespace cca
