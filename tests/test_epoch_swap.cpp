// Epoch-swap determinism and publication safety under threads.
//
// Lives in the sanitize-labelled binary: the claims here — churned-replay
// statistics bit-identical for any thread-pool size, and acquire/publish
// safe against concurrent readers — are exactly what TSan should watch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/placement_map.hpp"
#include "hash/md5.hpp"
#include "search/inverted_index.hpp"
#include "sim/placement_service.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca::sim {
namespace {

std::shared_ptr<const core::PlacementMap> jump_map(std::size_t vocab,
                                                   int nodes,
                                                   std::uint64_t epoch = 0) {
  core::PlacementMapConfig cfg;
  cfg.num_nodes = nodes;
  cfg.hash_tail = core::HashTail::kJump;
  cfg.epoch = epoch;
  return std::make_shared<const core::PlacementMap>(
      core::PlacementMap::hashed(vocab, cfg));
}

TEST(EpochSwap, ChurnedReplayIsByteIdenticalAcrossThreadCounts) {
  trace::CorpusConfig corpus;
  corpus.num_documents = 300;
  corpus.vocabulary_size = 150;
  corpus.mean_distinct_words = 40.0;
  corpus.seed = 31;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(corpus));
  trace::WorkloadConfig workload;
  workload.vocabulary_size = 150;
  workload.num_topics = 15;
  workload.seed = 31;
  const trace::QueryTrace trace =
      trace::WorkloadModel(workload).generate(1500, 32);
  const std::vector<ChurnEvent> churn =
      parse_churn_script("add:400,4;add:900,5;remove:1200,5");
  ServiceReplayConfig cfg;

  const auto run = [&] {
    PlacementService service(jump_map(150, 4));
    return replay_trace_with_service(service, index, trace, churn, cfg);
  };
  common::set_global_threads(1);
  const ServiceReplayStats t1 = run();
  common::set_global_threads(2);
  const ServiceReplayStats t2 = run();
  common::set_global_threads(8);
  const ServiceReplayStats t8 = run();
  common::set_global_threads(2);

  ASSERT_EQ(t1.transitions.size(), 3u);
  for (const ServiceReplayStats* other : {&t2, &t8}) {
    EXPECT_EQ(t1.base.queries, other->base.queries);
    EXPECT_EQ(t1.base.total_bytes, other->base.total_bytes);
    EXPECT_EQ(t1.base.total_messages, other->base.total_messages);
    EXPECT_EQ(t1.base.local_queries, other->base.local_queries);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(t1.base.mean_bytes_per_query, other->base.mean_bytes_per_query);
    EXPECT_EQ(t1.base.p99_bytes_per_query, other->base.p99_bytes_per_query);
    EXPECT_EQ(t1.base.mean_latency_ms, other->base.mean_latency_ms);
    EXPECT_EQ(t1.base.p99_latency_ms, other->base.p99_latency_ms);
    EXPECT_EQ(t1.final_epoch, other->final_epoch);
    EXPECT_EQ(t1.final_num_nodes, other->final_num_nodes);
    ASSERT_EQ(t1.transitions.size(), other->transitions.size());
    for (std::size_t i = 0; i < t1.transitions.size(); ++i) {
      EXPECT_EQ(t1.transitions[i].moved_objects,
                other->transitions[i].moved_objects);
      EXPECT_EQ(t1.transitions[i].moved_bytes,
                other->transitions[i].moved_bytes);
      EXPECT_EQ(t1.transitions[i].moved_tail_objects,
                other->transitions[i].moved_tail_objects);
      EXPECT_EQ(t1.transitions[i].disrupted_queries,
                other->transitions[i].disrupted_queries);
    }
  }
}

TEST(EpochSwap, ConcurrentReadersAlwaysSeeACoherentEpoch) {
  // A publisher walks the service through 50 epochs while reader threads
  // hammer acquire() and resolve against whatever epoch they pinned. Every
  // pinned map must stay internally consistent (epoch monotone per reader,
  // resolution in range) — TSan guards the shared_ptr handoff itself.
  const std::size_t vocab = 64;
  PlacementService service(jump_map(vocab, 4, 0));

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto map = service.acquire();
        if (map->epoch() < last_epoch) ++failures;  // rollback = bug
        last_epoch = map->epoch();
        for (trace::KeywordId k = 0; k < vocab; ++k) {
          const core::ReplicaSet set = map->resolve(k);
          if (set.primary < 0 || set.primary >= map->num_nodes()) ++failures;
        }
      }
    });
  }

  auto map = service.acquire();
  for (int nodes = 4; nodes < 54; ++nodes) {
    auto next = std::make_shared<const core::PlacementMap>(
        map->rebalanced(nodes + 1));
    service.publish(next);
    map = std::move(next);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.epoch(), 50u);
  EXPECT_EQ(service.acquire()->num_nodes(), 54);
}


TEST(PlacementMap, TailNodeTableMatchesMd5) {
  // tail_node reads keyword digests from a table that fills lazily, one
  // 4096-id chunk at a time, on whichever thread touches the chunk first.
  // Four threads race over ids on both sides of chunk edges (the table's
  // first and last chunks included) and past its 2^22 bound, which hashes
  // directly; every answer must match a direct Md5::digest64.
  constexpr std::uint32_t kChunk = 4096, kBound = 1u << 22;
  std::vector<trace::KeywordId> ids;
  for (std::uint32_t edge : {0u, kChunk, 2 * kChunk, 512 * kChunk,
                             kBound - kChunk, kBound}) {
    for (std::uint32_t d = 0; d < 4; ++d) {
      if (edge >= d + 1) ids.push_back(edge - d - 1);
      ids.push_back(edge + d);
    }
  }
  ids.push_back(0xFFFFFFFFu);
  const int node_counts[] = {1, 7, 16, 1000};

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<trace::KeywordId> order = ids;
      std::rotate(order.begin(), order.begin() + 5 * t, order.end());
      if (t % 2 == 1) std::reverse(order.begin(), order.end());
      for (trace::KeywordId k : order) {
        const std::uint64_t key =
            hash::Md5::digest64(trace::keyword_name(k));
        for (int n : node_counts) {
          if (core::tail_node(core::HashTail::kMd5, k, n) !=
              static_cast<int>(key % static_cast<std::uint64_t>(n)))
            mismatches.fetch_add(1);
          if (core::tail_node(core::HashTail::kJump, k, n) !=
              core::jump_consistent_hash(key, n))
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace cca::sim
