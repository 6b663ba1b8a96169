// PlacementMap: hash tails, replica-set resolution, the exception-table
// cost model, and tail rebalancing across cluster resizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "core/placement_map.hpp"

namespace cca::core {
namespace {

// ---------- jump consistent hash ----------

TEST(JumpConsistentHash, ReferenceValues) {
  // Golden values of the Lamping-Veach construction with the 2862933555777941757
  // LCG multiplier; any drift here silently reshuffles every jump-tail
  // placement.
  EXPECT_EQ(jump_consistent_hash(0, 10), 0);
  EXPECT_EQ(jump_consistent_hash(0, 1000), 0);
  EXPECT_EQ(jump_consistent_hash(1, 10), 6);
  EXPECT_EQ(jump_consistent_hash(1, 100), 55);
  EXPECT_EQ(jump_consistent_hash(1, 1000), 549);
  EXPECT_EQ(jump_consistent_hash(2, 100), 62);
  EXPECT_EQ(jump_consistent_hash(42, 10), 2);
  EXPECT_EQ(jump_consistent_hash(42, 1000), 571);
  EXPECT_EQ(jump_consistent_hash(0xDEADBEEFULL, 100), 87);
  EXPECT_EQ(jump_consistent_hash(0x0123456789ABCDEFULL, 1000), 194);
}

TEST(JumpConsistentHash, SingleBucketAndRange) {
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(jump_consistent_hash(key * 0x9E3779B97F4A7C15ULL, 1), 0);
    const std::int32_t bucket =
        jump_consistent_hash(key * 0x9E3779B97F4A7C15ULL, 7);
    EXPECT_GE(bucket, 0);
    EXPECT_LT(bucket, 7);
  }
  EXPECT_THROW(jump_consistent_hash(1, 0), common::Error);
}

TEST(JumpConsistentHash, GrowthOnlyMovesKeysToTheNewBucket) {
  // The defining property: going n -> n+1 either keeps a key's bucket or
  // moves it to the NEW bucket n — never between old buckets.
  for (std::int32_t n = 1; n <= 12; ++n) {
    std::size_t moved = 0;
    for (std::uint64_t key = 0; key < 2000; ++key) {
      const std::int32_t before = jump_consistent_hash(key, n);
      const std::int32_t after = jump_consistent_hash(key, n + 1);
      if (after != before) {
        EXPECT_EQ(after, n);
        ++moved;
      }
    }
    // An expected 1/(n+1) fraction moves; allow generous sampling slack.
    const double fraction = static_cast<double>(moved) / 2000.0;
    EXPECT_LT(fraction, 2.5 / (n + 1));
    EXPECT_GT(fraction, 0.25 / (n + 1));
  }
}

TEST(HashTail, ParseAndName) {
  HashTail tail = HashTail::kJump;
  EXPECT_TRUE(parse_hash_tail("md5", &tail));
  EXPECT_EQ(tail, HashTail::kMd5);
  EXPECT_TRUE(parse_hash_tail("jump", &tail));
  EXPECT_EQ(tail, HashTail::kJump);
  EXPECT_FALSE(parse_hash_tail("juMp", &tail));
  EXPECT_FALSE(parse_hash_tail("", &tail));
  EXPECT_FALSE(parse_hash_tail("crush", &tail));
  EXPECT_STREQ(hash_tail_name(HashTail::kMd5), "md5");
  EXPECT_STREQ(hash_tail_name(HashTail::kJump), "jump");
}

TEST(HashTail, TailNodeInRangeAndRuleSensitive) {
  bool differs = false;
  for (trace::KeywordId k = 0; k < 300; ++k) {
    const int md5 = tail_node(HashTail::kMd5, k, 7);
    const int jump = tail_node(HashTail::kJump, k, 7);
    EXPECT_GE(md5, 0);
    EXPECT_LT(md5, 7);
    EXPECT_GE(jump, 0);
    EXPECT_LT(jump, 7);
    differs = differs || md5 != jump;
  }
  EXPECT_TRUE(differs);  // the two rules really are different placements
}

TEST(PlacementMap, TailNodeGolden) {
  // Pinned hash-tail nodes: a faster hash must leave every tail keyword
  // where it was, under both rules and more than one cluster size.
  const trace::KeywordId keywords[] = {0, 1, 7, 42, 999, 4095, 19999, 123456};
  const int md5_7[] = {0, 6, 6, 4, 5, 1, 6, 3};
  const int jump_7[] = {1, 1, 3, 3, 1, 2, 1, 4};
  const int md5_16[] = {14, 5, 0, 12, 9, 5, 13, 4};
  const int jump_16[] = {14, 10, 7, 12, 15, 14, 1, 8};
  for (int i = 0; i < 8; ++i) {
    const trace::KeywordId k = keywords[i];
    EXPECT_EQ(tail_node(HashTail::kMd5, k, 7), md5_7[i]) << k;
    EXPECT_EQ(tail_node(HashTail::kJump, k, 7), jump_7[i]) << k;
    EXPECT_EQ(tail_node(HashTail::kMd5, k, 16), md5_16[i]) << k;
    EXPECT_EQ(tail_node(HashTail::kJump, k, 16), jump_16[i]) << k;
  }
}

// ---------- ReplicaSet ----------

TEST(ReplicaSet, SingleIsUnboundedAndNeverEverywhere) {
  const ReplicaSet set = ReplicaSet::single(3);
  EXPECT_EQ(set.primary, 3);
  EXPECT_EQ(set.degree, 0);
  EXPECT_FALSE(set.everywhere());
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(2));
  EXPECT_FALSE(set.contains(4));
  // Even node 0: an unbounded singleton on node 0 is not "everywhere".
  EXPECT_FALSE(ReplicaSet::single(0).everywhere());
}

TEST(ReplicaSet, BoundedRingWrapsAndFullDegreeIsEverywhere) {
  const ReplicaSet set{3, 2, 4};  // slots 3, 0, 1
  EXPECT_EQ(set.node(0), 3);
  EXPECT_EQ(set.node(1), 0);
  EXPECT_EQ(set.node(2), 1);
  EXPECT_TRUE(set.contains(0));
  EXPECT_FALSE(set.contains(2));
  EXPECT_FALSE(set.everywhere());
  const ReplicaSet full{1, 3, 4};
  EXPECT_TRUE(full.everywhere());
  for (int n = 0; n < 4; ++n) EXPECT_TRUE(full.contains(n));
}

// ---------- build / resolve ----------

TEST(PlacementMap, ResolveMatchesInstalledPlacement) {
  const std::vector<int> placement = {2, 0, 1, 2, 3, 0};
  PlacementMapConfig cfg;
  cfg.num_nodes = 4;
  cfg.degree = 1;
  cfg.epoch = 7;
  const PlacementMap map = PlacementMap::build(placement, cfg);
  EXPECT_EQ(map.epoch(), 7u);
  EXPECT_EQ(map.num_nodes(), 4);
  EXPECT_EQ(map.degree(), 1);
  EXPECT_EQ(map.vocabulary_size(), placement.size());
  for (trace::KeywordId k = 0; k < 6; ++k) {
    const ReplicaSet set = map.resolve(k);
    EXPECT_EQ(set.primary, placement[k]);
    EXPECT_EQ(set.degree, 1);
    EXPECT_EQ(set.num_nodes, 4);
    EXPECT_TRUE(set.contains(placement[k]));
    EXPECT_TRUE(set.contains((placement[k] + 1) % 4));
  }
  EXPECT_THROW(map.resolve(6), common::Error);
  EXPECT_THROW(map.pinned(6), common::Error);
}

TEST(PlacementMap, BuildValidates) {
  PlacementMapConfig cfg;
  cfg.num_nodes = 2;
  EXPECT_THROW(PlacementMap::build({0, 2}, cfg), common::Error);
  EXPECT_THROW(PlacementMap::build({0, -1}, cfg), common::Error);
  cfg.num_nodes = 0;
  EXPECT_THROW(PlacementMap::build({}, cfg), common::Error);
}

TEST(PlacementMap, PinsExactlyTheOffTailKeywords) {
  PlacementMapConfig cfg;
  cfg.num_nodes = 5;
  // The pure hash map has no exceptions at all.
  const PlacementMap hashed = PlacementMap::hashed(400, cfg);
  EXPECT_EQ(hashed.entries(), 0u);
  EXPECT_EQ(hashed.bytes(), 0u);
  for (trace::KeywordId k = 0; k < 400; ++k) {
    EXPECT_FALSE(hashed.pinned(k));
    EXPECT_EQ(hashed.primary(k), hashed.tail_of(k));
  }
  // An explicit placement pins exactly where it disagrees with the tail.
  std::vector<int> placement(400);
  std::size_t expected_pins = 0;
  for (trace::KeywordId k = 0; k < 400; ++k) {
    placement[k] = k < 100 ? static_cast<int>(k % 5)
                           : tail_node(cfg.hash_tail, k, 5);
    if (placement[k] != tail_node(cfg.hash_tail, k, 5)) ++expected_pins;
  }
  const PlacementMap map = PlacementMap::build(placement, cfg);
  EXPECT_EQ(map.entries(), expected_pins);
  for (trace::KeywordId k = 0; k < 400; ++k)
    EXPECT_EQ(map.pinned(k), placement[k] != map.tail_of(k));
}

// ---------- the exception-table cost model ----------

TEST(PlacementMap, ReplicationForcesAnEntryPerKeyword) {
  PlacementMapConfig cfg;
  cfg.num_nodes = 5;
  cfg.degree = 2;
  const PlacementMap map = PlacementMap::hashed(100, cfg);
  // Hash rule alone only locates degree-0 tails; every keyword needs its
  // replica slots spelled out.
  EXPECT_EQ(map.entries(), 100u);
  EXPECT_EQ(map.bytes(), 100u * (4 + 1 * 3));
}

TEST(PlacementMap, NodeIdWidthFollowsClusterSize) {
  // Regression for the former hard-coded 6-byte entry (4-byte keyword +
  // 2-byte node), which overflows node IDs past 65536 nodes.
  const auto width = [](int num_nodes) {
    PlacementMapConfig cfg;
    cfg.num_nodes = num_nodes;
    return PlacementMap::hashed(1, cfg).node_id_bytes();
  };
  EXPECT_EQ(width(1), 1u);
  EXPECT_EQ(width(256), 1u);
  EXPECT_EQ(width(257), 2u);
  EXPECT_EQ(width(65536), 2u);
  EXPECT_EQ(width(65537), 3u);       // the overflow case: 3 bytes, not 2
  EXPECT_EQ(width(16777216), 3u);
  EXPECT_EQ(width(16777217), 4u);
}

TEST(PlacementMap, BytesChargePerEntryWidth) {
  PlacementMapConfig cfg;
  cfg.num_nodes = 70000;  // 3-byte node IDs
  std::vector<int> placement(10);
  std::size_t pins = 0;
  for (trace::KeywordId k = 0; k < 10; ++k) {
    placement[k] = 1;  // almost surely off-tail for most keywords
    if (1 != tail_node(cfg.hash_tail, k, cfg.num_nodes)) ++pins;
  }
  const PlacementMap map = PlacementMap::build(placement, cfg);
  EXPECT_EQ(map.entries(), pins);
  EXPECT_EQ(map.bytes(), pins * (4 + 3));
}

// ---------- rebalancing ----------

TEST(PlacementMap, RebalancedAdvancesEpochAndKeepsPins) {
  PlacementMapConfig cfg;
  cfg.num_nodes = 4;
  cfg.epoch = 3;
  // Pin keyword 0 off its tail; leave the rest on the tail rule.
  std::vector<int> placement(50);
  for (trace::KeywordId k = 0; k < 50; ++k)
    placement[k] = tail_node(cfg.hash_tail, k, 4);
  placement[0] = (placement[0] + 1) % 4;
  const PlacementMap map = PlacementMap::build(placement, cfg);
  ASSERT_TRUE(map.pinned(0));

  const PlacementMap grown = map.rebalanced(5);
  EXPECT_EQ(grown.epoch(), 4u);
  EXPECT_EQ(grown.num_nodes(), 5);
  // The pinned keyword kept its node; unpinned keywords follow the tail
  // rule at the new size.
  EXPECT_EQ(grown.primary(0), map.primary(0));
  for (trace::KeywordId k = 1; k < 50; ++k)
    EXPECT_EQ(grown.primary(k), tail_node(cfg.hash_tail, k, 5));
}

TEST(PlacementMap, RebalancedDropsPinsOnRetiredNodes) {
  PlacementMapConfig cfg;
  cfg.num_nodes = 4;
  std::vector<int> placement(20);
  for (trace::KeywordId k = 0; k < 20; ++k)
    placement[k] = tail_node(cfg.hash_tail, k, 4);
  // Pin keyword 5 to the node about to retire (if it is not already
  // there, force it).
  placement[5] = 3;
  const PlacementMap map = PlacementMap::build(placement, cfg);

  const PlacementMap shrunk = map.rebalanced(3);
  EXPECT_EQ(shrunk.num_nodes(), 3);
  for (trace::KeywordId k = 0; k < 20; ++k) {
    EXPECT_GE(shrunk.primary(k), 0);
    EXPECT_LT(shrunk.primary(k), 3);
  }
  // The orphaned pin fell back to the tail rule.
  EXPECT_EQ(shrunk.primary(5), tail_node(cfg.hash_tail, 5, 3));
  EXPECT_THROW(map.rebalanced(0), common::Error);
}

TEST(PlacementMap, JumpTailGrowMovesOneNthMd5Reshuffles) {
  // The acceptance headline: growing N -> N+1 moves ~1/(N+1) of the
  // jump tail but ~(N-1)/N of the md5 tail.
  const std::size_t vocab = 3000;
  const auto moved_fraction = [&](HashTail tail) {
    PlacementMapConfig cfg;
    cfg.num_nodes = 10;
    cfg.hash_tail = tail;
    const PlacementMap map = PlacementMap::hashed(vocab, cfg);
    const PlacementMap grown = map.rebalanced(11);
    std::size_t moved = 0;
    for (trace::KeywordId k = 0; k < vocab; ++k)
      if (map.primary(k) != grown.primary(k)) ++moved;
    return static_cast<double>(moved) / static_cast<double>(vocab);
  };
  const double jump = moved_fraction(HashTail::kJump);
  const double md5 = moved_fraction(HashTail::kMd5);
  EXPECT_LT(jump, 0.2);  // expected ~0.09
  EXPECT_GT(jump, 0.02);  // it does move the new node's share
  EXPECT_GT(md5, 0.75);  // expected ~0.91
}

// ---------- successor epochs ----------

TEST(PlacementMap, WithPlacementPublishesTheNextEpoch) {
  PlacementMapConfig cfg;
  cfg.num_nodes = 3;
  cfg.degree = 1;
  cfg.hash_tail = HashTail::kJump;
  const PlacementMap map = PlacementMap::hashed(10, cfg);
  std::vector<int> optimized(10, 1);
  const PlacementMap next = map.with_placement(optimized);
  EXPECT_EQ(next.epoch(), map.epoch() + 1);
  EXPECT_EQ(next.num_nodes(), 3);
  EXPECT_EQ(next.degree(), 1);
  EXPECT_EQ(next.hash_tail(), HashTail::kJump);
  for (trace::KeywordId k = 0; k < 10; ++k) EXPECT_EQ(next.primary(k), 1);
  EXPECT_THROW(map.with_placement({0, 1}), common::Error);
}

// ---------- domain-aware replica spread ----------

/// 2 racks x 3 nodes (rack-major: rack r holds [3r, 3r+3)), one row.
PlacementMapConfig spread_config(ReplicaSpread spread, int degree) {
  PlacementMapConfig cfg;
  cfg.num_nodes = 6;
  cfg.degree = degree;
  cfg.spread = spread;
  cfg.node_rack = {0, 0, 0, 1, 1, 1};
  cfg.rack_row = {0, 0};
  cfg.pool_version = 3;
  return cfg;
}

TEST(ReplicaSpread, ParseAndName) {
  ReplicaSpread spread = ReplicaSpread::kFlat;
  EXPECT_TRUE(parse_replica_spread("rack", &spread));
  EXPECT_EQ(spread, ReplicaSpread::kRack);
  EXPECT_TRUE(parse_replica_spread("row", &spread));
  EXPECT_EQ(spread, ReplicaSpread::kRow);
  EXPECT_TRUE(parse_replica_spread("flat", &spread));
  EXPECT_EQ(spread, ReplicaSpread::kFlat);
  EXPECT_FALSE(parse_replica_spread("ring", &spread));
  EXPECT_STREQ(replica_spread_name(ReplicaSpread::kRack), "rack");
}

TEST(ReplicaSpread, RackSpreadCrossesTheRackBoundary) {
  // Flat tails stay rack-local for small offsets; rack spread's first
  // replica must leave the primary's rack.
  const PlacementMap map = PlacementMap::build(
      {0, 1, 2, 3, 4, 5}, spread_config(ReplicaSpread::kRack, 1));
  const std::vector<int> rack = {0, 0, 0, 1, 1, 1};
  for (trace::KeywordId k = 0; k < 6; ++k) {
    const ReplicaSet set = map.resolve(k);
    EXPECT_NE(rack[static_cast<std::size_t>(set.node(1))],
              rack[static_cast<std::size_t>(set.primary)])
        << "replica of keyword " << k << " shares the primary's rack";
  }
  EXPECT_EQ(map.spread(), ReplicaSpread::kRack);
  EXPECT_EQ(map.pool_version(), 3u);
  EXPECT_EQ(map.num_racks(), 2);
}

TEST(ReplicaSpread, DegradesGracefullyWhenRacksRunOut) {
  // Degree 3 over 2 racks: slots 1-2 can use the other rack plus a
  // second distinct node, slot 3 must reuse a rack — but never a node.
  const PlacementMap map = PlacementMap::build(
      {0, 1, 2, 3, 4, 5}, spread_config(ReplicaSpread::kRack, 3));
  for (trace::KeywordId k = 0; k < 6; ++k) {
    const ReplicaSet set = map.resolve(k);
    std::vector<int> nodes;
    for (int slot = 0; slot <= set.degree; ++slot)
      nodes.push_back(set.node(slot));
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(std::unique(nodes.begin(), nodes.end()), nodes.end())
        << "keyword " << k << " repeats a replica node";
  }
}

TEST(ReplicaSpread, TailIsAFunctionOfThePrimaryOnly) {
  // Co-placed keywords share the same replica tail, so failover keeps
  // them co-located — the property the optimizer paid for.
  const PlacementMap map = PlacementMap::build(
      {2, 2, 5}, spread_config(ReplicaSpread::kRack, 2));
  const ReplicaSet a = map.resolve(0);
  const ReplicaSet b = map.resolve(1);
  EXPECT_EQ(a.node(1), b.node(1));
  EXPECT_EQ(a.node(2), b.node(2));
}

TEST(ReplicaSpread, TailsAreNestedAcrossDegrees) {
  // The degree-1 tail is a prefix of the degree-2 tail: raising the
  // degree only ever adds failover options (availability is monotone).
  const PlacementMap lo = PlacementMap::build(
      {0, 1, 2, 3, 4, 5}, spread_config(ReplicaSpread::kRack, 1));
  const PlacementMap hi = PlacementMap::build(
      {0, 1, 2, 3, 4, 5}, spread_config(ReplicaSpread::kRack, 2));
  for (trace::KeywordId k = 0; k < 6; ++k)
    EXPECT_EQ(lo.resolve(k).node(1), hi.resolve(k).node(1));
}

TEST(ReplicaSpread, FlatSpreadIsByteIdenticalToTheRing) {
  PlacementMapConfig flat_cfg = spread_config(ReplicaSpread::kFlat, 2);
  const PlacementMap spread_map =
      PlacementMap::build({0, 1, 2, 3, 4, 5}, flat_cfg);
  PlacementMapConfig ring_cfg;
  ring_cfg.num_nodes = 6;
  ring_cfg.degree = 2;
  const PlacementMap ring_map =
      PlacementMap::build({0, 1, 2, 3, 4, 5}, ring_cfg);
  for (trace::KeywordId k = 0; k < 6; ++k)
    for (int slot = 0; slot <= 2; ++slot)
      EXPECT_EQ(spread_map.resolve(k).node(slot),
                ring_map.resolve(k).node(slot));
  EXPECT_EQ(spread_map.bytes(), ring_map.bytes());
}

TEST(ReplicaSpread, ConfigValidation) {
  // Domain vectors sized to the cluster, spread without domains rejected.
  PlacementMapConfig cfg = spread_config(ReplicaSpread::kRack, 1);
  cfg.node_rack = {0, 0};  // wrong length
  EXPECT_THROW(PlacementMap::build({0, 1, 2, 3, 4, 5}, cfg), common::Error);
  cfg = spread_config(ReplicaSpread::kRack, 1);
  cfg.node_rack.clear();
  cfg.rack_row.clear();
  EXPECT_THROW(PlacementMap::build({0, 1, 2, 3, 4, 5}, cfg), common::Error);
}

TEST(ReplicaSpread, SpreadMapsRefuseBareRebalance) {
  // rebalanced(nodes) has no topology for the new cluster; a spread map
  // must be rebuilt against a resized pool map instead.
  const PlacementMap map = PlacementMap::build(
      {0, 1, 2, 3, 4, 5}, spread_config(ReplicaSpread::kRack, 1));
  EXPECT_THROW(map.rebalanced(8), common::Error);
}

TEST(ReplicaSpread, WithPlacementCarriesTheSpread) {
  const PlacementMap map = PlacementMap::build(
      {0, 1, 2, 3, 4, 5}, spread_config(ReplicaSpread::kRack, 1));
  const PlacementMap next = map.with_placement({5, 4, 3, 2, 1, 0});
  EXPECT_EQ(next.spread(), ReplicaSpread::kRack);
  EXPECT_EQ(next.pool_version(), 3u);
  const std::vector<int> rack = {0, 0, 0, 1, 1, 1};
  const ReplicaSet set = next.resolve(0);
  EXPECT_NE(rack[static_cast<std::size_t>(set.node(1))],
            rack[static_cast<std::size_t>(set.primary)]);
}

}  // namespace
}  // namespace cca::core
