// build_groups: capacity-driven component splitting (peel + sweep cut +
// boundary refinement) used by the LPRR pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/component_solver.hpp"

namespace cca::core {
namespace {

double group_size(const CcaInstance& inst, const std::vector<ObjectId>& g) {
  double s = 0.0;
  for (ObjectId i : g) s += inst.object_size(i);
  return s;
}

/// Two 3-cliques joined by one weak edge; per-node capacity fits one
/// clique. The cheap cut is the bridge.
CcaInstance two_cliques() {
  std::vector<PairWeight> pairs;
  for (int base : {0, 3})
    for (int a = 0; a < 3; ++a)
      for (int b = a + 1; b < 3; ++b)
        pairs.push_back({base + a, base + b, 0.5, 10.0});
  pairs.push_back({2, 3, 0.01, 1.0});  // weak bridge
  return CcaInstance(std::vector<double>(6, 1.0), {3.0, 3.0}, pairs);
}

TEST(BuildGroups, NoSplittingWhenFillDisabled) {
  const CcaInstance inst = two_cliques();
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 0.0});
  EXPECT_EQ(groups.members.size(), 1u);  // one connected component
  EXPECT_DOUBLE_EQ(groups.cut_cost, 0.0);
}

TEST(BuildGroups, SplitsAtTheWeakBridge) {
  const CcaInstance inst = two_cliques();
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  ASSERT_EQ(groups.members.size(), 2u);
  for (const auto& g : groups.members)
    EXPECT_LE(group_size(inst, g), 3.0 + 1e-9);
  // Only the bridge pays: cut cost = 0.01 * 1.0.
  EXPECT_NEAR(groups.cut_cost, 0.01, 1e-12);
  // Each clique stays whole.
  for (const auto& g : groups.members) {
    std::set<ObjectId> s(g.begin(), g.end());
    EXPECT_TRUE(s == std::set<ObjectId>({0, 1, 2}) ||
                s == std::set<ObjectId>({3, 4, 5}));
  }
}

TEST(BuildGroups, GroupsPartitionAllObjects) {
  const CcaInstance inst = two_cliques();
  for (double fill : {0.0, 0.5, 1.0}) {
    const PlacementGroups groups =
        build_groups(inst, ComponentSolverOptions{7, fill});
    std::vector<int> seen(6, 0);
    for (const auto& g : groups.members)
      for (ObjectId i : g) ++seen[i];
    for (int i = 0; i < 6; ++i) EXPECT_EQ(seen[i], 1) << "fill " << fill;
    ASSERT_EQ(groups.sizes.size(), groups.members.size());
    ASSERT_EQ(groups.component_of_group.size(), groups.members.size());
    for (std::size_t g = 0; g < groups.members.size(); ++g)
      EXPECT_DOUBLE_EQ(groups.sizes[g], group_size(inst, groups.members[g]));
  }
}

TEST(BuildGroups, PiecesCounterCountsPeeledPieces) {
  // Fill 1.0 peels one clique off the 6-object component; fill 0.0 peels
  // nothing.
  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Counter& pieces = reg.counter("core.components.pieces");
  const CcaInstance inst = two_cliques();
  for (const auto& [fill, expected] : {std::pair{1.0, 1}, std::pair{0.0, 0}}) {
    reg.set_enabled(true);
    pieces.reset();
    build_groups(inst, ComponentSolverOptions{1, fill});
    reg.set_enabled(false);
    EXPECT_EQ(pieces.total(), expected) << "fill " << fill;
  }
}

TEST(BuildGroups, SiblingGroupsShareComponentId) {
  const CcaInstance inst = two_cliques();
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  ASSERT_EQ(groups.members.size(), 2u);
  EXPECT_EQ(groups.component_of_group[0], groups.component_of_group[1]);
}

TEST(BuildGroups, OversizedSingleObjectEmittedWhole) {
  // One object bigger than any node: cannot be split; emitted as-is.
  const CcaInstance inst({10.0, 1.0}, {4.0, 4.0}, {{0, 1, 0.5, 1.0}});
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  bool found_oversized = false;
  for (const auto& g : groups.members)
    if (std::find(g.begin(), g.end(), 0) != g.end()) {
      found_oversized = true;
      EXPECT_EQ(g.size(), 1u);
    }
  EXPECT_TRUE(found_oversized);
}

TEST(BuildGroups, ChainSplitsIntoCapacitySizedRuns) {
  // A path graph of 12 unit objects with uniform edges; capacity 4 per
  // node. Peeling must produce pieces of size <= 4, and the refinement
  // must not leave singletons straddling boundaries (each cut severs
  // exactly one path edge; cheaper is impossible).
  std::vector<PairWeight> pairs;
  for (int i = 0; i + 1 < 12; ++i) pairs.push_back({i, i + 1, 0.5, 2.0});
  const CcaInstance inst(std::vector<double>(12, 1.0),
                         std::vector<double>(3, 4.0), pairs);
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{3, 1.0});
  double max_size = 0.0;
  for (const auto& g : groups.members)
    max_size = std::max(max_size, group_size(inst, g));
  EXPECT_LE(max_size, 4.0 + 1e-9);
  // 12 units over <=4-unit pieces: at least 3 pieces, at least 2 cuts; the
  // minimum possible cut cost for 3 pieces is 2 edges = 2.0.
  EXPECT_GE(groups.members.size(), 3u);
  EXPECT_GE(groups.cut_cost, 2.0 - 1e-9);
  EXPECT_LE(groups.cut_cost, 4.0 + 1e-9);  // no wild over-cutting
}

TEST(BuildGroups, RefinementReunitesStragglers) {
  // A 4-clique plus a pendant strongly tied to it, and an independent
  // pair. Capacity fits clique+pendant. Wherever the sweep initially puts
  // the pendant, refinement must end with it in the clique's group.
  std::vector<PairWeight> pairs;
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b) pairs.push_back({a, b, 0.5, 4.0});
  pairs.push_back({3, 4, 0.9, 8.0});  // pendant 4 strongly tied to clique
  pairs.push_back({5, 6, 0.5, 1.0});  // independent pair
  const CcaInstance inst(std::vector<double>(7, 1.0), {5.0, 5.0}, pairs);
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  int clique_group = -1, pendant_group = -1;
  for (std::size_t g = 0; g < groups.members.size(); ++g) {
    for (ObjectId i : groups.members[g]) {
      if (i == 0) clique_group = static_cast<int>(g);
      if (i == 4) pendant_group = static_cast<int>(g);
    }
  }
  EXPECT_EQ(clique_group, pendant_group);
}

TEST(BuildGroups, CutCostMatchesGroupAssignment) {
  const CcaInstance inst = two_cliques();
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{5, 1.0});
  std::vector<int> group_of(6, -1);
  for (std::size_t g = 0; g < groups.members.size(); ++g)
    for (ObjectId i : groups.members[g]) group_of[i] = static_cast<int>(g);
  double expected = 0.0;
  for (const PairWeight& p : inst.pairs())
    if (group_of[p.i] != group_of[p.j]) expected += p.cost();
  EXPECT_DOUBLE_EQ(groups.cut_cost, expected);
}

TEST(BuildGroups, PeelTiesBreakByGroupOrder) {
  // A star: centre 0 (the largest object, so the peel's seed) and leaves
  // 1, 2 tied on attachment and size, plus leaf 3 tied on size but more
  // weakly attached. A piece holds the centre and one leaf; of the tied
  // leaves the earlier group member must join it, and refinement cannot
  // swap them (the piece is full).
  const CcaInstance inst({2.0, 1.0, 1.0, 1.0}, {3.0, 3.0},
                         {{0, 1, 0.5, 2.0}, {0, 2, 0.5, 2.0},
                          {0, 3, 0.25, 2.0}});
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  ASSERT_EQ(groups.members.size(), 2u);
  EXPECT_EQ(groups.members[0], (std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(groups.members[1], (std::vector<ObjectId>{2, 3}));
}

/// FNV-1a over everything build_groups returns: per group its member
/// count and members, then component ids, then the bit patterns of the
/// sizes and of the cut cost.
std::uint64_t fnv1a(const PlacementGroups& groups) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  for (const auto& g : groups.members) {
    mix(g.size());
    for (ObjectId i : g) mix(static_cast<std::uint64_t>(i));
  }
  for (int c : groups.component_of_group) mix(static_cast<std::uint64_t>(c));
  for (double s : groups.sizes) mix_double(s);
  mix_double(groups.cut_cost);
  return hash;
}

TEST(BuildGroups, GoldenGroupsHash) {
  // Pins build_groups' exact output on one giant component: a 300-object
  // chain plus random chords, with sizes and pair costs drawn from small
  // sets so attachment and size ties are common. Speed work on the peel
  // must leave every group unchanged; a deliberate behaviour change
  // updates these constants and says why.
  constexpr int kObjects = 300;
  common::Rng rng(2024);
  std::vector<double> sizes(kObjects);
  for (double& s : sizes) s = static_cast<double>(1 + rng.next_below(3));
  const auto pair = [&rng](int i, int j) {
    return PairWeight{i, j, 0.25 * static_cast<double>(1 + rng.next_below(2)),
                      static_cast<double>(1 << rng.next_below(3))};
  };
  std::vector<PairWeight> pairs;
  for (int i = 0; i + 1 < kObjects; ++i) pairs.push_back(pair(i, i + 1));
  for (int c = 0; c < 2 * kObjects; ++c) {
    const int i = static_cast<int>(rng.next_below(kObjects));
    const int j = static_cast<int>(rng.next_below(kObjects));
    if (i != j) pairs.push_back(pair(i, j));
  }
  const CcaInstance inst(std::move(sizes), std::vector<double>(6, 110.0),
                         std::move(pairs));
  ASSERT_EQ(build_groups(inst, ComponentSolverOptions{1, 0.0}).members.size(),
            1u);

  const std::pair<double, std::uint64_t> golden[] = {
      {1.0, 0xd84667fd6b717375ULL},
      {0.5, 0x37134e159a6e8ae8ULL},
      {0.1, 0xa22e4601f0aefb0bULL}};
  for (const auto& [fill, hash] : golden) {
    const PlacementGroups groups =
        build_groups(inst, ComponentSolverOptions{1, fill});
    EXPECT_GT(groups.members.size(), 1u) << "fill " << fill;
    EXPECT_EQ(fnv1a(groups), hash) << "fill " << fill;
  }
}

}  // namespace
}  // namespace cca::core
