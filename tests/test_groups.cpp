// build_groups: capacity-driven component splitting (peel + sweep cut +
// boundary refinement) used by the LPRR pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>

#include "common/check.hpp"
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

/// build_groups as it was before the indexed-heap peel and the dense
/// refine sums: a lazy max-heap peel and a refine that sums every visit in
/// a std::unordered_map. Kept only as the oracle that the current
/// build_groups must match bit for bit.
namespace reference {

/// Positive-cost pair adjacency in CSR form, built once per build_groups
/// call and shared read-only by the component tasks. Each object's
/// neighbours appear in pair order, so sums over them accumulate in the
/// same order as a scan of instance.pairs() would.
struct PairAdjacency {
  std::vector<std::size_t> offsets;  // object -> first entry; n + 1 long
  std::vector<std::pair<ObjectId, double>> entries;

  explicit PairAdjacency(const CcaInstance& instance)
      : offsets(static_cast<std::size_t>(instance.num_objects()) + 1, 0) {
    for (const PairWeight& p : instance.pairs()) {
      if (p.cost() <= 0.0) continue;
      ++offsets[p.i + 1];
      ++offsets[p.j + 1];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    entries.resize(offsets.back());
    std::vector<std::size_t> next(offsets.begin(), offsets.end() - 1);
    for (const PairWeight& p : instance.pairs()) {
      if (p.cost() <= 0.0) continue;
      entries[next[p.i]++] = {p.j, p.cost()};
      entries[next[p.j]++] = {p.i, p.cost()};
    }
  }

  /// (neighbour, pair cost) entries of object `i`.
  std::span<const std::pair<ObjectId, double>> of(ObjectId i) const {
    return {entries.data() + offsets[i], entries.data() + offsets[i + 1]};
  }
};

/// Per-component scratch of the peel, indexed by an object's position in
/// its component's member list (`local_of`). Members of the group being
/// peeled are flagged `in_group`; everything else is zero between calls.
struct PeelScratch {
  std::vector<char> in_group;
  std::vector<char> in_piece;
  std::vector<double> attachment;  // non-member -> cost to the piece

  explicit PeelScratch(std::size_t n)
      : in_group(n, 1), in_piece(n, 0), attachment(n, 0.0) {}
};

/// Peels one at-most-`limit`-sized piece off an oversized group with a
/// greedy sweep cut: grow the piece from the largest member by repeatedly
/// absorbing the unassigned member most strongly attached to it (by pair
/// cost), record the boundary cut after every step, and slice at the
/// cheapest cut whose piece holds between 45% and 100% of `limit`.
/// Growing by attachment walks through clusters one at a time, so the
/// sweep's minima land on the weak edges BETWEEN clusters and each piece
/// tends to be "one node's worth of whole clusters" — the cheap
/// approximation of what the integer program would have to do once a
/// component cannot fit on one node.
///
/// The next member comes off a lazy max-heap keyed by (attachment desc,
/// size desc, group position asc) — the order a linear scan with strict
/// comparisons would pick in — so a piece costs O(E log E) over the
/// group's pairs instead of O(|group|^2). `group` lists members in
/// component order, so group position and `local_of` agree in order.
std::pair<std::vector<ObjectId>, std::vector<ObjectId>> peel_piece(
    const CcaInstance& instance, const PairAdjacency& adj,
    const std::vector<int>& local_of, const std::vector<ObjectId>& group,
    double limit, PeelScratch& scratch) {
  CCA_CHECK(group.size() >= 2);

  struct Candidate {
    double gain;
    double size;
    int local;
    ObjectId object;
    bool operator<(const Candidate& o) const {
      if (gain != o.gain) return gain < o.gain;
      if (size != o.size) return size < o.size;
      return local > o.local;
    }
  };
  // Every member enters at gain 0; attachment growth pushes fresh keys and
  // leaves the old ones stale.
  std::vector<Candidate> heap;
  heap.reserve(group.size());
  for (ObjectId i : group)
    heap.push_back({0.0, instance.object_size(i), local_of[i], i});
  std::make_heap(heap.begin(), heap.end());

  ObjectId seed = group[0];
  for (ObjectId i : group)
    if (instance.object_size(i) > instance.object_size(seed)) seed = i;

  std::vector<ObjectId> absorb_order;
  double piece_size = 0.0;
  double cut = 0.0;  // cost of edges crossing the piece / rest boundary

  auto absorb = [&](ObjectId i) {
    const int li = local_of[i];
    absorb_order.push_back(i);
    scratch.in_piece[li] = 1;
    piece_size += instance.object_size(i);
    cut -= scratch.attachment[li];  // exact no-op when unattached
    scratch.attachment[li] = 0.0;
    for (const auto& [nbr, cost] : adj.of(i)) {
      const int ln = local_of[nbr];
      if (!scratch.in_group[ln] || scratch.in_piece[ln]) continue;
      scratch.attachment[ln] += cost;
      cut += cost;
      heap.push_back(
          {scratch.attachment[ln], instance.object_size(nbr), ln, nbr});
      std::push_heap(heap.begin(), heap.end());
    }
  };
  absorb(seed);

  // Sweep within the window [0.45 * limit, limit]. Fallback: the largest
  // prefix that still fits the limit (prefix 1 when even the seed alone
  // does not — an unsplittable oversized object, emitted as-is).
  std::size_t best_prefix = 0;
  double best_cut = -1.0;
  std::size_t fallback_prefix = piece_size <= limit ? 1 : 0;
  if (piece_size >= 0.45 * limit && piece_size <= limit) {
    best_prefix = 1;
    best_cut = cut;
  }
  while (piece_size < limit && absorb_order.size() + 1 < group.size()) {
    while (!heap.empty() && (scratch.in_piece[heap.front().local] ||
                             heap.front().gain !=
                                 scratch.attachment[heap.front().local])) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
    CCA_CHECK(!heap.empty());
    const ObjectId best = heap.front().object;
    if (piece_size + instance.object_size(best) > limit) break;
    absorb(best);
    if (piece_size >= 0.45 * limit && (best_cut < 0.0 || cut < best_cut)) {
      best_cut = cut;
      best_prefix = absorb_order.size();
    }
    fallback_prefix = absorb_order.size();
  }
  std::size_t prefix = best_cut >= 0.0 ? best_prefix : fallback_prefix;
  if (prefix == 0) prefix = 1;

  // Leave the scratch as the next call expects: the piece drops out of
  // the group, every other flag and attachment returns to zero.
  for (std::size_t t = prefix; t < absorb_order.size(); ++t)
    scratch.in_piece[local_of[absorb_order[t]]] = 0;
  std::vector<ObjectId> piece(absorb_order.begin(),
                              absorb_order.begin() +
                                  static_cast<std::ptrdiff_t>(prefix));
  std::vector<ObjectId> rest;
  for (ObjectId i : group) {
    const int li = local_of[i];
    scratch.attachment[li] = 0.0;
    if (scratch.in_piece[li]) {
      scratch.in_piece[li] = 0;
      scratch.in_group[li] = 0;
    } else {
      rest.push_back(i);
    }
  }
  CCA_CHECK(!rest.empty());
  return {std::move(piece), std::move(rest)};
}

/// Boundary refinement (one-object Kernighan-Lin moves): each pass visits
/// every object and moves it to the group holding most of its pair cost,
/// capacity permitting. Peeling decides the coarse shape; this pass cleans
/// up the objects the sweep absorbed just before/after a cut landed.
void refine_groups(const CcaInstance& instance, const PairAdjacency& adj,
                   std::vector<int>& group_of, std::vector<double>& sizes,
                   double limit, int passes) {
  std::unordered_map<int, double> attach;  // the tie order under test
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (int i = 0; i < instance.num_objects(); ++i) {
      if (adj.of(i).empty()) continue;
      attach.clear();
      for (const auto& [nbr, cost] : adj.of(i)) attach[group_of[nbr]] += cost;
      const int current = group_of[i];
      int best = current;
      double best_gain = attach.count(current) ? attach[current] : 0.0;
      for (const auto& [g, cost] : attach) {
        if (g == current || cost <= best_gain) continue;
        if (sizes[g] + instance.object_size(i) > limit) continue;
        best = g;
        best_gain = cost;
      }
      if (best != current) {
        sizes[current] -= instance.object_size(i);
        sizes[best] += instance.object_size(i);
        group_of[i] = best;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

PlacementGroups build_groups(const CcaInstance& instance, double fill) {
  const ComponentStructure cs = find_components(instance);
  double min_capacity = instance.node_capacity(0);
  for (int k = 1; k < instance.num_nodes(); ++k)
    min_capacity = std::min(min_capacity, instance.node_capacity(k));
  const double limit = fill * min_capacity;

  const PairAdjacency adj(instance);
  std::vector<int> local_of(static_cast<std::size_t>(instance.num_objects()));
  for (const std::vector<ObjectId>& members : cs.members)
    for (std::size_t t = 0; t < members.size(); ++t)
      local_of[members[t]] = static_cast<int>(t);

  PlacementGroups groups;
  for (int c = 0; c < cs.num_components(); ++c) {
    std::vector<std::vector<ObjectId>> pieces;
    std::vector<ObjectId> rest = cs.members[c];
    double rest_size = cs.sizes[c];
    if (rest_size > limit) {
      PeelScratch scratch(rest.size());
      while (rest_size > limit && rest.size() >= 2) {
        auto [piece, remainder] =
            peel_piece(instance, adj, local_of, rest, limit, scratch);
        for (ObjectId i : piece) rest_size -= instance.object_size(i);
        pieces.push_back(std::move(piece));
        rest = std::move(remainder);
      }
    }
    pieces.push_back(std::move(rest));
    for (std::vector<ObjectId>& piece : pieces) {
      double size = 0.0;
      for (ObjectId i : piece) size += instance.object_size(i);
      groups.members.push_back(std::move(piece));
      groups.sizes.push_back(size);
      groups.component_of_group.push_back(c);
    }
  }

  std::vector<int> group_of(static_cast<std::size_t>(instance.num_objects()),
                            -1);
  for (std::size_t g = 0; g < groups.members.size(); ++g)
    for (ObjectId i : groups.members[g]) group_of[i] = static_cast<int>(g);
  refine_groups(instance, adj, group_of, groups.sizes, limit, /*passes=*/3);

  PlacementGroups refined;
  std::vector<int> new_index(groups.members.size(), -1);
  for (int i = 0; i < instance.num_objects(); ++i) {
    const int g = group_of[i];
    if (new_index[g] < 0) {
      new_index[g] = static_cast<int>(refined.members.size());
      refined.members.emplace_back();
      refined.sizes.push_back(0.0);
      refined.component_of_group.push_back(groups.component_of_group[g]);
    }
    const int ng = new_index[g];
    refined.members[ng].push_back(i);
    refined.sizes[ng] += instance.object_size(i);
  }
  for (const PairWeight& p : instance.pairs())
    if (group_of[p.i] != group_of[p.j]) refined.cut_cost += p.cost();
  return refined;
}

}  // namespace reference

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


/// Bit patterns of a double, so comparisons are bitwise.
std::uint64_t bits_of(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

TEST(BuildGroups, MatchesReferenceOnTieHeavyInstances) {
  // Random multi-component instances whose pair costs come from one-,
  // two- and three-value sets (attachment and refine-sum ties everywhere)
  // or are continuous; sizes likewise. Every group, size, component id
  // and the cut cost must equal the reference bit for bit at each fill.
  common::Rng rng(77);
  int instances = 0;
  std::int64_t ties_seen = 0;
  auto& ties = common::MetricsRegistry::global().counter(
      "core.components.refine.ties");
  const bool was_enabled = common::metrics_enabled();
  common::MetricsRegistry::global().set_enabled(true);
  for (int round = 0; round < 240; ++round) {
    const int n = 50 + static_cast<int>(rng.next_below(1451));
    const int cost_values = static_cast<int>(rng.next_below(4));  // 0: cont.
    const bool discrete_sizes = rng.next_below(4) != 0;
    std::vector<double> sizes(static_cast<std::size_t>(n));
    double total = 0.0;
    for (double& s : sizes) {
      s = discrete_sizes ? static_cast<double>(1 + rng.next_below(3))
                         : 0.5 + 2.5 * rng.next_double();
      total += s;
    }
    const auto pair = [&](int i, int j) {
      if (rng.next_below(20) == 0) return PairWeight{i, j, 0.0, 1.0};
      if (cost_values == 0)
        return PairWeight{i, j, 0.05 + 0.95 * rng.next_double(),
                          1.0 + 7.0 * rng.next_double()};
      return PairWeight{
          i, j, 0.5,
          static_cast<double>(1 << rng.next_below(
                                  static_cast<std::uint64_t>(cost_values)))};
    };
    // A handful of chains with chords inside each, plus a few bridges, so
    // components of many sizes (and some isolated objects) appear.
    std::vector<PairWeight> pairs;
    const int blocks = 1 + static_cast<int>(rng.next_below(6));
    for (int b = 0; b < blocks; ++b) {
      const int lo = n * b / blocks, hi = n * (b + 1) / blocks;
      for (int i = lo; i + 1 < hi; ++i)
        if (rng.next_below(10) != 0) pairs.push_back(pair(i, i + 1));
      const int span = hi - lo;
      for (int c = 0; c < span; ++c) {
        const int i = lo + static_cast<int>(rng.next_below(span));
        const int j = lo + static_cast<int>(rng.next_below(span));
        if (i != j) pairs.push_back(pair(i, j));
      }
    }
    for (int c = static_cast<int>(rng.next_below(3)); c > 0; --c) {
      const int i = static_cast<int>(rng.next_below(n));
      const int j = static_cast<int>(rng.next_below(n));
      if (i != j) pairs.push_back(pair(i, j));
    }
    // Hubs touch more groups than the map's first bucket array holds, so
    // the refine's std::unordered_map grows mid-build and later ties see
    // the larger bucket count.
    for (int h = static_cast<int>(rng.next_below(4)); h > 0; --h) {
      const int hub = static_cast<int>(rng.next_below(n));
      for (int d = 16 + static_cast<int>(rng.next_below(48)); d > 0; --d) {
        const int j = static_cast<int>(rng.next_below(n));
        if (j != hub) pairs.push_back(pair(hub, j));
      }
    }
    const int nodes = 2 + static_cast<int>(rng.next_below(15));
    const CcaInstance inst(std::move(sizes),
                           std::vector<double>(static_cast<std::size_t>(nodes),
                                               1.5 * total / nodes),
                           std::move(pairs));
    ++instances;
    for (double fill : {1.0, 0.5, 0.1}) {
      const std::int64_t ties_before = ties.total();
      const PlacementGroups got =
          build_groups(inst, ComponentSolverOptions{1, fill});
      ties_seen += ties.total() - ties_before;
      const PlacementGroups want = reference::build_groups(inst, fill);
      ASSERT_EQ(got.members, want.members)
          << "instance " << round << " fill " << fill;
      ASSERT_EQ(got.component_of_group, want.component_of_group);
      ASSERT_EQ(got.sizes.size(), want.sizes.size());
      for (std::size_t g = 0; g < got.sizes.size(); ++g)
        ASSERT_EQ(bits_of(got.sizes[g]), bits_of(want.sizes[g]));
      ASSERT_EQ(bits_of(got.cut_cost), bits_of(want.cut_cost))
          << "instance " << round << " fill " << fill;
    }
  }
  common::MetricsRegistry::global().set_enabled(was_enabled);
  EXPECT_GE(instances, 200);
  // The instances must exercise the unordered_map tie rule, not only the
  // dense path.
  EXPECT_GT(ties_seen, 100);
}

}  // namespace
}  // namespace cca::core
