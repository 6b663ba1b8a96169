#include "core/component_solver.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "lp/canonical.hpp"
#include "lp/model.hpp"
#include "lp/solver.hpp"

namespace cca::core {

namespace {

/// Plain union-find with path halving + union by size.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];
      a = parent_[a];
    }
    return a;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

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

/// Peel candidate: key (attachment desc, size desc, group position asc),
/// a strict total order, so whichever structure holds the candidates the
/// same member comes out first.
struct Candidate {
  double gain;
  double size;
  int local;
  ObjectId object;

  bool ranks_above(const Candidate& o) const {
    if (gain != o.gain) return gain > o.gain;
    if (size != o.size) return size > o.size;
    return local < o.local;
  }
};

/// Where a component member stands in the peel of its current group.
enum : char { kOut, kFree, kPiece };

/// Per-component scratch of the peel, indexed by an object's position in
/// its component's member list (`local_of`). Members of the group being
/// peeled are kFree; everything else is kOut with zero attachment (and
/// every `heap_pos` is -1) between calls.
struct PeelScratch {
  std::vector<char> state;  // kFree, kPiece (absorbed) or kOut (not in group)
  std::vector<double> attachment;  // non-member -> cost to the piece
  std::vector<int> heap_pos;       // attached member -> slot in `attached`
  std::vector<Candidate> attached;  // max-heap of attached members
  std::vector<Candidate> detached;  // lazy heap of zero-attachment members

  explicit PeelScratch(std::size_t n)
      : state(n, kFree), attachment(n, 0.0), heap_pos(n, -1) {}

  void place(std::size_t slot, const Candidate& c) {
    attached[slot] = c;
    heap_pos[c.local] = static_cast<int>(slot);
  }

  void sift_up(std::size_t slot) {
    const Candidate c = attached[slot];
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (!c.ranks_above(attached[parent])) break;
      place(slot, attached[parent]);
      slot = parent;
    }
    place(slot, c);
  }

  /// Raises (or inserts) `c` in the attached heap: attachment only grows.
  void raise(const Candidate& c) {
    int slot = heap_pos[c.local];
    if (slot < 0) {
      slot = static_cast<int>(attached.size());
      attached.push_back(c);
    } else {
      attached[slot].gain = c.gain;
    }
    sift_up(static_cast<std::size_t>(slot));
  }

  /// Removes the attached heap's top: the hole left at the root sinks
  /// along the larger children to a leaf, and the last entry refills it
  /// from there with a sift-up (one compare per level down).
  void pop_attached() {
    heap_pos[attached.front().local] = -1;
    const Candidate last = attached.back();
    attached.pop_back();
    if (attached.empty()) return;
    std::size_t slot = 0;
    const std::size_t n = attached.size();
    for (;;) {
      std::size_t child = 2 * slot + 1;
      if (child >= n) break;
      if (child + 1 < n && attached[child + 1].ranks_above(attached[child]))
        ++child;
      place(slot, attached[child]);
      slot = child;
    }
    attached[slot] = last;
    sift_up(slot);
  }
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
/// The next member is the best Candidate — the order a linear scan with
/// strict comparisons would pick in. Attached members sit in a
/// position-tracked max-heap where an attachment rise is a sift-up; only
/// when none is attached does the pick fall back to a lazily built heap
/// of the zero-attachment members, so a piece costs O(E log V) over the
/// group's pairs instead of O(|group|^2). `group` lists members in
/// component order, so group position and `local_of` agree in order.
std::pair<std::vector<ObjectId>, std::vector<ObjectId>> peel_piece(
    const CcaInstance& instance, const PairAdjacency& adj,
    const std::vector<int>& local_of, const std::vector<ObjectId>& group,
    double limit, PeelScratch& scratch) {
  CCA_CHECK(group.size() >= 2);

  ObjectId seed = group[0];
  for (ObjectId i : group)
    if (instance.object_size(i) > instance.object_size(seed)) seed = i;

  std::vector<ObjectId> absorb_order;
  double piece_size = 0.0;
  double cut = 0.0;  // cost of edges crossing the piece / rest boundary

  auto absorb = [&](ObjectId i) {
    const int li = local_of[i];
    absorb_order.push_back(i);
    char* const state = scratch.state.data();
    double* const attachment = scratch.attachment.data();
    state[li] = kPiece;
    piece_size += instance.object_size(i);
    // The loop adds to a local copy of the cut (same terms, same order)
    // that the heap's stores cannot alias.
    double boundary = cut - attachment[li];  // exact no-op when unattached
    attachment[li] = 0.0;
    for (const auto& [nbr, cost] : adj.of(i)) {
      const int ln = local_of[nbr];
      if (state[ln] != kFree) continue;
      const double a = attachment[ln] + cost;
      attachment[ln] = a;
      boundary += cost;
      scratch.raise({a, instance.object_size(nbr), ln, nbr});
    }
    cut = boundary;
  };
  absorb(seed);

  // Zero-attachment members stay zero until attached or absorbed, so the
  // fallback heap is built once, on first need, and entries that have
  // since been attached or absorbed are dropped as they surface.
  bool detached_built = false;
  const auto detached_below = [](const Candidate& a, const Candidate& b) {
    return b.ranks_above(a);
  };
  const auto next_detached = [&]() -> const Candidate& {
    std::vector<Candidate>& heap = scratch.detached;
    if (!detached_built) {
      detached_built = true;
      for (ObjectId i : group) {
        const int li = local_of[i];
        if (scratch.state[li] == kFree && scratch.attachment[li] == 0.0)
          heap.push_back({0.0, instance.object_size(i), li, i});
      }
      std::make_heap(heap.begin(), heap.end(), detached_below);
    }
    while (!heap.empty() && (scratch.state[heap.front().local] == kPiece ||
                             scratch.attachment[heap.front().local] != 0.0)) {
      std::pop_heap(heap.begin(), heap.end(), detached_below);
      heap.pop_back();
    }
    CCA_CHECK(!heap.empty());
    return heap.front();
  };

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
    const bool from_attached = !scratch.attached.empty();
    const Candidate& best =
        from_attached ? scratch.attached.front() : next_detached();
    if (piece_size + best.size > limit) break;
    const ObjectId object = best.object;
    if (from_attached) {
      scratch.pop_attached();
    } else {
      std::pop_heap(scratch.detached.begin(), scratch.detached.end(),
                    detached_below);
      scratch.detached.pop_back();
    }
    absorb(object);
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
    scratch.state[local_of[absorb_order[t]]] = kFree;
  for (const Candidate& c : scratch.attached) scratch.heap_pos[c.local] = -1;
  scratch.attached.clear();
  scratch.detached.clear();
  std::vector<ObjectId> piece(absorb_order.begin(),
                              absorb_order.begin() +
                                  static_cast<std::ptrdiff_t>(prefix));
  std::vector<ObjectId> rest;
  for (ObjectId i : group) {
    const int li = local_of[i];
    scratch.attachment[li] = 0.0;
    if (scratch.state[li] == kPiece) {
      scratch.state[li] = kOut;
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
///
/// A visit sums its pair costs per group in a dense array, in adjacency
/// order. When one feasible target holds strictly the most, that decides
/// the move. An exact tie among the best targets is broken by the
/// iteration order of a std::unordered_map filled with the same keys in
/// first-touch order — the rule this pass has always had, which the
/// placements depend on. That order depends on the map's bucket count,
/// which only grows on a visit with more keys than any before it, so the
/// map is also fed on those visits; clear() keeps the bucket array.
void refine_groups(const CcaInstance& instance, const PairAdjacency& adj,
                   std::vector<int>& group_of, std::vector<double>& sizes,
                   double limit, int passes) {
  auto& reg = common::MetricsRegistry::global();
  static common::Counter& move_count =
      reg.counter("core.components.refine.moves");
  static common::Counter& tie_count =
      reg.counter("core.components.refine.ties");
  std::vector<double> sum(sizes.size(), 0.0);
  std::vector<char> touched_flag(sizes.size(), 0);
  std::vector<int> touched;  // groups in first-touch order
  std::unordered_map<int, double> attach;
  std::size_t max_keys = 0;
  std::int64_t moves = 0, ties = 0;
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (int i = 0; i < instance.num_objects(); ++i) {
      if (adj.of(i).empty()) continue;
      touched.clear();
      for (const auto& [nbr, cost] : adj.of(i)) {
        const int g = group_of[nbr];
        if (!touched_flag[g]) {
          touched_flag[g] = 1;
          sum[g] = 0.0;
          touched.push_back(g);
        }
        sum[g] += cost;
      }
      const int current = group_of[i];
      const double size = instance.object_size(i);
      int best = current;
      double best_gain = touched_flag[current] ? sum[current] : 0.0;
      int at_best = 0;  // feasible targets holding best_gain, if a move
      for (int g : touched) {
        if (g == current || sum[g] < best_gain) continue;
        if (sizes[g] + size > limit) continue;
        if (sum[g] > best_gain) {
          best = g;
          best_gain = sum[g];
          at_best = 1;
        } else if (best != current) {
          ++at_best;
        }
      }
      if (at_best > 1 || touched.size() > max_keys) {
        ties += at_best > 1;
        max_keys = std::max(max_keys, touched.size());
        attach.clear();
        for (int g : touched) attach[g] = sum[g];
        best = current;
        best_gain = touched_flag[current] ? sum[current] : 0.0;
        for (const auto& [g, cost] : attach) {
          if (g == current || cost <= best_gain) continue;
          if (sizes[g] + size > limit) continue;
          best = g;
          best_gain = cost;
        }
      }
      for (int g : touched) touched_flag[g] = 0;
      if (best != current) {
        sizes[current] -= size;
        sizes[best] += size;
        group_of[i] = best;
        moved = true;
        ++moves;
      }
    }
    if (!moved) break;
  }
  move_count.add(moves);
  tie_count.add(ties);
}

}  // namespace

ComponentStructure find_components(const CcaInstance& instance) {
  UnionFind uf(instance.num_objects());
  for (const PairWeight& p : instance.pairs())
    if (p.cost() > 0.0) uf.unite(p.i, p.j);

  ComponentStructure cs;
  cs.component_of.assign(instance.num_objects(), -1);
  std::vector<int> root_to_component(instance.num_objects(), -1);
  for (int i = 0; i < instance.num_objects(); ++i) {
    const int root = uf.find(i);
    if (root_to_component[root] < 0) {
      root_to_component[root] = cs.num_components();
      cs.members.emplace_back();
      cs.sizes.push_back(0.0);
    }
    const int c = root_to_component[root];
    cs.component_of[i] = c;
    cs.members[c].push_back(i);
    cs.sizes[c] += instance.object_size(i);
  }
  return cs;
}

PlacementGroups build_groups(const CcaInstance& instance,
                             const ComponentSolverOptions& options) {
  auto& reg = common::MetricsRegistry::global();
  static common::Timer& build_timer = reg.timer("core.components.build_groups");
  static common::Timer& peel_timer = reg.timer("core.components.peel");
  static common::Timer& refine_timer = reg.timer("core.components.refine");
  static common::Counter& piece_count = reg.counter("core.components.pieces");
  const common::ScopedTimer timed(build_timer);

  const ComponentStructure cs = find_components(instance);

  PlacementGroups groups;
  if (options.target_fill <= 0.0) {
    groups.members = cs.members;
    groups.sizes = cs.sizes;
    groups.component_of_group.resize(cs.members.size());
    std::iota(groups.component_of_group.begin(),
              groups.component_of_group.end(), 0);
    return groups;
  }

  double min_capacity = instance.node_capacity(0);
  for (int k = 1; k < instance.num_nodes(); ++k)
    min_capacity = std::min(min_capacity, instance.node_capacity(k));
  const double limit = options.target_fill * min_capacity;

  auto emit = [&](int component, std::vector<ObjectId> group) {
    double size = 0.0;
    for (ObjectId i : group) size += instance.object_size(i);
    groups.members.push_back(std::move(group));
    groups.sizes.push_back(size);
    groups.component_of_group.push_back(component);
  };

  const PairAdjacency adj(instance);
  std::vector<int> local_of(static_cast<std::size_t>(instance.num_objects()));
  for (const std::vector<ObjectId>& members : cs.members)
    for (std::size_t t = 0; t < members.size(); ++t)
      local_of[members[t]] = static_cast<int>(t);

  // Peeling touches only its own component's objects and pairs, so
  // components run concurrently on the PR-1 pool; merging in component
  // order keeps group numbering (and everything downstream, including
  // stdout) identical for any --threads.
  std::vector<std::vector<std::vector<ObjectId>>> peeled;
  {
    const common::ScopedTimer timed_peel(peel_timer);
    peeled = common::parallel_map(
        static_cast<std::size_t>(cs.num_components()), [&](std::size_t c) {
          std::vector<std::vector<ObjectId>> pieces;
          std::vector<ObjectId> rest = cs.members[c];
          double rest_size = cs.sizes[c];
          // Peel limit-sized pieces until the remainder fits. A single
          // object above the limit cannot be split further; it is
          // emitted whole and the capacity ablation reports the
          // resulting overload.
          if (rest_size > limit) {
            PeelScratch scratch(rest.size());
            while (rest_size > limit && rest.size() >= 2) {
              auto [piece, remainder] = peel_piece(instance, adj, local_of,
                                                   rest, limit, scratch);
              for (ObjectId i : piece)
                rest_size -= instance.object_size(i);
              pieces.push_back(std::move(piece));
              rest = std::move(remainder);
            }
          }
          pieces.push_back(std::move(rest));
          return pieces;
        });
  }
  for (int c = 0; c < cs.num_components(); ++c) {
    piece_count.add(static_cast<std::int64_t>(peeled[c].size()) - 1);
    for (std::vector<ObjectId>& piece : peeled[c]) emit(c, std::move(piece));
  }

  // Boundary refinement over the peeled groups, then compaction.
  std::vector<int> group_of(static_cast<std::size_t>(instance.num_objects()),
                            -1);
  for (std::size_t g = 0; g < groups.members.size(); ++g)
    for (ObjectId i : groups.members[g]) group_of[i] = static_cast<int>(g);
  {
    const common::ScopedTimer timed_refine(refine_timer);
    refine_groups(instance, adj, group_of, groups.sizes, limit,
                  /*passes=*/3);
  }

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

  // Cut cost: pairs whose endpoints landed in different groups.
  for (const PairWeight& p : instance.pairs())
    if (group_of[p.i] != group_of[p.j]) refined.cut_cost += p.cost();
  return refined;
}

FractionalPlacement ComponentLpSolver::solve(
    const CcaInstance& instance) const {
  return solve(instance, build_groups(instance, options_));
}

FractionalPlacement ComponentLpSolver::solve(
    const CcaInstance& instance, const PlacementGroups& groups) const {
  CCA_CHECK_MSG(!instance.has_pins(),
                "ComponentLpSolver requires a pin-free instance");

  // Why identical rows per component lose nothing (and why the LP optimum
  // is 0): take any feasible fractional x and define, per component c, the
  // size-weighted average row q_c,k = sum_{i in c} s(i) x_ik / size(c).
  // Row-stochasticity is preserved, and per-node loads are unchanged:
  // sum_c size(c) q_ck = sum_i s(i) x_ik <= c(k). Replacing every row of c
  // by q_c keeps feasibility and drives every pair term |x_ik - x_jk| of
  // the objective to 0 (pairs never straddle components: an edge with
  // positive cost merges them). Hence 0 is the optimum whenever the
  // instance is fractionally feasible at all. With target_fill > 0 the
  // groups may be split components (see header): same machinery, no longer
  // the literal optimum.
  const int C = static_cast<int>(groups.members.size());
  const int N = instance.num_nodes();

  // Group-size distribution per solve: how the union-find components (and
  // their peeled pieces) shape the transportation LP.
  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& solves = reg.counter("core.components.solves");
    static common::Counter& group_count =
        reg.counter("core.components.groups");
    static common::Histogram& group_objects =
        reg.histogram("core.components.group_objects");
    static common::Histogram& group_bytes =
        reg.histogram("core.components.group_bytes");
    solves.add();
    group_count.add(C);
    for (int c = 0; c < C; ++c) {
      group_objects.observe(groups.members[c].size());
      group_bytes.observe(static_cast<std::uint64_t>(groups.sizes[c]));
    }
  }

  // Transportation LP over q_{c,k} >= 0:
  //   sum_k q_ck = 1                 (group fully placed)
  //   sum_c size_c q_ck <= cap_k     (node capacity; ditto per resource)
  // with a small pseudo-random auxiliary objective that selects a generic
  // optimal *vertex*; vertices of a transportation polytope have at most
  // C + N - 1 nonzeros, so most groups come out integrally assigned.
  lp::Model model;
  // Vertex-selection preferences keyed by ORIGINAL component, not group:
  // sibling groups split from one component share the same node ranking,
  // so the LP re-co-locates them whenever capacity allows and the split's
  // cut cost is only paid when unavoidable.
  const auto pref = [&](int component, int k) {
    common::SplitMix64 sm(options_.seed ^
                          (static_cast<std::uint64_t>(component) *
                               0x9E3779B97F4A7C15ULL +
                           static_cast<std::uint64_t>(k)));
    return static_cast<double>(sm() >> 11) * 0x1.0p-53;
  };
  std::vector<int> q_col(static_cast<std::size_t>(C) * N);
  for (int c = 0; c < C; ++c)
    for (int k = 0; k < N; ++k)
      q_col[static_cast<std::size_t>(c) * N + k] = model.add_variable(
          0.0, lp::kInfinity,
          (1.0 + groups.sizes[c]) * pref(groups.component_of_group[c], k));

  for (int c = 0; c < C; ++c) {
    std::vector<lp::Term> terms;
    terms.reserve(static_cast<std::size_t>(N));
    for (int k = 0; k < N; ++k)
      terms.push_back({q_col[static_cast<std::size_t>(c) * N + k], 1.0});
    model.add_constraint(lp::Relation::kEqual, 1.0, std::move(terms));
  }
  for (int k = 0; k < N; ++k) {
    std::vector<lp::Term> terms;
    for (int c = 0; c < C; ++c) {
      if (groups.sizes[c] > 0.0)
        terms.push_back(
            {q_col[static_cast<std::size_t>(c) * N + k], groups.sizes[c]});
    }
    model.add_constraint(lp::Relation::kLessEqual, instance.node_capacity(k),
                         std::move(terms));
  }
  // Extra resource rows (Sec. 3.3) contract the same way storage does: a
  // group's demand is the sum of its members' demands. See the header for
  // the exactness caveat when demands are not size-proportional.
  for (const Resource& res : instance.resources()) {
    std::vector<double> group_demand(static_cast<std::size_t>(C), 0.0);
    for (int c = 0; c < C; ++c)
      for (ObjectId i : groups.members[c]) group_demand[c] += res.demands[i];
    for (int k = 0; k < N; ++k) {
      std::vector<lp::Term> terms;
      for (int c = 0; c < C; ++c) {
        if (group_demand[c] > 0.0)
          terms.push_back(
              {q_col[static_cast<std::size_t>(c) * N + k], group_demand[c]});
      }
      model.add_constraint(lp::Relation::kLessEqual, res.capacities[k],
                           std::move(terms));
    }
  }

  // Warm-start hint, in priority order: the cache's previous optimal
  // basis when shape-compatible (the drift/recovery loops re-solve this
  // exact shape with nudged sizes, so phase 2 restarts almost done), else
  // a crash basis assembled from the per-group capacity-relaxed solves.
  // Relaxing the coupling rows separates the LP by group into independent
  // argmin-cost node picks — computed in parallel and merged in fixed
  // group order — and {q_{c,k*(c)} basic per placement row, slack basic
  // per capacity row} is structurally nonsingular (permuted triangular
  // with unit diagonal). It is optimal outright when no capacity binds;
  // when one does, the simplex repairs it in a few pivots instead of
  // running phase 1 from scratch. A cached basis made primal infeasible
  // by drifted sizes/capacities (the rhs-perturbation shape) is repaired
  // by the solver's dual lane rather than rejected. An unusable hint
  // silently cold-starts, so placements never depend on where the hint
  // came from.
  const int R = static_cast<int>(instance.resources().size());
  const int num_rows = C + N + R * N;
  lp::Basis hint;
  if (options_.warm_cache != nullptr) hint = options_.warm_cache->load();
  if (hint.num_rows() != num_rows) {
    const std::vector<int> best_node = common::parallel_map(
        static_cast<std::size_t>(C), [&](std::size_t c) {
          const int component = groups.component_of_group[c];
          int best = 0;
          double best_cost = lp::kInfinity;
          for (int k = 0; k < N; ++k) {
            const double cost = (1.0 + groups.sizes[c]) * pref(component, k);
            if (cost < best_cost) {
              best = k;
              best_cost = cost;
            }
          }
          return best;
        });
    const lp::CanonicalForm canon(model);
    hint.basic.assign(static_cast<std::size_t>(num_rows), -1);
    for (int c = 0; c < C; ++c)
      hint.basic[c] = canon.column_for_variable(
          q_col[static_cast<std::size_t>(c) * N + best_node[c]]);
    for (int i = C; i < num_rows; ++i)
      hint.basic[i] = canon.identity_slack_for_row(i);
  }

  const lp::SolveResult result = lp::Solver().solve(model, &hint);
  if (options_.warm_cache != nullptr && !result.basis.empty())
    options_.warm_cache->store(result.basis);
  const lp::Solution& solution = result.solution;
  CCA_CHECK_MSG(solution.optimal(),
                "group transportation LP: "
                    << lp::to_string(solution.status)
                    << " (is total capacity >= total object size?)");

  FractionalPlacement x(instance.num_objects(), N);
  for (int c = 0; c < C; ++c) {
    for (int k = 0; k < N; ++k) {
      double v = solution.x[q_col[static_cast<std::size_t>(c) * N + k]];
      if (v < 0.0) v = 0.0;
      if (v > 1.0) v = 1.0;
      for (ObjectId i : groups.members[c]) x.set(i, k, v);
    }
  }
  return x;
}

}  // namespace cca::core
