#include "core/hypergraph.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/lex_order.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/radix_sort.hpp"
#include "common/rng.hpp"
#include "core/hypergraph_detail.hpp"

namespace cca::core {

namespace detail {

void Incidence::attach(Hypergraph& g) {
  begin_.resize(static_cast<std::size_t>(g.n) + 1);
  std::fill(begin_.begin(), begin_.end(), 0);
  for (int v : g.pins) ++begin_[v + 1];
  std::partial_sum(begin_.begin(), begin_.end(), begin_.begin());
  common::trim(incident_, g.pins.size());
  incident_.resize(g.pins.size());
  next_.assign(begin_.begin(), begin_.end() - 1);
  for (int e = 0; e < g.num_nets(); ++e)
    for (int v : g.net(e)) incident_[next_[v]++] = e;
  g.incident = incident_;
  g.inc_begin = begin_;
}

void Level::reserve(std::size_t nets, std::size_t pins) {
  const std::size_t bytes =
      nets * sizeof(double) + (nets + 1 + pins) * sizeof(int);
  block_ = {static_cast<std::byte*>(common::page_allocate(bytes)),
            Free{bytes}};
  eweight_ = reinterpret_cast<double*>(block_.get());
  net_begin_ = reinterpret_cast<int*>(eweight_ + nets);
  pins_ = net_begin_ + nets + 1;
  net_begin_[0] = 0;
  num_nets_ = num_pins_ = 0;
  max_nets_ = nets;
  max_pins_ = pins;
}

void ContractScratch::reserve(std::size_t nets, std::size_t pin_count) {
  pins.reserve(pin_count);
  begin.reserve(nets + 1);
  source.reserve(nets);
  keys.reserve(nets);
  scatter.reserve(nets);
}

void ContractScratch::trim(std::size_t nets, std::size_t pin_count) {
  common::trim(pins, pin_count);
  common::trim(begin, nets + 1);
  common::trim(source, nets);
  common::trim(keys, nets);
  common::trim(scatter, nets);
}

void contract(const Hypergraph& g, std::span<const int> coarse_of,
              int coarse_n, ContractScratch& scratch, Level& coarse) {
  // Nets up to this size are insertion-sorted as their pins are remapped.
  constexpr std::size_t kInsertionLimit = 32;
  const common::LexPacker packer(static_cast<std::uint64_t>(coarse_n));
  const auto nets = static_cast<std::size_t>(g.num_nets());
  scratch.pins.resize(g.pins.size());
  scratch.begin.resize(nets + 1);
  scratch.source.resize(nets);
  scratch.keys.resize(nets);

  // One pass: each fine net is remapped into the next free stretch of
  // scratch.pins, sorted and deduplicated there, and kept (with the
  // packed head of its pin set) if two or more pins remain.
  int* const pins = scratch.pins.data();
  int top = 0;
  std::size_t kept = 0;
  scratch.begin[0] = 0;
  for (std::size_t e = 0; e < nets; ++e) {
    const std::span<const int> fine = g.net(static_cast<int>(e));
    int* const first = pins + top;
    int* last = first;
    if (fine.size() <= kInsertionLimit) {
      for (int v : fine) {
        const int c = coarse_of[v];
        int* at = last;
        while (at > first && at[-1] > c) --at;
        if (at > first && at[-1] == c) continue;  // already a pin
        std::copy_backward(at, last, last + 1);
        *at = c;
        ++last;
      }
    } else {
      for (int v : fine) *last++ = coarse_of[v];
      std::sort(first, last);
      last = std::unique(first, last);
    }
    if (last - first < 2) continue;  // contracted away
    top += static_cast<int>(last - first);
    scratch.begin[kept + 1] = top;
    scratch.source[kept] = static_cast<int>(e);
    scratch.keys[kept] = common::LexKey::of(
        packer, std::span<const int>(first, last),
        static_cast<std::uint32_t>(kept));
    ++kept;
  }
  scratch.keys.resize(kept);
  scratch.scatter.resize(kept);

  // Sorting by pin set and merging the runs emits the merged nets in
  // lexicographic pin-set order and sums each run's weights in fine-net
  // order, so the result is deterministic.
  common::radix_sort(std::span<common::LexKey>(scratch.keys),
                     [](const common::LexKey& k) { return k.key; },
                     std::span<common::LexKey>(scratch.scatter));
  const auto net = [&](std::size_t i) {
    return std::span<const int>(pins + scratch.begin[i],
                                pins + scratch.begin[i + 1]);
  };
  // Reserved for the unmerged worst case: page-mapped storage leaves the
  // untouched tail unbacked.
  coarse.reserve(kept, static_cast<std::size_t>(top));
  common::lexicographic_groups(
      std::span<common::LexKey>(scratch.keys), net, packer,
      [&](std::span<const common::LexKey> members) {
        double weight = g.eweight[scratch.source[members[0].index]];
        for (std::size_t i = 1; i < members.size(); ++i)
          weight += g.eweight[scratch.source[members[i].index]];
        coarse.add_net(net(members[0].index), weight);
      });
}

void RefineBuffers::reserve(const Hypergraph& g, int num_nodes) {
  const auto n = static_cast<std::size_t>(g.n);
  live.reserve(static_cast<std::size_t>(g.num_nets()));
  slots.reserve(g.pins.size());
  rows.reserve(n * static_cast<std::size_t>(num_nodes));
  base.reserve(n);
  total.reserve(n);
}

NetState::NetState(const Hypergraph& g, const std::vector<NodeId>& part,
                   RefineBuffers& buffers)
    : g_(g) {
  buffers.live.resize(static_cast<std::size_t>(g.num_nets()));
  buffers.slots.resize(g.pins.size());
  lambda_ = buffers.live.data();
  slots_ = buffers.slots.data();
  for (int e = 0; e < g.num_nets(); ++e) {
    lambda_[e] = 0;
    for (int v : g.net(e)) add(e, part[v]);
  }
}

std::pair<int, int> NetState::move(int e, NodeId from, NodeId to) {
  Slot* s = find(e, from);
  const int at_from = s->count;
  if (--s->count == 0) *s = slots_[g_.net_begin[e] + --lambda_[e]];
  return {at_from, add(e, to)};
}

NetState::Slot* NetState::find(int e, NodeId k) {
  Slot* s = slots_ + g_.net_begin[e];
  for (Slot* end = s + lambda_[e]; s < end; ++s)
    if (s->node == k) return s;
  return nullptr;
}

int NetState::add(int e, NodeId k) {
  if (Slot* s = find(e, k)) return s->count++;
  slots_[g_.net_begin[e] + lambda_[e]++] = {k, 1};
  return 0;
}

RefineState::RefineState(const Hypergraph& g, std::vector<NodeId>& part,
                         int num_nodes, RefineBuffers& buffers)
    : g_(g),
      part_(part),
      num_nodes_(num_nodes),
      load_(static_cast<std::size_t>(num_nodes), 0.0),
      nets_(g, part, buffers) {
  const auto n = static_cast<std::size_t>(g.n);
  const std::size_t cells = n * static_cast<std::size_t>(num_nodes);
  buffers.rows.resize(cells);
  buffers.base.resize(n);
  buffers.total.resize(n);
  rows_ = buffers.rows.data();
  base_ = buffers.base.data();
  total_ = buffers.total.data();
  std::fill_n(rows_, cells, Gain{0.0, 0.0});
  std::fill_n(base_, n, 0.0);
  std::fill_n(total_, n, 0.0);
  for (int v = 0; v < g.n; ++v) load_[part[v]] += g.vweight[v];
  // Nets in ascending order feed each pin's row one term per node per
  // net: the incident-net order and sums a from-scratch evaluation of the
  // vertex gives, while the slots are read sequentially.
  for (int e = 0; e < g.num_nets(); ++e) {
    const double w = g.eweight[e];
    const double share = g.share(e);
    const std::span<const NetState::Slot> slots = nets_.slots(e);
    for (int x : g.net(e)) {
      Gain* row = rows_ + static_cast<std::size_t>(x) * num_nodes_;
      const NodeId current = part[x];
      total_[x] += w;
      for (const auto& [k, count] : slots) {
        if (k == current && count == 1) base_[x] += w;
        row[k].present += w;
        row[k].aux += share * count;
      }
      row[current].aux -= share;  // x is not its own co-member
    }
  }
}

void RefineState::move(int v, NodeId to) {
  const NodeId from = part_[v];
  load_[from] -= g_.vweight[v];
  load_[to] += g_.vweight[v];
  part_[v] = to;
  for (int e : g_.nets_of(v)) {
    const auto [at_from, at_to] = nets_.move(e, from, to);
    const double w = g_.eweight[e];
    const double share = g_.share(e);
    for (int x : g_.net(e)) {
      Gain* row = rows_ + static_cast<std::size_t>(x) * num_nodes_;
      if (at_from == 1) row[from].present -= w;  // e leaves `from`
      if (at_to == 0) row[to].present += w;      // e reaches `to`
      if (x == v) continue;
      row[from].aux -= share;
      row[to].aux += share;
      if (part_[x] == from && at_from == 2)
        base_[x] += w;  // x is now e's last pin on `from`
      else if (part_[x] == to && at_to == 1)
        base_[x] -= w;  // v joins x, which was alone on `to`
    }
    if (at_to == 0) base_[v] += w;
    if (at_from == 1) base_[v] -= w;
  }
}

}  // namespace detail

namespace {

using detail::ContractScratch;
using detail::Hypergraph;
using detail::Incidence;
using detail::Level;
using detail::RefineBuffers;
using detail::RefineState;

/// Level 0, shared read-only by the restarts: the instance's hyperedges
/// read in place (or, without them, the pairwise view lifted into 2-pin
/// nets) with incidence lists built once.
class Base {
 public:
  explicit Base(const CcaInstance& instance) {
    level_.pin.resize(static_cast<std::size_t>(instance.num_objects()));
    for (int i = 0; i < instance.num_objects(); ++i)
      level_.pin[i] = instance.pinned_node(i);
    if (instance.has_hyperedges()) {
      // set_hyperedges already canonicalized (sorted distinct pins, >= 2,
      // duplicates merged).
      const Hyperedges& edges = instance.hyperedges();
      view_.pins = edges.pins();
      view_.net_begin = edges.offsets();
      view_.eweight = edges.weights();
    } else {
      lift_pairs(instance.pairs());
      view_ = level_.view();
    }
    view_.n = instance.num_objects();
    view_.vweight = instance.object_sizes();
    view_.pin = level_.pin;
    incidence_.reserve(static_cast<std::size_t>(view_.n), view_.pins.size());
    incidence_.attach(view_);
  }
  Base(const Base&) = delete;
  Base& operator=(const Base&) = delete;

  const Hypergraph& view() const { return view_; }

 private:
  /// Pairwise fallback: each pair is a 2-pin net of weight r*w, so
  /// lambda - 1 reduces to the paper's cut objective and the partitioner
  /// acts as the Golab-style graph partitioner. Pairs sort by (i, j) and
  /// equal pairs merge, their costs summed in input order.
  void lift_pairs(const std::vector<PairWeight>& pairs) {
    struct Keyed {
      std::uint64_t key;  // i << 32 | j, i < j
      double cost;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(pairs.size());
    for (const PairWeight& p : pairs)
      if (p.cost() > 0.0)
        keyed.push_back({static_cast<std::uint64_t>(p.i) << 32 |
                             static_cast<std::uint32_t>(p.j),
                         p.cost()});
    common::radix_sort(std::span<Keyed>(keyed),
                       [](const Keyed& k) { return k.key; });
    level_.reserve(keyed.size(), 2 * keyed.size());
    for (std::size_t i = 0; i < keyed.size();) {
      double weight = keyed[i].cost;
      std::size_t j = i + 1;
      for (; j < keyed.size() && keyed[j].key == keyed[i].key; ++j)
        weight += keyed[j].cost;
      const int pins[] = {static_cast<int>(keyed[i].key >> 32),
                          static_cast<int>(keyed[i].key & 0xFFFFFFFFu)};
      level_.add_net(pins, weight);
      i = j;
    }
  }

  Level level_;  // the pins, and the lifted pairs' nets
  Incidence incidence_;
  Hypergraph view_;
};

/// Heavy-edge matching on pin co-membership, then contraction into
/// `coarse`. Fills coarse_of (fine vertex -> coarse vertex). Pinned
/// vertices only merge with vertices of the same (or no) pin; no match may
/// create a coarse vertex heavier than `max_weight`, or contracted blobs
/// outgrow node capacity and refinement can never rebalance them. Returns
/// false, contracting nothing, when matching stalls (no vertex merged).
bool coarsen(const Hypergraph& g, common::Rng& rng, double max_weight,
             std::vector<int>& coarse_of, ContractScratch& scratch,
             Level& coarse) {
  static common::Timer& timer =
      common::MetricsRegistry::global().timer("core.hypergraph.coarsen");
  const common::ScopedTimer scoped(timer);

  std::vector<int> order(static_cast<std::size_t>(g.n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = g.n - 1; i > 0; --i)
    std::swap(order[i],
              order[rng.next_below(static_cast<std::uint64_t>(i + 1))]);

  std::vector<int> match(static_cast<std::size_t>(g.n), -1);
  const auto pins_compatible = [&](int a, int b) {
    return !g.pin[a] || !g.pin[b] || *g.pin[a] == *g.pin[b];
  };

  // Scratch connectivity scores, cleared per vertex via the touched list.
  std::vector<double> score(static_cast<std::size_t>(g.n), 0.0);
  std::vector<int> touched;
  for (int v : order) {
    if (match[v] >= 0) continue;
    touched.clear();
    for (int e : g.nets_of(v)) {
      // Standard hyperedge-to-edge lowering: a k-pin net of weight w
      // contributes w / (k - 1) to each co-member pair.
      const double contrib = g.share(e);
      for (int u : g.net(e)) {
        // Matched co-members cannot be picked, so they are not scored.
        if (u == v || match[u] >= 0) continue;
        if (score[u] == 0.0) touched.push_back(u);
        score[u] += contrib;
      }
    }
    int best = -1;
    double best_score = 0.0;
    for (int u : touched) {
      const double s = score[u];
      score[u] = 0.0;
      if (!pins_compatible(v, u)) continue;
      if (g.vweight[v] + g.vweight[u] > max_weight) continue;
      if (s > best_score || (s == best_score && best >= 0 && u < best)) {
        best = u;
        best_score = s;
      }
    }
    if (best >= 0) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // stays single
    }
  }

  coarse_of.assign(static_cast<std::size_t>(g.n), -1);
  for (int v = 0; v < g.n; ++v) {
    if (coarse_of[v] >= 0) continue;
    const int partner = match[v];
    const int c = static_cast<int>(coarse.vweight.size());
    coarse_of[v] = c;
    double weight = g.vweight[v];
    std::optional<NodeId> pin = g.pin[v];
    if (partner != v) {
      coarse_of[partner] = c;
      weight += g.vweight[partner];
      if (!pin) pin = g.pin[partner];
    }
    coarse.vweight.push_back(weight);
    coarse.pin.push_back(pin);
  }
  const auto coarse_n = static_cast<int>(coarse.vweight.size());
  if (coarse_n >= g.n) return false;
  detail::contract(g, coarse_of, coarse_n, scratch, coarse);
  return true;
}

/// Greedy affinity placement of a (coarse) hypergraph: big vertices
/// first, each to the node already hosting the most incident net weight
/// among nodes with room.
std::vector<NodeId> initial_partition(const Hypergraph& g,
                                      const std::vector<double>& capacities) {
  static common::Timer& timer =
      common::MetricsRegistry::global().timer("core.hypergraph.initial");
  const common::ScopedTimer scoped(timer);

  const int N = static_cast<int>(capacities.size());
  std::vector<double> remaining = capacities;
  std::vector<NodeId> part(static_cast<std::size_t>(g.n), -1);

  std::vector<int> order(static_cast<std::size_t>(g.n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (g.vweight[a] != g.vweight[b]) return g.vweight[a] > g.vweight[b];
    return a < b;
  });

  const auto place = [&](int v, NodeId k) {
    part[v] = k;
    remaining[k] -= g.vweight[v];
  };
  for (int v = 0; v < g.n; ++v)
    if (g.pin[v]) place(v, *g.pin[v]);

  std::vector<double> affinity(static_cast<std::size_t>(N));
  std::vector<char> edge_seen(static_cast<std::size_t>(N));
  for (int v : order) {
    if (part[v] >= 0) continue;
    std::fill(affinity.begin(), affinity.end(), 0.0);
    for (int e : g.nets_of(v)) {
      // A net credits each node it already touches once (lambda counts
      // distinct nodes, not pin multiplicity).
      std::fill(edge_seen.begin(), edge_seen.end(), 0);
      for (int u : g.net(e)) {
        if (part[u] < 0 || u == v) continue;
        if (!edge_seen[part[u]]) {
          edge_seen[part[u]] = 1;
          affinity[part[u]] += g.eweight[e];
        }
      }
    }
    NodeId best = -1;
    for (int k = 0; k < N; ++k) {
      if (remaining[k] < g.vweight[v]) continue;
      if (best < 0 || affinity[k] > affinity[best] ||
          (affinity[k] == affinity[best] && remaining[k] > remaining[best]))
        best = k;
    }
    if (best < 0) {  // nothing fits: least-loaded fallback
      best = 0;
      for (int k = 1; k < N; ++k)
        if (remaining[k] > remaining[best]) best = k;
    }
    place(v, best);
  }
  return part;
}

/// FM-style single-vertex refinement of the lambda-1 objective under
/// capacity, then the deterministic overflow drain.
void refine(const Hypergraph& g, const std::vector<double>& capacities,
            std::vector<NodeId>& part, int passes, common::Rng& rng,
            RefineBuffers& buffers) {
  auto& reg = common::MetricsRegistry::global();
  static common::Timer& timer = reg.timer("core.hypergraph.refine");
  static common::Counter& evaluations_counter =
      reg.counter("core.hypergraph.refine.evaluations");
  static common::Counter& moves_counter =
      reg.counter("core.hypergraph.refine.moves");
  const common::ScopedTimer scoped(timer);

  // Each vertex's gain row is built once here and then kept current by
  // every move (see RefineState), so a sweep visit reads N row entries
  // instead of re-walking the vertex's nets; most visits move nothing.
  const int N = static_cast<int>(capacities.size());
  RefineState state(g, part, N, buffers);
  const std::vector<double>& load = state.load();

  std::vector<int> order(static_cast<std::size_t>(g.n));
  std::iota(order.begin(), order.end(), 0);
  std::int64_t evaluations = 0, moves = 0;

  for (int pass = 0; pass < passes; ++pass) {
    for (int i = g.n - 1; i > 0; --i)
      std::swap(order[i],
                order[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
    bool moved = false;
    for (int v : order) {
      if (g.pin[v] || g.nets_of(v).empty()) continue;
      ++evaluations;
      const NodeId current = part[v];
      // base: weight of nets where v is the node's last pin (lambda drops
      // when v leaves). present[k]: net weight already touching node k.
      // aux[k]: clique-expansion affinity (co-member pins of v on k, each
      // weighted eweight/(|e|-1)) — a strict tie-break that lets plateau
      // moves drift pins toward their co-members so a later pass can
      // collapse the net. Moving a single pin of a 2+2 split net has zero
      // lambda gain, yet it is exactly the move that unlocks lambda=1.
      const std::span<const RefineState::Gain> row = state.row(v);
      const double base = state.base(v), total = state.total(v);
      NodeId best = current;
      double best_gain = 0.0;
      double best_aux = 0.0;  // aux gain of staying put
      for (int k = 0; k < N; ++k) {
        if (k == current) continue;
        if (load[k] + g.vweight[v] > capacities[k]) continue;
        // gain = base - (weight of nets for which k is a brand-new node)
        const double gain = base - (total - row[k].present);
        const double aux_gain = row[k].aux - row[current].aux;
        if (gain > best_gain + 1e-12 ||
            (gain > best_gain - 1e-12 && aux_gain > best_aux + 1e-12)) {
          best = k;
          best_gain = gain;
          best_aux = aux_gain;
        }
      }
      if (best != current) {
        state.move(v, best);
        ++moves;
        moved = true;
      }
    }
    if (!moved) break;
  }
  evaluations_counter.add(evaluations);
  moves_counter.add(moves);

  // Overflow drain: cheapest lambda-increase evictions first; when nothing
  // fits anywhere the smallest unpinned object spills to the least-loaded
  // node and the violation is surfaced through the metric.
  static common::Counter& capacity_violations =
      reg.counter("core.hypergraph.capacity_violations");
  std::vector<double> present(static_cast<std::size_t>(N));
  for (int k = 0; k < N; ++k) {
    while (load[k] > capacities[k]) {
      int victim = -1;
      NodeId victim_dest = -1;
      double victim_loss = 0.0;
      for (int v = 0; v < g.n; ++v) {
        if (part[v] != k || g.pin[v]) continue;
        double base = 0.0, total = 0.0;
        std::fill(present.begin(), present.end(), 0.0);
        for (int e : g.nets_of(v)) {
          const double w = g.eweight[e];
          total += w;
          for (const auto& [t, count] : state.nets().slots(e)) {
            if (t == k && count == 1) base += w;
            present[t] += w;
          }
        }
        for (int t = 0; t < N; ++t) {
          if (t == k || load[t] + g.vweight[v] > capacities[t]) continue;
          const double loss = (total - present[t]) - base;
          if (victim < 0 || loss < victim_loss) {
            victim = v;
            victim_dest = t;
            victim_loss = loss;
          }
        }
      }
      if (victim < 0) {
        int spill = -1;
        for (int v = 0; v < g.n; ++v) {
          if (part[v] != k || g.pin[v]) continue;
          if (spill < 0 || g.vweight[v] < g.vweight[spill]) spill = v;
        }
        capacity_violations.add();
        if (spill < 0 || N < 2) break;  // pinned overload: unavoidable
        NodeId dest = k == 0 ? 1 : 0;
        for (int t = 0; t < N; ++t)
          if (t != k && load[t] < load[dest]) dest = t;
        state.move(spill, dest);
      } else {
        state.move(victim, victim_dest);
      }
    }
  }
}

/// Exact objective of a base-level assignment: sum over nets of
/// weight * (distinct nodes hosting the net's pins - 1).
double lambda_cost(const Hypergraph& g, const std::vector<NodeId>& part) {
  double cost = 0.0;
  std::vector<NodeId> nodes;
  for (int e = 0; e < g.num_nets(); ++e) {
    nodes.clear();
    for (int v : g.net(e)) nodes.push_back(part[v]);
    std::sort(nodes.begin(), nodes.end());
    const auto lambda =
        std::unique(nodes.begin(), nodes.end()) - nodes.begin();
    cost += g.eweight[e] * static_cast<double>(lambda - 1);
  }
  return cost;
}

/// Worst per-node load factor of a base-level assignment (loads over the
/// instance capacities); used to rank restarts lexicographically below
/// the lambda objective so a cheap-but-overflowing V-cycle never wins.
double max_overflow(const Hypergraph& g, const std::vector<NodeId>& part,
                    const std::vector<double>& capacities) {
  std::vector<double> load(capacities.size(), 0.0);
  for (int v = 0; v < g.n; ++v) load[part[v]] += g.vweight[v];
  double worst = 0.0;
  for (std::size_t k = 0; k < capacities.size(); ++k)
    worst = std::max(worst, load[k] - capacities[k]);
  return worst;
}

/// One multilevel V-cycle (coarsen, place, uncoarsen + refine) over the
/// shared level 0. Randomness comes from `rng` alone, so each restart's
/// stream picks its own matchings and refinement orders. Restarts run
/// concurrently, so each cycle holds as little as it can: a coarse level
/// is freed as soon as its partition has been projected to the level
/// below, incidence lists exist only for the level being worked on, and
/// the contraction scratch lives only while coarsening and the refine
/// buffers only while uncoarsening. Every scratch buffer is reserved once
/// at level-0 size and resized per level, so a cycle maps each of them
/// once and backs only the pages its largest level writes.
std::vector<NodeId> run_vcycle(const Hypergraph& base,
                               const std::vector<double>& capacities,
                               double max_vertex_weight,
                               const HypergraphOptions& options,
                               common::Rng& rng,
                               common::Histogram& level_count) {
  std::vector<Level> coarse;           // coarse[l]: level l + 1
  std::vector<std::vector<int>> maps;  // maps[l]: level l -> level l + 1
  Incidence incidence;                 // of the coarse level in use
  incidence.reserve(static_cast<std::size_t>(base.n), base.pins.size());
  Hypergraph finest = base;
  {
    ContractScratch scratch;
    scratch.reserve(static_cast<std::size_t>(base.num_nets()),
                    base.pins.size());
    while (finest.n > options.coarsen_to) {
      std::vector<int> coarse_of;
      Level next;
      if (!coarsen(finest, rng, max_vertex_weight, coarse_of, scratch, next))
        break;  // matching stalled
      maps.push_back(std::move(coarse_of));
      coarse.push_back(std::move(next));
      finest = coarse.back().view();
      scratch.trim(static_cast<std::size_t>(finest.num_nets()),
                   finest.pins.size());
      incidence.attach(finest);
    }
  }
  level_count.observe(coarse.size() + 1);

  const int num_nodes = static_cast<int>(capacities.size());
  RefineBuffers buffers;
  buffers.reserve(base, num_nodes);
  std::vector<NodeId> part = initial_partition(finest, capacities);
  refine(finest, capacities, part, options.refinement_passes, rng, buffers);

  for (std::size_t l = maps.size(); l-- > 0;) {
    Hypergraph fine = l == 0 ? base : coarse[l - 1].view();
    std::vector<NodeId> fine_part(static_cast<std::size_t>(fine.n));
    for (int v = 0; v < fine.n; ++v) fine_part[v] = part[maps[l][v]];
    part = std::move(fine_part);
    coarse.resize(l);  // keeps level l itself: coarse[l - 1] stays put
    maps.resize(l);
    if (l > 0)
      incidence.attach(fine);
    else
      incidence = Incidence();  // level 0's lists are shared
    refine(fine, capacities, part, options.refinement_passes, rng, buffers);
  }
  return part;
}

}  // namespace

Placement hypergraph_placement(const CcaInstance& instance,
                               const HypergraphOptions& options) {
  CCA_CHECK(options.coarsen_to >= 2);
  CCA_CHECK(options.restarts >= 1);
  auto& reg = common::MetricsRegistry::global();
  static common::Counter& runs = reg.counter("core.hypergraph.runs");
  static common::Histogram& level_count =
      reg.histogram("core.hypergraph.levels");
  runs.add();

  const Base base(instance);
  const std::vector<double>& capacities = instance.node_capacities();
  double min_capacity = instance.node_capacity(0);
  for (int k = 1; k < instance.num_nodes(); ++k)
    min_capacity = std::min(min_capacity, instance.node_capacity(k));
  // Coarse vertices stay well under a node so the initial partition can
  // always bin-pack them (the METIS max-vertex-weight rule).
  const double max_vertex_weight = 0.4 * min_capacity;

  // Restarted V-cycles: heavy-edge matching is greedy and seed-sensitive,
  // so a handful of independent cycles scored on the EXACT objective is
  // far more robust than any single tuned cycle. The cycles run on the
  // pool, each from its own named stream "core.hypergraph.r<i>", so cycle
  // i depends only on (seed, i): the result is the same for any thread
  // count, and adding restarts never changes the earlier cycles.
  struct Cycle {
    std::vector<NodeId> part;
    double cost = 0.0;
    double over = 0.0;
  };
  const std::vector<Cycle> cycles = common::parallel_map(
      static_cast<std::size_t>(options.restarts), [&](std::size_t r) {
        common::Rng rng(common::named_stream_seed(
            options.seed, "core.hypergraph.r" + std::to_string(r)));
        Cycle cycle;
        cycle.part = run_vcycle(base.view(), capacities, max_vertex_weight,
                                options, rng, level_count);
        cycle.cost = lambda_cost(base.view(), cycle.part);
        cycle.over = max_overflow(base.view(), cycle.part, capacities);
        return cycle;
      });
  // Feasibility ranks above cost so an overflowing cycle never beats a
  // feasible one; ties go to the lower restart index.
  const Cycle* best = &cycles[0];
  for (const Cycle& cycle : cycles)
    if (cycle.over < best->over - 1e-12 ||
        (cycle.over < best->over + 1e-12 && cycle.cost < best->cost))
      best = &cycle;
  return best->part;
}

double trace_lambda_cost(const trace::QueryTrace& trace,
                         const std::vector<NodeId>& keyword_to_node) {
  if (trace.empty()) return 0.0;
  double total = 0.0;
  std::vector<NodeId> nodes;
  for (const trace::Query& q : trace.queries()) {
    nodes.clear();
    for (const trace::KeywordId k : q.keywords) {
      CCA_CHECK_MSG(k < keyword_to_node.size(),
                    "trace keyword " << k << " outside the placed vocabulary");
      nodes.push_back(keyword_to_node[k]);
    }
    std::sort(nodes.begin(), nodes.end());
    const auto lambda =
        std::unique(nodes.begin(), nodes.end()) - nodes.begin();
    total += static_cast<double>(lambda - 1);
  }
  return total / static_cast<double>(trace.size());
}

}  // namespace cca::core
