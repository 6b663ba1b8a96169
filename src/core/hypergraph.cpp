#include "core/hypergraph.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/lex_order.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"

namespace cca::core {

namespace {

/// Working hypergraph at one level of the multilevel hierarchy, in CSR
/// form: net e's pins are pins[net_begin[e], net_begin[e+1]) and vertex
/// v's incident nets are incident[inc_begin[v], inc_begin[v+1]), in
/// ascending net order.
struct Hypergraph {
  int n = 0;
  std::vector<double> vweight;                // object bytes
  std::vector<std::optional<NodeId>> pin;     // placement pins (fixed node)
  std::vector<int> pins;                      // nets' distinct vertices
  std::vector<int> net_begin{0};
  std::vector<double> eweight;                // net -> rate weight
  std::vector<int> incident;                  // vertices' incident net ids
  std::vector<int> inc_begin;

  int num_nets() const { return static_cast<int>(eweight.size()); }
  int net_size(int e) const { return net_begin[e + 1] - net_begin[e]; }
  std::span<const int> net(int e) const {
    return {pins.data() + net_begin[e], pins.data() + net_begin[e + 1]};
  }
  std::span<const int> nets_of(int v) const {
    return {incident.data() + inc_begin[v],
            incident.data() + inc_begin[v + 1]};
  }

  void add_net(std::span<const int> vertices, double weight) {
    pins.insert(pins.end(), vertices.begin(), vertices.end());
    net_begin.push_back(static_cast<int>(pins.size()));
    eweight.push_back(weight);
  }

  void build_incidence() {
    inc_begin.assign(static_cast<std::size_t>(n) + 1, 0);
    for (int v : pins) ++inc_begin[v + 1];
    std::partial_sum(inc_begin.begin(), inc_begin.end(), inc_begin.begin());
    incident.resize(pins.size());
    std::vector<int> next(inc_begin.begin(), inc_begin.end() - 1);
    for (int e = 0; e < num_nets(); ++e)
      for (int v : net(e)) incident[next[v]++] = e;
  }
};

Hypergraph build_base(const CcaInstance& instance) {
  Hypergraph g;
  g.n = instance.num_objects();
  g.vweight = instance.object_sizes();
  g.pin.resize(static_cast<std::size_t>(g.n));
  for (int i = 0; i < g.n; ++i) g.pin[i] = instance.pinned_node(i);

  if (instance.has_hyperedges()) {
    // set_hyperedges already canonicalized (sorted distinct pins, >= 2,
    // duplicates merged).
    for (const Hyperedge& e : instance.hyperedges())
      g.add_net(e.pins, e.weight);
  } else {
    // Pairwise fallback: each pair is a 2-pin net of weight r*w, so
    // lambda - 1 reduces to the paper's cut objective and the partitioner
    // acts as the Golab-style graph partitioner.
    std::map<std::pair<int, int>, double> edges;
    for (const PairWeight& p : instance.pairs()) {
      if (p.cost() <= 0.0) continue;
      edges[{p.i, p.j}] += p.cost();
    }
    for (const auto& [key, weight] : edges) {
      const int pins[] = {key.first, key.second};
      g.add_net(pins, weight);
    }
  }
  g.build_incidence();
  return g;
}

/// Heavy-edge matching on pin co-membership + contraction. Fills
/// coarse_of (fine vertex -> coarse vertex). Pinned vertices only merge
/// with vertices of the same (or no) pin; no match may create a coarse
/// vertex heavier than `max_weight`, or contracted blobs outgrow node
/// capacity and refinement can never rebalance them.
Hypergraph coarsen(const Hypergraph& g, common::Rng& rng, double max_weight,
                   std::vector<int>& coarse_of) {
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
      const double contrib =
          g.eweight[e] / static_cast<double>(g.net_size(e) - 1);
      for (int u : g.net(e)) {
        if (u == v) continue;
        if (score[u] == 0.0) touched.push_back(u);
        score[u] += contrib;
      }
    }
    int best = -1;
    double best_score = 0.0;
    for (int u : touched) {
      const double s = score[u];
      score[u] = 0.0;
      if (match[u] >= 0 || !pins_compatible(v, u)) continue;
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
  Hypergraph coarse;
  for (int v = 0; v < g.n; ++v) {
    if (coarse_of[v] >= 0) continue;
    const int partner = match[v];
    const int c = coarse.n++;
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

  // Net contraction/dedup: remap pins (sorted, distinct), drop collapsed
  // single-pin nets, then merge nets whose coarse pin sets coincide.
  // Sorting by pin set and merging adjacent runs emits the merged nets in
  // lexicographic pin-set order and sums each run's weights in fine-net
  // order, so the result is deterministic.
  Hypergraph contracted;  // surviving nets in fine-net order, unmerged
  std::vector<int> pins;
  for (int e = 0; e < g.num_nets(); ++e) {
    pins.clear();
    for (int v : g.net(e)) pins.push_back(coarse_of[v]);
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) continue;  // contracted away
    contracted.add_net(pins, g.eweight[e]);
  }
  const auto net = [&](std::size_t i) {
    return contracted.net(static_cast<int>(i));
  };
  const std::vector<std::size_t> by_pins =
      common::lexicographic_order(contracted.eweight.size(), net);
  coarse.pins.reserve(contracted.pins.size());
  for (std::size_t i = 0; i < by_pins.size();) {
    double weight = contracted.eweight[by_pins[i]];
    std::size_t j = i + 1;
    for (; j < by_pins.size() && std::ranges::equal(net(by_pins[j]),
                                                    net(by_pins[i]));
         ++j)
      weight += contracted.eweight[by_pins[j]];
    coarse.add_net(net(by_pins[i]), weight);
    i = j;
  }
  coarse.build_incidence();
  return coarse;
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

/// Per-net refinement state, one record per net so the gain loop reads
/// one record per incident net: the net's weight, its co-member share
/// weight/(|e|-1) (the clique-expansion weight of each pin pair), and the
/// pin counts Phi(e,k) — pins of net e on node k — stored sparsely. Net
/// e owns |e| slots from g.net_begin[e] on (enough for every node it can
/// touch); the first lambda(e) hold one (node, count) pair per node the
/// net touches, and a slot whose count drops to 0 is swap-removed, so
/// walking a net's slots costs lambda(e), not N.
class NetState {
 public:
  struct Slot {
    NodeId node;
    int count;
  };
  struct Net {
    double weight;
    double share;
    int first;   // first slot
    int lambda;  // live slots
  };

  NetState(const Hypergraph& g, const std::vector<NodeId>& part)
      : nets_(static_cast<std::size_t>(g.num_nets())), slots_(g.pins.size()) {
    for (int e = 0; e < g.num_nets(); ++e) {
      nets_[e] = {g.eweight[e],
                  g.eweight[e] / static_cast<double>(
                                     std::max(g.net_size(e) - 1, 1)),
                  g.net_begin[e], 0};
      for (int v : g.net(e)) add(nets_[e], part[v]);
    }
  }

  const Net& net(int e) const { return nets_[e]; }

  /// The nodes a net touches, with their pin counts, in no fixed order.
  std::span<const Slot> slots(const Net& net) const {
    return {slots_.data() + net.first, static_cast<std::size_t>(net.lambda)};
  }

  /// Moves one of net e's pins from node `from` to node `to`.
  void move(int e, NodeId from, NodeId to) {
    Net& net = nets_[e];
    Slot* s = find(net, from);
    if (--s->count == 0) *s = slots_[net.first + --net.lambda];
    add(net, to);
  }

 private:
  Slot* find(const Net& net, NodeId k) {
    Slot* s = slots_.data() + net.first;
    for (Slot* end = s + net.lambda; s < end; ++s)
      if (s->node == k) return s;
    return nullptr;
  }

  void add(Net& net, NodeId k) {
    if (Slot* s = find(net, k))
      ++s->count;
    else
      slots_[net.first + net.lambda++] = {k, 1};
  }

  std::vector<Net> nets_;
  std::vector<Slot> slots_;
};

/// FM-style single-vertex refinement of the lambda-1 objective under
/// capacity, then the deterministic overflow drain.
void refine(const Hypergraph& g, const std::vector<double>& capacities,
            std::vector<NodeId>& part, int passes, common::Rng& rng) {
  static common::Timer& timer =
      common::MetricsRegistry::global().timer("core.hypergraph.refine");
  const common::ScopedTimer scoped(timer);

  const int N = static_cast<int>(capacities.size());
  std::vector<double> load(static_cast<std::size_t>(N), 0.0);
  for (int v = 0; v < g.n; ++v) load[part[v]] += g.vweight[v];

  // Moving v from a to b changes a net's lambda by
  // [Phi(e,b)==0] - [Phi(e,a)==1], so with sparse pin counts a vertex's
  // move gains cost O(sum of lambda over its nets) to evaluate and
  // O(degree * lambda) to apply. Each node receives at most one term per
  // net, in incident-net order, whatever the slot order.
  NetState nets(g, part);

  std::vector<int> order(static_cast<std::size_t>(g.n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> present(static_cast<std::size_t>(N));
  std::vector<double> aux(static_cast<std::size_t>(N));

  const auto apply_move = [&](int v, NodeId from, NodeId to) {
    load[from] -= g.vweight[v];
    load[to] += g.vweight[v];
    part[v] = to;
    for (int e : g.nets_of(v)) nets.move(e, from, to);
  };

  for (int pass = 0; pass < passes; ++pass) {
    for (int i = g.n - 1; i > 0; --i)
      std::swap(order[i],
                order[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
    bool moved = false;
    for (int v : order) {
      if (g.pin[v] || g.nets_of(v).empty()) continue;
      const NodeId current = part[v];
      // base: weight of nets where v is the node's last pin (lambda drops
      // when v leaves). present[k]: net weight already touching node k.
      // aux[k]: clique-expansion affinity (co-member pins of v on k, each
      // weighted eweight/(|e|-1)) — a strict tie-break that lets plateau
      // moves drift pins toward their co-members so a later pass can
      // collapse the net. Moving a single pin of a 2+2 split net has zero
      // lambda gain, yet it is exactly the move that unlocks lambda=1.
      double base = 0.0, total = 0.0;
      std::fill(present.begin(), present.end(), 0.0);
      std::fill(aux.begin(), aux.end(), 0.0);
      for (int e : g.nets_of(v)) {
        const NetState::Net& net = nets.net(e);
        const double w = net.weight;
        total += w;
        for (const auto& [k, count] : nets.slots(net)) {
          if (k == current && count == 1) base += w;
          present[k] += w;
          aux[k] += net.share * count;
        }
        aux[current] -= net.share;  // do not count v as its own co-member
      }
      NodeId best = current;
      double best_gain = 0.0;
      double best_aux = 0.0;  // aux gain of staying put
      for (int k = 0; k < N; ++k) {
        if (k == current) continue;
        if (load[k] + g.vweight[v] > capacities[k]) continue;
        // gain = base - (weight of nets for which k is a brand-new node)
        const double gain = base - (total - present[k]);
        const double aux_gain = aux[k] - aux[current];
        if (gain > best_gain + 1e-12 ||
            (gain > best_gain - 1e-12 && aux_gain > best_aux + 1e-12)) {
          best = k;
          best_gain = gain;
          best_aux = aux_gain;
        }
      }
      if (best != current) {
        apply_move(v, current, best);
        moved = true;
      }
    }
    if (!moved) break;
  }

  // Overflow drain, mirroring multilevel's repaired rebalance pass:
  // cheapest lambda-increase evictions first; when nothing fits anywhere
  // the smallest unpinned object spills to the least-loaded node and the
  // violation is surfaced through the metric.
  static common::Counter& capacity_violations =
      common::MetricsRegistry::global().counter(
          "core.hypergraph.capacity_violations");
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
          const NetState::Net& net = nets.net(e);
          const double w = net.weight;
          total += w;
          for (const auto& [t, count] : nets.slots(net)) {
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
        apply_move(spill, k, dest);
      } else {
        apply_move(victim, k, victim_dest);
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
/// prebuilt base hypergraph, which serves as level 0 without a copy.
/// Randomness comes from `rng`, so successive calls explore different
/// matchings and refinement orders.
std::vector<NodeId> run_vcycle(const Hypergraph& base,
                               const std::vector<double>& capacities,
                               double max_vertex_weight,
                               const HypergraphOptions& options,
                               common::Rng& rng,
                               common::Histogram& level_count) {
  std::vector<Hypergraph> coarse;      // coarse[l]: level l + 1
  std::vector<std::vector<int>> maps;  // maps[l]: level l -> level l + 1
  const auto level = [&](std::size_t l) -> const Hypergraph& {
    return l == 0 ? base : coarse[l - 1];
  };
  while (level(coarse.size()).n > options.coarsen_to) {
    const Hypergraph& finest = level(coarse.size());
    std::vector<int> coarse_of;
    Hypergraph next = coarsen(finest, rng, max_vertex_weight, coarse_of);
    if (next.n >= finest.n) break;  // matching stalled
    maps.push_back(std::move(coarse_of));
    coarse.push_back(std::move(next));
  }
  level_count.observe(coarse.size() + 1);

  std::vector<NodeId> part = initial_partition(level(coarse.size()), capacities);
  refine(level(coarse.size()), capacities, part, options.refinement_passes,
         rng);

  for (std::size_t l = maps.size(); l-- > 0;) {
    const Hypergraph& fine = level(l);
    std::vector<NodeId> fine_part(static_cast<std::size_t>(fine.n));
    for (int v = 0; v < fine.n; ++v) fine_part[v] = part[maps[l][v]];
    part = std::move(fine_part);
    refine(fine, capacities, part, options.refinement_passes, rng);
  }
  return part;
}

}  // namespace

Placement hypergraph_placement(const CcaInstance& instance,
                               const HypergraphOptions& options) {
  CCA_CHECK(options.coarsen_to >= 2);
  CCA_CHECK(options.restarts >= 1);
  // Named stream: one user seed drives multilevel AND hypergraph in the
  // same bench process without replaying a shared random sequence.
  common::Rng rng(common::named_stream_seed(options.seed, "core.hypergraph"));
  auto& reg = common::MetricsRegistry::global();
  static common::Counter& runs = reg.counter("core.hypergraph.runs");
  static common::Histogram& level_count =
      reg.histogram("core.hypergraph.levels");
  runs.add();

  const Hypergraph base = build_base(instance);
  const std::vector<double>& capacities = instance.node_capacities();
  double min_capacity = instance.node_capacity(0);
  for (int k = 1; k < instance.num_nodes(); ++k)
    min_capacity = std::min(min_capacity, instance.node_capacity(k));
  // Coarse vertices stay well under a node so the initial partition can
  // always bin-pack them (the METIS max-vertex-weight rule).
  const double max_vertex_weight = 0.4 * min_capacity;

  // Restarted V-cycles: heavy-edge matching is greedy and seed-sensitive,
  // so a handful of independent cycles scored on the EXACT objective is
  // far more robust than any single tuned cycle. Restarts draw from one
  // sequential rng stream, keeping the whole search deterministic per
  // seed. Feasibility ranks above cost so an overflowing cycle never
  // beats a feasible one.
  std::vector<NodeId> best;
  double best_cost = 0.0, best_over = 0.0;
  for (int r = 0; r < options.restarts; ++r) {
    std::vector<NodeId> part = run_vcycle(base, capacities, max_vertex_weight,
                                          options, rng, level_count);
    const double cost = lambda_cost(base, part);
    const double over = max_overflow(base, part, capacities);
    if (best.empty() || over < best_over - 1e-12 ||
        (over < best_over + 1e-12 && cost < best_cost)) {
      best = std::move(part);
      best_cost = cost;
      best_over = over;
    }
  }
  return best;
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
