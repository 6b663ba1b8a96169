// Internals of the hypergraph partitioner (core/hypergraph.cpp), exposed
// only so tests can drive its refinement state directly. Not part of the
// library's interface.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/page_allocator.hpp"
#include "core/instance.hpp"

namespace cca::core::detail {

/// Working hypergraph at one level of the multilevel hierarchy, in CSR
/// form: net e's pins are pins[net_begin[e], net_begin[e+1]) and vertex
/// v's incident nets are incident[inc_begin[v], inc_begin[v+1]), in
/// ascending net order. The incidence lists are built only while a level
/// is being coarsened or refined. The per-pin and per-net arrays are
/// page-mapped: restarts build their levels concurrently on pool workers
/// (see common/page_allocator.hpp).
struct Hypergraph {
  int n = 0;
  std::vector<double> vweight;                // object bytes
  std::vector<std::optional<NodeId>> pin;     // placement pins (fixed node)
  common::PagedVector<int> pins;              // nets' distinct vertices
  common::PagedVector<int> net_begin{0};
  common::PagedVector<double> eweight;        // net -> rate weight
  common::PagedVector<int> incident;          // vertices' incident net ids
  std::vector<int> inc_begin;

  int num_nets() const { return static_cast<int>(eweight.size()); }
  int net_size(int e) const { return net_begin[e + 1] - net_begin[e]; }
  /// Clique-expansion weight of each pin pair of net e: weight/(|e|-1).
  double share(int e) const {
    return eweight[e] / static_cast<double>(std::max(net_size(e) - 1, 1));
  }
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

  void drop_incidence() {
    incident.clear();
    incident.shrink_to_fit();
    inc_begin.clear();
    inc_begin.shrink_to_fit();
  }
};

/// Per-net refinement state: the pin counts Phi(e,k) — pins of net e on
/// node k — stored sparsely. Net e owns |e| slots from g.net_begin[e] on
/// (enough for every node it can touch); the first lambda(e) hold one
/// (node, count) pair per node the net touches, and a slot whose count
/// drops to 0 is swap-removed, so walking a net's slots costs lambda(e),
/// not N. Weights and slot offsets are read from the hypergraph, leaving
/// four bytes per net here.
class NetState {
 public:
  struct Slot {
    NodeId node;
    int count;
  };

  NetState(const Hypergraph& g, const std::vector<NodeId>& part);

  /// The nodes net e touches, with their pin counts, in no fixed order.
  std::span<const Slot> slots(int e) const {
    return {slots_.data() + g_.net_begin[e],
            static_cast<std::size_t>(lambda_[e])};
  }

  /// Moves one of net e's pins from node `from` to node `to`; returns
  /// (Phi(e,from), Phi(e,to)) as they were before the move.
  std::pair<int, int> move(int e, NodeId from, NodeId to);

 private:
  Slot* find(int e, NodeId k);
  /// Adds one pin on node k to net e; returns Phi(e,k) before the add.
  int add(int e, NodeId k);

  const Hypergraph& g_;
  common::PagedVector<int> lambda_;  // live slots per net
  common::PagedVector<Slot> slots_;
};

/// Refinement state of one level: the assignment, the node loads, the pin
/// counts and one gain row per vertex, all kept consistent by move().
///
/// Vertex x's row, over x's incident nets e (weight w, share s = w/(|e|-1)):
///   present[k] = sum of w over nets touching node k (Phi(e,k) >= 1);
///   aux[k]     = sum of s * (Phi(e,k) - [k == part[x]]): the clique-
///                expansion affinity of x's co-members on k, x excluded;
///   base       = sum of w over nets where x is its node's only pin;
///   total      = sum of w.
/// Moving x to node k then changes the lambda-1 cost by
/// -(base - (total - present[k])). A move of u from a to b walks u's nets
/// once and, per net, updates each pin's row from (Phi(e,a), Phi(e,b)):
/// present at a and b when the slot empties or opens, aux at a and b for
/// every pin but u (u's own row is unchanged by its move, since it leaves
/// a and joins b), and base only for u, for pins left alone on a
/// (Phi(e,a) was 2) and for the pin no longer alone on b (Phi(e,b) was 1).
class RefineState {
 public:
  struct Gain {
    double present;
    double aux;
  };

  /// Builds the pin counts, the loads and every row from `part`, which
  /// the state then updates in place.
  RefineState(const Hypergraph& g, std::vector<NodeId>& part, int num_nodes);

  const std::vector<double>& load() const { return load_; }
  const NetState& nets() const { return nets_; }
  std::span<const Gain> row(int v) const {
    return {rows_.data() + static_cast<std::size_t>(v) * num_nodes_,
            static_cast<std::size_t>(num_nodes_)};
  }
  double base(int v) const { return base_[v]; }
  double total(int v) const { return total_[v]; }

  /// Moves vertex v to node `to`, which must differ from part[v].
  void move(int v, NodeId to);

 private:
  const Hypergraph& g_;
  std::vector<NodeId>& part_;
  int num_nodes_;
  std::vector<double> load_;
  NetState nets_;
  common::PagedVector<Gain> rows_;  // n x num_nodes, row-major
  common::PagedVector<double> base_;
  common::PagedVector<double> total_;
};

}  // namespace cca::core::detail
