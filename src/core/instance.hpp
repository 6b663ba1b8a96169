// The Capacity-Constrained Assignment (CCA) problem instance — Sec. 2.1.
//
// Given objects T with sizes s(i), nodes N with capacities c(k), sparse
// pair correlations r(i, j) and pair communication costs w(i, j), find a
// placement f : T -> N minimizing
//
//     sum_{(i,j): f(i) != f(j)}  r(i,j) * w(i,j)
//
// subject to  sum_{i: f(i)=k} s(i) <= c(k)  for every node k.
//
// Instances may pin objects to nodes (f(i) fixed), which models the
// minimum n-way-cut reduction of Theorem 1 and lets tests exercise the
// non-degenerate regime of the LP relaxation.
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace cca::core {

using ObjectId = int;
using NodeId = int;

/// One correlated pair with its communication model: `r` is the
/// co-request probability, `w` the bytes moved when the pair is split.
struct PairWeight {
  ObjectId i = 0;
  ObjectId j = 0;
  double r = 0.0;
  double w = 0.0;

  /// Contribution to the objective when the pair is separated.
  double cost() const { return r * w; }
};

/// A complete (integral) placement: object index -> node index.
using Placement = std::vector<NodeId>;

/// One multi-object operation as a *hyperedge*: the distinct objects it
/// touches (pins, sorted ascending) and its rate weight (how often the
/// operation runs). Under a placement the edge costs
/// weight * (lambda - 1), where lambda is the number of distinct nodes
/// its pins land on — the connectivity-minus-one objective of multilevel
/// hypergraph partitioning. Pairwise correlations are the 2-pin special
/// case; keeping the full pin set avoids the two-smallest-objects
/// approximation that degrades as operations grow past ~2 objects.
struct Hyperedge {
  std::vector<ObjectId> pins;
  double weight = 0.0;

  int degree() const { return static_cast<int>(pins.size()); }
};

/// One installed hyperedge, read in place from the instance's store.
struct HyperedgeRef {
  std::span<const ObjectId> pins;
  double weight = 0.0;

  int degree() const { return static_cast<int>(pins.size()); }
  /// A copy in the input form, owning its pins.
  operator Hyperedge() const { return {{pins.begin(), pins.end()}, weight}; }
};

/// The installed hyperedges as one CSR: edge e's pins are
/// pins()[offsets()[e], offsets()[e + 1]) and its weight weights()[e].
/// Three arrays instead of one heap vector per edge; the hypergraph
/// partitioner reads them in place as its finest level.
class Hyperedges {
 public:
  class Iterator {
   public:
    using value_type = HyperedgeRef;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const Hyperedges* edges, std::size_t e) : edges_(edges), e_(e) {}
    HyperedgeRef operator*() const { return (*edges_)[e_]; }
    Iterator& operator++() {
      ++e_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++e_;
      return before;
    }
    bool operator==(const Iterator& other) const { return e_ == other.e_; }

   private:
    const Hyperedges* edges_ = nullptr;
    std::size_t e_ = 0;
  };

  std::size_t size() const { return weights_.size(); }
  bool empty() const { return weights_.empty(); }
  HyperedgeRef operator[](std::size_t e) const {
    return {{pins_.data() + offsets_[e], pins_.data() + offsets_[e + 1]},
            weights_[e]};
  }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

  std::span<const ObjectId> pins() const { return pins_; }
  /// size() + 1 entries, from 0 to pins().size().
  std::span<const int> offsets() const { return offsets_; }
  std::span<const double> weights() const { return weights_; }

 private:
  friend class CcaInstance;
  std::vector<ObjectId> pins_;
  std::vector<int> offsets_{0};
  std::vector<double> weights_;
};

/// An additional per-node capacity dimension (Sec. 3.3): e.g. network
/// bandwidth or CPU. Each object demands `demands[i]` of the resource;
/// each node offers `capacities[k]`. Handled exactly like storage: one
/// more row family in the LP, one more check everywhere else.
struct Resource {
  std::string name;
  std::vector<double> demands;     // indexed by object
  std::vector<double> capacities;  // indexed by node
};

class CcaInstance {
 public:
  CcaInstance(std::vector<double> object_sizes,
              std::vector<double> node_capacities,
              std::vector<PairWeight> pairs);

  int num_objects() const { return static_cast<int>(sizes_.size()); }
  int num_nodes() const { return static_cast<int>(capacities_.size()); }
  double object_size(ObjectId i) const { return sizes_[i]; }
  double node_capacity(NodeId k) const { return capacities_[k]; }
  const std::vector<double>& object_sizes() const { return sizes_; }
  const std::vector<double>& node_capacities() const { return capacities_; }
  const std::vector<PairWeight>& pairs() const { return pairs_; }

  double total_object_size() const { return total_size_; }

  /// Pins object `i` to node `k`: every feasible placement must honour it.
  void pin(ObjectId i, NodeId k);
  std::optional<NodeId> pinned_node(ObjectId i) const { return pins_[i]; }
  bool has_pins() const { return num_pins_ > 0; }

  /// Adds an extra capacity dimension (Sec. 3.3). Vector lengths must
  /// match the object / node counts; all values must be non-negative.
  void add_resource(Resource resource);
  const std::vector<Resource>& resources() const { return resources_; }

  /// Installs the whole-operation view of the workload: one weighted
  /// hyperedge per distinct multi-object operation. Pins are validated,
  /// deduplicated, and sorted; edges left with fewer than two pins are
  /// dropped (a single-object operation never communicates); identical
  /// pin sets merge, weights summed. Pairwise `pairs()` stay untouched —
  /// strategies choose which view they optimize.
  void set_hyperedges(std::vector<Hyperedge> edges);
  /// The same for edges given as one flat CSR: edge e has the pins
  /// pins[pins_begin[e], pins_begin[e + 1]) and weight weights[e]. Spares
  /// a caller with many small edges one heap vector per edge. Duplicate
  /// pin sets sum their weights in input order.
  void set_hyperedges(std::vector<ObjectId> pins,
                      std::span<const std::size_t> pins_begin,
                      std::span<const double> weights);
  /// The installed edges in pin-set order (lexicographic over the sorted
  /// pins), stored as one CSR.
  const Hyperedges& hyperedges() const { return hyperedges_; }
  bool has_hyperedges() const { return !hyperedges_.empty(); }

  /// Rate-weighted connectivity-minus-one objective of `placement` over
  /// the installed hyperedges: sum_e weight(e) * (lambda(e) - 1).
  double connectivity_cost(const Placement& placement) const;

  /// Upper bound on connectivity_cost: every pin on its own node
  /// (sum of weight * (degree - 1)). Normalization denominator.
  double total_connectivity_cost() const;

  /// Per-node demand totals of resource `r` under `placement`.
  std::vector<double> resource_loads(const Placement& placement,
                                     std::size_t r) const;

  /// Objective (1): total correlation-weighted communication cost of the
  /// separated pairs under `placement`.
  double communication_cost(const Placement& placement) const;

  /// Upper bound on the objective: cost when every pair is separated
  /// (sum of all pair costs). Normalization denominator for reports.
  double total_pair_cost() const;

  /// Per-node total object size under `placement`.
  std::vector<double> node_loads(const Placement& placement) const;

  /// max_k load(k) / capacity(k); <= 1 means capacity-feasible.
  double max_load_factor(const Placement& placement) const;

  /// True when `placement` satisfies capacities and pins.
  bool is_feasible(const Placement& placement) const;

 private:
  std::vector<double> sizes_;
  std::vector<double> capacities_;
  std::vector<PairWeight> pairs_;
  Hyperedges hyperedges_;
  std::vector<std::optional<NodeId>> pins_;
  std::vector<Resource> resources_;
  double total_size_ = 0.0;
  int num_pins_ = 0;
};

/// Fractional placement matrix x[i][k] — the LP-relaxation solution handed
/// to randomized rounding. Row-major: value(i, k) = x_{i,k}.
class FractionalPlacement {
 public:
  FractionalPlacement(int num_objects, int num_nodes)
      : num_objects_(num_objects),
        num_nodes_(num_nodes),
        x_(static_cast<std::size_t>(num_objects) * num_nodes, 0.0) {}

  int num_objects() const { return num_objects_; }
  int num_nodes() const { return num_nodes_; }

  double value(ObjectId i, NodeId k) const {
    return x_[static_cast<std::size_t>(i) * num_nodes_ + k];
  }
  void set(ObjectId i, NodeId k, double v) {
    x_[static_cast<std::size_t>(i) * num_nodes_ + k] = v;
  }

  /// The LP objective (3) at this point: sum over pairs of
  /// r*w * (1/2) * sum_k |x_ik - x_jk|.
  double lp_objective(const CcaInstance& instance) const;

  /// Largest violation of row-stochasticity (each row must sum to 1 with
  /// non-negative entries). Solver output should be ~0.
  double max_row_violation() const;

  /// Expected per-node loads sum_i s(i) x_{i,k}.
  std::vector<double> expected_loads(const CcaInstance& instance) const;

 private:
  int num_objects_, num_nodes_;
  std::vector<double> x_;
};

}  // namespace cca::core
