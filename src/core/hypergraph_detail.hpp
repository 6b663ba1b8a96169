// Internals of the hypergraph partitioner (core/hypergraph.cpp), exposed
// only so tests can drive its contraction and refinement state directly.
// Not part of the library's interface.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/lex_order.hpp"
#include "common/page_allocator.hpp"
#include "core/instance.hpp"

namespace cca::core::detail {

/// One level of the multilevel hierarchy as read-only CSR views: net e's
/// pins are pins[net_begin[e], net_begin[e+1]) and vertex v's incident
/// nets are incident[inc_begin[v], inc_begin[v+1]), in ascending net
/// order. The arrays live elsewhere: level 0's nets are the instance's
/// hyperedge store (or the lifted pairwise view) with incidence lists
/// built once per placement; a coarse level's vertices and nets are its
/// Level, its incidence lists the V-cycle's Incidence buffers.
struct Hypergraph {
  int n = 0;
  std::span<const double> vweight;               // object bytes
  std::span<const std::optional<NodeId>> pin;    // placement pins
  std::span<const int> pins;                     // nets' distinct vertices
  std::span<const int> net_begin;                // num_nets() + 1 entries
  std::span<const double> eweight;               // net -> rate weight
  std::span<const int> incident;                 // vertices' incident nets
  std::span<const int> inc_begin;

  int num_nets() const { return static_cast<int>(eweight.size()); }
  int net_size(int e) const { return net_begin[e + 1] - net_begin[e]; }
  /// Clique-expansion weight of each pin pair of net e: weight/(|e|-1).
  double share(int e) const {
    return eweight[e] / static_cast<double>(std::max(net_size(e) - 1, 1));
  }
  std::span<const int> net(int e) const {
    return pins.subspan(net_begin[e], net_size(e));
  }
  std::span<const int> nets_of(int v) const {
    return incident.subspan(inc_begin[v], inc_begin[v + 1] - inc_begin[v]);
  }
};

/// Storage of one level's vertices and nets. The nets' weights, offsets
/// and pins share one page-mapped block, sized once by reserve() for the
/// level's worst case: restarts build their levels concurrently on pool
/// workers (see common/page_allocator.hpp), and one mapping per level
/// keeps a V-cycle's mappings few; the unwritten tail is never backed.
class Level {
 public:
  std::vector<double> vweight;
  std::vector<std::optional<NodeId>> pin;

  /// Room for up to `nets` nets with `pins` pins in all; precedes add_net.
  void reserve(std::size_t nets, std::size_t pins);
  void add_net(std::span<const int> vertices, double weight) {
    assert(num_nets_ < max_nets_ &&
               num_pins_ + vertices.size() <= max_pins_);
    std::copy(vertices.begin(), vertices.end(), pins_ + num_pins_);
    num_pins_ += vertices.size();
    eweight_[num_nets_++] = weight;
    net_begin_[num_nets_] = static_cast<int>(num_pins_);
  }
  /// The level without incidence lists.
  Hypergraph view() const {
    static constexpr int kNoNets[] = {0};
    if (!block_)
      return {static_cast<int>(vweight.size()), vweight, pin, {}, kNoNets,
              {}, {}, {}};
    return {static_cast<int>(vweight.size()),
            vweight,
            pin,
            {pins_, num_pins_},
            {net_begin_, num_nets_ + 1},
            {eweight_, num_nets_},
            {},
            {}};
  }

 private:
  struct Free {
    std::size_t bytes;
    void operator()(std::byte* block) const noexcept {
      common::page_free(block, bytes);
    }
  };
  std::unique_ptr<std::byte[], Free> block_;
  double* eweight_ = nullptr;
  int* net_begin_ = nullptr;
  int* pins_ = nullptr;
  std::size_t num_nets_ = 0, num_pins_ = 0;
  std::size_t max_nets_ = 0, max_pins_ = 0;
};

/// Incidence lists, rebuilt in place for each level they serve.
class Incidence {
 public:
  /// Room for any level of at most `vertices` vertices and `pins` pins.
  void reserve(std::size_t vertices, std::size_t pins) {
    incident_.reserve(pins);
    begin_.reserve(vertices + 1);
    next_.reserve(vertices);
  }
  /// Builds g's incidence lists here and points g at them; they stay
  /// valid until the next attach. Pages past them are released, so a
  /// smaller level does not keep a larger one's footprint.
  void attach(Hypergraph& g);

 private:
  common::ScratchVector<int> incident_;
  common::ScratchVector<int> begin_;
  common::ScratchVector<int> next_;
};

/// Scratch of net contraction, reserved once for the finest level and
/// reused by every coarser one.
struct ContractScratch {
  common::ScratchVector<int> pins;     // remapped nets, back to back
  common::ScratchVector<int> begin;    // their offsets
  common::ScratchVector<int> source;   // the fine net each came from
  common::ScratchVector<common::LexKey> keys;
  common::ScratchVector<common::LexKey> scatter;  // radix sort buffer

  void reserve(std::size_t nets, std::size_t pins);
  /// Releases the pages past what a level of `nets` nets and `pins` pins
  /// uses: once a level is contracted, every later one is smaller.
  void trim(std::size_t nets, std::size_t pins);
};

/// Contracts g's nets into `coarse`, whose vertices (coarse_n of them)
/// are already set: each net's pins are remapped through coarse_of,
/// sorted and deduplicated, nets left with one pin are dropped, and nets
/// with equal pin sets merge. The merged nets come out in lexicographic
/// pin-set order, each weight summed over its fine nets in fine-net
/// order.
void contract(const Hypergraph& g, std::span<const int> coarse_of,
              int coarse_n, ContractScratch& scratch, Level& coarse);

/// Refinement buffers of one V-cycle, reserved once for the finest level
/// and resized per level as uncoarsening climbs back to it.
struct RefineBuffers {
  struct Slot {
    NodeId node;
    int count;
  };
  struct Gain {
    double present;
    double aux;
  };

  common::ScratchVector<int> live;      // live slots per net
  common::ScratchVector<Slot> slots;    // one per pin
  common::ScratchVector<Gain> rows;     // n x num_nodes, row-major
  common::ScratchVector<double> base;   // per vertex
  common::ScratchVector<double> total;  // per vertex

  void reserve(const Hypergraph& g, int num_nodes);
};

/// Per-net refinement state: the pin counts Phi(e,k) — pins of net e on
/// node k — stored sparsely. Net e owns |e| slots from g.net_begin[e] on
/// (enough for every node it can touch); the first lambda(e) hold one
/// (node, count) pair per node the net touches, and a slot whose count
/// drops to 0 is swap-removed, so walking a net's slots costs lambda(e),
/// not N. Weights and slot offsets are read from the hypergraph, leaving
/// four bytes per net here, in `buffers`.
class NetState {
 public:
  using Slot = RefineBuffers::Slot;

  NetState(const Hypergraph& g, const std::vector<NodeId>& part,
           RefineBuffers& buffers);

  /// The nodes net e touches, with their pin counts, in no fixed order.
  std::span<const Slot> slots(int e) const {
    return {slots_ + g_.net_begin[e], static_cast<std::size_t>(lambda_[e])};
  }

  /// Moves one of net e's pins from node `from` to node `to`; returns
  /// (Phi(e,from), Phi(e,to)) as they were before the move.
  std::pair<int, int> move(int e, NodeId from, NodeId to);

 private:
  Slot* find(int e, NodeId k);
  /// Adds one pin on node k to net e; returns Phi(e,k) before the add.
  int add(int e, NodeId k);

  const Hypergraph& g_;
  int* lambda_;  // live slots per net
  Slot* slots_;
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
  using Gain = RefineBuffers::Gain;

  /// Builds the pin counts, the loads and every row from `part`, which
  /// the state then updates in place. The state lives in `buffers`,
  /// resized to this level; it is valid until they are resized again.
  RefineState(const Hypergraph& g, std::vector<NodeId>& part, int num_nodes,
              RefineBuffers& buffers);

  const std::vector<double>& load() const { return load_; }
  const NetState& nets() const { return nets_; }
  std::span<const Gain> row(int v) const {
    return {rows_ + static_cast<std::size_t>(v) * num_nodes_,
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
  Gain* rows_;
  double* base_;
  double* total_;
};

}  // namespace cca::core::detail
