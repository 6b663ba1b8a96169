#include "core/instance.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <span>

#include "common/check.hpp"
#include "common/lex_order.hpp"

namespace cca::core {

CcaInstance::CcaInstance(std::vector<double> object_sizes,
                         std::vector<double> node_capacities,
                         std::vector<PairWeight> pairs)
    : sizes_(std::move(object_sizes)),
      capacities_(std::move(node_capacities)),
      pairs_(std::move(pairs)) {
  CCA_CHECK_MSG(!sizes_.empty(), "instance needs at least one object");
  CCA_CHECK_MSG(!capacities_.empty(), "instance needs at least one node");
  for (double s : sizes_) {
    CCA_CHECK_MSG(s >= 0.0 && std::isfinite(s), "bad object size " << s);
    total_size_ += s;
  }
  for (double c : capacities_)
    CCA_CHECK_MSG(c >= 0.0 && std::isfinite(c), "bad node capacity " << c);
  for (PairWeight& p : pairs_) {
    CCA_CHECK_MSG(p.i >= 0 && p.i < num_objects(), "pair object " << p.i);
    CCA_CHECK_MSG(p.j >= 0 && p.j < num_objects(), "pair object " << p.j);
    CCA_CHECK_MSG(p.i != p.j, "self-pair on object " << p.i);
    CCA_CHECK_MSG(p.r >= 0.0 && p.r <= 1.0, "correlation r=" << p.r);
    CCA_CHECK_MSG(p.w >= 0.0 && std::isfinite(p.w), "pair cost w=" << p.w);
    if (p.i > p.j) std::swap(p.i, p.j);
  }
  pins_.assign(sizes_.size(), std::nullopt);
}

void CcaInstance::pin(ObjectId i, NodeId k) {
  CCA_CHECK(i >= 0 && i < num_objects());
  CCA_CHECK(k >= 0 && k < num_nodes());
  if (!pins_[i].has_value()) ++num_pins_;
  pins_[i] = k;
}

void CcaInstance::add_resource(Resource resource) {
  CCA_CHECK_MSG(resource.demands.size() == sizes_.size(),
                "resource '" << resource.name << "' demand count "
                             << resource.demands.size() << " != object count "
                             << sizes_.size());
  CCA_CHECK_MSG(resource.capacities.size() == capacities_.size(),
                "resource '" << resource.name << "' capacity count "
                             << resource.capacities.size()
                             << " != node count " << capacities_.size());
  for (double d : resource.demands)
    CCA_CHECK_MSG(d >= 0.0 && std::isfinite(d),
                  "bad demand in resource '" << resource.name << "'");
  for (double c : resource.capacities)
    CCA_CHECK_MSG(c >= 0.0 && std::isfinite(c),
                  "bad capacity in resource '" << resource.name << "'");
  resources_.push_back(std::move(resource));
}

void CcaInstance::set_hyperedges(std::vector<Hyperedge> edges) {
  std::size_t total_pins = 0;
  for (const Hyperedge& e : edges) total_pins += e.pins.size();
  std::vector<ObjectId> pins;
  std::vector<std::size_t> pins_begin{0};
  std::vector<double> weights;
  pins.reserve(total_pins);
  pins_begin.reserve(edges.size() + 1);
  weights.reserve(edges.size());
  for (const Hyperedge& e : edges) {
    pins.insert(pins.end(), e.pins.begin(), e.pins.end());
    pins_begin.push_back(pins.size());
    weights.push_back(e.weight);
  }
  edges = {};
  set_hyperedges(std::move(pins), pins_begin, weights);
}

void CcaInstance::set_hyperedges(std::vector<ObjectId> pins,
                                 std::span<const std::size_t> pins_begin,
                                 std::span<const double> weights) {
  CCA_CHECK(pins_begin.size() == weights.size() + 1 &&
            pins_begin.front() == 0 && pins_begin.back() == pins.size());
  // Canonicalize in place: sorted distinct pins, >= 2 of them, positive
  // weight; the survivors are compacted to the front of `pins`.
  std::vector<std::size_t> kept_begin{0};
  std::vector<double> kept_weights;
  for (std::size_t e = 0; e < weights.size(); ++e) {
    CCA_CHECK_MSG(weights[e] >= 0.0 && std::isfinite(weights[e]),
                  "bad hyperedge weight " << weights[e]);
    const auto first =
        pins.begin() + static_cast<std::ptrdiff_t>(pins_begin[e]);
    const auto last =
        pins.begin() + static_cast<std::ptrdiff_t>(pins_begin[e + 1]);
    std::sort(first, last);
    const auto distinct_end = std::unique(first, last);
    for (auto pin = first; pin != distinct_end; ++pin)
      CCA_CHECK_MSG(*pin >= 0 && *pin < num_objects(),
                    "hyperedge pin " << *pin << " outside [0, "
                                     << num_objects() << ")");
    const auto size = static_cast<std::size_t>(distinct_end - first);
    if (size < 2 || weights[e] <= 0.0) continue;
    // Writes only land before `first`, on edges already read.
    const std::size_t to = kept_begin.back();
    if (to != pins_begin[e])
      std::copy(first, distinct_end,
                pins.begin() + static_cast<std::ptrdiff_t>(to));
    kept_begin.push_back(to + size);
    kept_weights.push_back(weights[e]);
  }
  // Sorting the survivors by pin set and merging the runs keeps the edges
  // in pin-set order and sums duplicate weights in input order. The
  // merged edges are copied into exactly reserved arrays so the
  // long-lived store sits together in the heap instead of among freed
  // inputs; keeping per-edge input vectors slowed later LP solves in the
  // same process by about 20 % (serve-churn epoch swaps).
  const auto edge = [&](std::size_t e) {
    return std::span<const ObjectId>(pins.data() + kept_begin[e],
                                     pins.data() + kept_begin[e + 1]);
  };
  const auto sorted = common::lexicographic_order(
      kept_weights.size(), edge, static_cast<std::uint64_t>(num_objects()));
  std::size_t merged_pins = 0;
  sorted.for_each_group([&](std::span<const std::size_t> members) {
    merged_pins += edge(members[0]).size();
  });
  CCA_CHECK_MSG(merged_pins <= static_cast<std::size_t>(INT_MAX),
                "more than 2^31 - 1 hyperedge pins");
  Hyperedges& store = hyperedges_;
  store = {};
  store.pins_.reserve(merged_pins);
  store.offsets_.reserve(sorted.groups() + 1);
  store.weights_.reserve(sorted.groups());
  sorted.for_each_weighted_group(
      [&](std::size_t e) { return kept_weights[e]; },
      [&](std::size_t first, double weight) {
        const std::span<const ObjectId> set = edge(first);
        store.pins_.insert(store.pins_.end(), set.begin(), set.end());
        store.offsets_.push_back(static_cast<int>(store.pins_.size()));
        store.weights_.push_back(weight);
      });
}

double CcaInstance::connectivity_cost(const Placement& placement) const {
  CCA_CHECK(static_cast<int>(placement.size()) == num_objects());
  double cost = 0.0;
  std::vector<NodeId> nodes;
  for (const HyperedgeRef e : hyperedges_) {
    nodes.clear();
    for (ObjectId pin : e.pins) nodes.push_back(placement[pin]);
    std::sort(nodes.begin(), nodes.end());
    const auto lambda =
        std::unique(nodes.begin(), nodes.end()) - nodes.begin();
    cost += e.weight * static_cast<double>(lambda - 1);
  }
  return cost;
}

double CcaInstance::total_connectivity_cost() const {
  double cost = 0.0;
  for (const HyperedgeRef e : hyperedges_)
    cost += e.weight * static_cast<double>(e.degree() - 1);
  return cost;
}

std::vector<double> CcaInstance::resource_loads(const Placement& placement,
                                                std::size_t r) const {
  CCA_CHECK(static_cast<int>(placement.size()) == num_objects());
  CCA_CHECK_MSG(r < resources_.size(), "unknown resource index " << r);
  std::vector<double> loads(capacities_.size(), 0.0);
  for (int i = 0; i < num_objects(); ++i)
    loads[placement[i]] += resources_[r].demands[i];
  return loads;
}

double CcaInstance::communication_cost(const Placement& placement) const {
  CCA_CHECK(static_cast<int>(placement.size()) == num_objects());
  double cost = 0.0;
  for (const PairWeight& p : pairs_)
    if (placement[p.i] != placement[p.j]) cost += p.cost();
  return cost;
}

double CcaInstance::total_pair_cost() const {
  double cost = 0.0;
  for (const PairWeight& p : pairs_) cost += p.cost();
  return cost;
}

std::vector<double> CcaInstance::node_loads(const Placement& placement) const {
  CCA_CHECK(static_cast<int>(placement.size()) == num_objects());
  std::vector<double> loads(capacities_.size(), 0.0);
  for (int i = 0; i < num_objects(); ++i) {
    CCA_CHECK_MSG(placement[i] >= 0 && placement[i] < num_nodes(),
                  "object " << i << " placed on unknown node "
                            << placement[i]);
    loads[placement[i]] += sizes_[i];
  }
  return loads;
}

double CcaInstance::max_load_factor(const Placement& placement) const {
  const std::vector<double> loads = node_loads(placement);
  double factor = 0.0;
  for (int k = 0; k < num_nodes(); ++k) {
    if (capacities_[k] > 0.0) {
      factor = std::max(factor, loads[k] / capacities_[k]);
    } else if (loads[k] > 0.0) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return factor;
}

bool CcaInstance::is_feasible(const Placement& placement) const {
  for (int i = 0; i < num_objects(); ++i)
    if (pins_[i].has_value() && placement[i] != *pins_[i]) return false;
  const std::vector<double> loads = node_loads(placement);
  for (int k = 0; k < num_nodes(); ++k) {
    // Tiny epsilon absorbs accumulated floating point noise in sizes.
    if (loads[k] > capacities_[k] * (1.0 + 1e-12) + 1e-9) return false;
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const std::vector<double> rloads = resource_loads(placement, r);
    for (int k = 0; k < num_nodes(); ++k) {
      if (rloads[k] > resources_[r].capacities[k] * (1.0 + 1e-12) + 1e-9)
        return false;
    }
  }
  return true;
}

double FractionalPlacement::lp_objective(const CcaInstance& instance) const {
  CCA_CHECK(instance.num_objects() == num_objects_);
  CCA_CHECK(instance.num_nodes() == num_nodes_);
  double obj = 0.0;
  for (const PairWeight& p : instance.pairs()) {
    double sep = 0.0;
    for (int k = 0; k < num_nodes_; ++k)
      sep += std::abs(value(p.i, k) - value(p.j, k));
    obj += p.cost() * 0.5 * sep;
  }
  return obj;
}

double FractionalPlacement::max_row_violation() const {
  double viol = 0.0;
  for (int i = 0; i < num_objects_; ++i) {
    double sum = 0.0;
    for (int k = 0; k < num_nodes_; ++k) {
      viol = std::max(viol, -value(i, k));
      sum += value(i, k);
    }
    viol = std::max(viol, std::abs(sum - 1.0));
  }
  return viol;
}

std::vector<double> FractionalPlacement::expected_loads(
    const CcaInstance& instance) const {
  CCA_CHECK(instance.num_objects() == num_objects_);
  std::vector<double> loads(static_cast<std::size_t>(num_nodes_), 0.0);
  for (int i = 0; i < num_objects_; ++i)
    for (int k = 0; k < num_nodes_; ++k)
      loads[k] += instance.object_size(i) * value(i, k);
  return loads;
}

}  // namespace cca::core
