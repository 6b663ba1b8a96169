#include "core/correlation.hpp"

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "common/lex_order.hpp"

namespace cca::core {

trace::PairMode pair_mode_of(OperationModel model) {
  return model == OperationModel::kSmallestPair
             ? trace::PairMode::kSmallestPair
             : trace::PairMode::kAllPairs;
}

bool MinerOptions::parse_kind(const std::string& name, Kind* out) {
  if (name == "exact") {
    *out = Kind::kExact;
    return true;
  }
  if (name == "sketch") {
    *out = Kind::kSketch;
    return true;
  }
  return false;
}

std::vector<KeywordPairWeight> build_pair_weights(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model) {
  CCA_CHECK_MSG(index_sizes.size() >= trace.vocabulary_size(),
                "index_sizes does not cover the vocabulary");
  const trace::PairCounter counter =
      model == OperationModel::kSmallestPair
          ? trace::PairCounter::count_smallest_pair(trace, index_sizes)
          : trace::PairCounter::count_all_pairs(trace);

  std::vector<KeywordPairWeight> out;
  out.reserve(counter.distinct_pairs());
  for (const trace::PairCount& pc : counter.sorted_pairs()) {
    KeywordPairWeight kpw;
    kpw.a = pc.pair.first;
    kpw.b = pc.pair.second;
    kpw.r = pc.probability;
    kpw.w = static_cast<double>(
        std::min(index_sizes[pc.pair.first], index_sizes[pc.pair.second]));
    out.push_back(kpw);
  }
  return out;
}

std::vector<KeywordPairWeight> build_pair_weights(
    const trace::StreamMiner& miner,
    const std::vector<std::uint64_t>& index_sizes) {
  std::vector<KeywordPairWeight> out;
  const auto candidates = miner.top_pairs(miner.config().top_pairs);
  out.reserve(candidates.size());
  for (const trace::PairCount& pc : candidates) {
    CCA_CHECK_MSG(pc.pair.second < index_sizes.size(),
                  "index_sizes does not cover mined keyword "
                      << pc.pair.second);
    KeywordPairWeight kpw;
    kpw.a = pc.pair.first;
    kpw.b = pc.pair.second;
    kpw.r = pc.probability;
    kpw.w = static_cast<double>(
        std::min(index_sizes[pc.pair.first], index_sizes[pc.pair.second]));
    out.push_back(kpw);
  }
  return out;
}

std::vector<KeywordPairWeight> mine_pair_weights(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model,
    const MinerOptions& miner) {
  if (miner.kind == MinerOptions::Kind::kExact)
    return build_pair_weights(trace, index_sizes, model);
  trace::StreamMiner stream(miner.sketch);
  stream.observe_trace(trace, pair_mode_of(model), &index_sizes);
  return build_pair_weights(stream, index_sizes);
}

QueryShapes::QueryShapes(const trace::QueryTrace& trace,
                         common::FunctionRef<bool(const trace::Query&)> keep)
    : rate_unit_(trace.empty() ? 0.0
                               : 1.0 / static_cast<double>(trace.size())) {
  for (const trace::Query& q : trace.queries()) {
    if (!keep(q)) continue;
    keywords_.insert(keywords_.end(), q.keywords.begin(), q.keywords.end());
    CCA_CHECK_MSG(keywords_.size() <= UINT32_MAX,
                  "query shapes exceed 2^32 keywords");
    offsets_.push_back(static_cast<std::uint32_t>(keywords_.size()));
  }
}

std::vector<QueryShapes::Edge> QueryShapes::aggregate() const {
  // Queries arrive with sorted distinct keywords (QueryTrace::add_query
  // canonicalizes), so the keyword sequence itself is the aggregation key.
  // Sorting the shapes by it and counting adjacent runs emits the edges
  // sorted by pin set, into an exactly reserved vector.
  const std::vector<std::size_t> order = common::lexicographic_order(
      size(), [&](std::size_t q) { return shape(q); });
  const auto same = [&](std::size_t x, std::size_t y) {
    return std::ranges::equal(shape(order[x]), shape(order[y]));
  };
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < order.size(); ++i)
    if (i == 0 || !same(i, i - 1)) ++distinct;
  std::vector<Edge> out;
  out.reserve(distinct);
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i + 1;
    while (j < order.size() && same(j, i)) ++j;
    out.push_back(
        Edge{shape(order[i]), static_cast<double>(j - i) * rate_unit_});
    i = j;
  }
  return out;
}

std::vector<KeywordHyperedge> build_hyperedges(
    const trace::QueryTrace& trace) {
  const QueryShapes shapes(
      trace, [](const trace::Query& q) { return q.size() >= 2; });
  const std::vector<QueryShapes::Edge> edges = shapes.aggregate();
  std::vector<KeywordHyperedge> out;
  out.reserve(edges.size());
  for (const QueryShapes::Edge& e : edges)
    out.push_back(KeywordHyperedge{{e.pins.begin(), e.pins.end()}, e.weight});
  return out;
}

std::vector<trace::KeywordId> importance_ranking(
    const std::vector<KeywordPairWeight>& pairs,
    const std::vector<std::uint64_t>& index_sizes) {
  // Pairs in descending communication cost r*w.
  std::vector<const KeywordPairWeight*> order;
  order.reserve(pairs.size());
  for (const KeywordPairWeight& p : pairs) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const KeywordPairWeight* x, const KeywordPairWeight* y) {
              if (x->cost() != y->cost()) return x->cost() > y->cost();
              if (x->a != y->a) return x->a < y->a;
              return x->b < y->b;
            });

  const std::size_t vocab = index_sizes.size();
  std::vector<bool> ranked(vocab, false);
  std::vector<trace::KeywordId> ranking;
  ranking.reserve(vocab);
  for (const KeywordPairWeight* p : order) {
    for (trace::KeywordId k : {p->a, p->b}) {
      if (!ranked[k]) {
        ranked[k] = true;
        ranking.push_back(k);
      }
    }
  }

  // Never-communicating keywords last, largest index first (they still
  // matter for the capacity side of the placement).
  std::vector<trace::KeywordId> tail;
  for (std::size_t k = 0; k < vocab; ++k)
    if (!ranked[k]) tail.push_back(static_cast<trace::KeywordId>(k));
  std::sort(tail.begin(), tail.end(),
            [&](trace::KeywordId a, trace::KeywordId b) {
              if (index_sizes[a] != index_sizes[b])
                return index_sizes[a] > index_sizes[b];
              return a < b;
            });
  ranking.insert(ranking.end(), tail.begin(), tail.end());
  return ranking;
}

std::vector<DominancePoint> dominance_curve(
    const std::vector<trace::KeywordId>& ranking,
    const std::vector<KeywordPairWeight>& pairs,
    const std::vector<std::uint64_t>& index_sizes,
    std::size_t sample_points) {
  CCA_CHECK(sample_points >= 1);
  const std::size_t vocab = ranking.size();

  std::vector<std::size_t> rank_of(index_sizes.size(), vocab);
  for (std::size_t pos = 0; pos < ranking.size(); ++pos)
    rank_of[ranking[pos]] = pos;

  // A pair is covered once both endpoints are within the prefix, i.e. at
  // prefix length max(rank_a, rank_b) + 1.
  std::vector<double> cost_at_rank(vocab + 1, 0.0);
  double total_cost = 0.0;
  for (const KeywordPairWeight& p : pairs) {
    const std::size_t need = std::max(rank_of[p.a], rank_of[p.b]) + 1;
    cost_at_rank[need] += p.cost();
    total_cost += p.cost();
  }
  std::vector<double> size_at_rank(vocab + 1, 0.0);
  double total_size = 0.0;
  for (std::size_t pos = 0; pos < ranking.size(); ++pos) {
    size_at_rank[pos + 1] = static_cast<double>(index_sizes[ranking[pos]]);
    total_size += size_at_rank[pos + 1];
  }

  std::vector<DominancePoint> curve;
  curve.reserve(sample_points + 1);
  double cum_cost = 0.0, cum_size = 0.0;
  const std::size_t step = std::max<std::size_t>(1, vocab / sample_points);
  std::size_t next_sample = step;
  for (std::size_t rank = 1; rank <= vocab; ++rank) {
    cum_cost += cost_at_rank[rank];
    cum_size += size_at_rank[rank];
    if (rank == next_sample || rank == vocab) {
      DominancePoint pt;
      pt.rank = rank;
      pt.cumulative_size_fraction = total_size > 0 ? cum_size / total_size : 0;
      pt.cumulative_cost_fraction = total_cost > 0 ? cum_cost / total_cost : 0;
      curve.push_back(pt);
      next_sample += step;
    }
  }
  return curve;
}

}  // namespace cca::core
