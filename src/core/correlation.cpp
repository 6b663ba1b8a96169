#include "core/correlation.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "common/check.hpp"
#include "common/lex_order.hpp"
#include "common/parallel.hpp"
#include "common/radix_sort.hpp"

namespace cca::core {

namespace {

/// Queries per QueryShapes fill chunk (one pool task each).
constexpr std::size_t kShapeFillGrain = 4096;

}  // namespace

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
    : vocabulary_(trace.vocabulary_size()),
      rate_unit_(trace.empty() ? 0.0
                               : 1.0 / static_cast<double>(trace.size())) {
  // One pass over the trace fills a CSR per chunk on the pool; the chunks
  // are then concatenated in trace order, so the result is the same for
  // any thread count.
  const std::vector<trace::Query>& queries = trace.queries();
  const auto chunks = common::chunk_ranges(queries.size(), kShapeFillGrain);
  struct Part {
    std::vector<trace::KeywordId> keywords;
    std::vector<std::uint32_t> ends;  // within the part
  };
  std::vector<Part> parts(chunks.size());
  common::parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
    Part& part = parts[c];
    for (std::size_t q = chunks[c].first; q < chunks[c].second; ++q) {
      if (queries[q].size() < 2 || !keep(queries[q])) continue;
      const std::vector<trace::KeywordId>& keywords = queries[q].keywords;
      part.keywords.insert(part.keywords.end(), keywords.begin(),
                           keywords.end());
      part.ends.push_back(static_cast<std::uint32_t>(part.keywords.size()));
    }
  });
  std::size_t total_keywords = 0, total_shapes = 0;
  for (const Part& part : parts) {
    total_keywords += part.keywords.size();
    total_shapes += part.ends.size();
  }
  CCA_CHECK_MSG(total_keywords <= UINT32_MAX,
                "query shapes exceed 2^32 keywords");
  keywords_.reserve(total_keywords);
  offsets_.reserve(total_shapes + 1);
  for (const Part& part : parts) {
    const auto base = static_cast<std::uint32_t>(keywords_.size());
    keywords_.insert(keywords_.end(), part.keywords.begin(),
                     part.keywords.end());
    for (const std::uint32_t end : part.ends) offsets_.push_back(base + end);
  }
}

std::vector<QueryShapes::Edge> QueryShapes::aggregate() const {
  // Queries arrive with sorted distinct keywords (QueryTrace::add_query
  // canonicalizes), so the keyword sequence itself is the aggregation key:
  // each run of equal shapes in lexicographic order is one edge, emitted
  // sorted by pin set into an exactly reserved vector.
  const auto sorted = common::lexicographic_order(
      size(), [&](std::size_t q) { return shape(q); }, vocabulary_);
  std::vector<Edge> out;
  out.reserve(sorted.groups());
  sorted.for_each_group([&](std::span<const std::size_t> members) {
    out.push_back(Edge{shape(members.front()),
                       static_cast<double>(members.size()) * rate_unit_});
  });
  return out;
}

std::vector<KeywordHyperedge> build_hyperedges(
    const trace::QueryTrace& trace) {
  const QueryShapes shapes(trace, [](const trace::Query&) { return true; });
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
  // Pairs in descending communication cost r*w, ties by (a, b): a stable
  // sort by pair, then a stable sort by descending cost. A non-negative
  // double's bit pattern orders like its value, so ~bits orders costs
  // descending; a pair packs as a << width | b, width covering the ids.
  const std::size_t vocab = index_sizes.size();
  const int width =
      vocab > 2 ? std::min(32, static_cast<int>(std::bit_width(vocab - 1))) : 1;
  struct Ranked {
    std::uint64_t cost;  // ~bits of r*w
    std::uint64_t pair;
  };
  std::vector<Ranked> order(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const KeywordPairWeight& p = pairs[i];
    CCA_CHECK_MSG(p.cost() >= 0.0, "pair cost " << p.cost());
    CCA_CHECK_MSG(p.a < vocab && p.b < vocab,
                  "pair (" << p.a << ", " << p.b << ") outside the vocabulary");
    order[i] = {~std::bit_cast<std::uint64_t>(p.cost() + 0.0),
                std::uint64_t{p.a} << width | p.b};
  }
  common::radix_sort(std::span<Ranked>(order),
                     [](const Ranked& p) { return p.pair; });
  common::radix_sort(std::span<Ranked>(order),
                     [](const Ranked& p) { return p.cost; });

  std::vector<bool> ranked(vocab, false);
  std::vector<trace::KeywordId> ranking;
  ranking.reserve(vocab);
  const std::uint64_t low_mask = (std::uint64_t{1} << width) - 1;
  for (const Ranked& p : order) {
    for (const std::uint64_t k : {p.pair >> width, p.pair & low_mask}) {
      if (!ranked[k]) {
        ranked[k] = true;
        ranking.push_back(static_cast<trace::KeywordId>(k));
      }
    }
  }

  // Never-communicating keywords last, largest index first, ties by id
  // (they still matter for the capacity side of the placement).
  std::vector<trace::KeywordId> tail;
  for (std::size_t k = 0; k < vocab; ++k)
    if (!ranked[k]) tail.push_back(static_cast<trace::KeywordId>(k));
  common::radix_sort(std::span<trace::KeywordId>(tail),
                     [&](trace::KeywordId k) { return ~index_sizes[k]; });
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
