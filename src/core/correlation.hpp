// From query trace to CCA inputs: correlations r(i,j), pair costs w(i,j),
// and the importance ranking for partial optimization.
//
// Operation model (Sec. 3.2): for intersection-like operations a
// >2-keyword query is approximated by its two smallest-index keywords, so
// r(i,j) becomes "the probability that i and j are the two smallest
// objects requested in an operation" and w(i,j) = min(s(i), s(j)) — the
// bytes shipped when the smaller index travels to the larger one's node.
// The kAllPairs model keeps the base definition (every co-requested pair),
// which is exact for two-object operations.
//
// Importance ranking (Sec. 4.2): rank pairs by their communication cost
// r(i,j) * w(i,j); a keyword's importance is its first appearance in that
// pair ranking; keywords that never communicate rank last (largest index
// first, since they still consume placement-relevant space).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/function_ref.hpp"
#include "core/instance.hpp"
#include "trace/pair_stats.hpp"
#include "trace/stream_miner.hpp"
#include "trace/trace.hpp"

namespace cca::core {

enum class OperationModel {
  kAllPairs,      // base definition: every pair of every query
  kSmallestPair,  // Sec. 3.2 intersection adjustment (the paper's choice)
};

/// trace::PairMode equivalent of an OperationModel (the trace layer keeps
/// its own enum so it does not depend on core/).
trace::PairMode pair_mode_of(OperationModel model);

/// Which correlation miner feeds the pipeline.
///   kExact  — PairCounter: one entry per distinct pair (exact counts,
///             memory grows with the pair vocabulary);
///   kSketch — StreamMiner: Count-Min pair sketch + bounded candidate set
///             (bounded memory, top-k recall ≥ the sketch's guarantee).
struct MinerOptions {
  enum class Kind { kExact, kSketch };
  Kind kind = Kind::kExact;
  trace::StreamMinerConfig sketch;  // geometry, used when kind == kSketch

  /// Parses "exact"/"sketch"; returns false on anything else.
  static bool parse_kind(const std::string& name, Kind* out);
};

/// A correlated keyword pair in vocabulary space.
struct KeywordPairWeight {
  trace::KeywordId a = 0;
  trace::KeywordId b = 0;
  double r = 0.0;  // correlation (empirical probability)
  double w = 0.0;  // communication bytes when separated

  double cost() const { return r * w; }
};

/// Builds r and w for every observed pair. `index_sizes` (bytes, indexed
/// by keyword) provides both the smallest-pair selection and w.
std::vector<KeywordPairWeight> build_pair_weights(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model);

/// Sketch path: r and w for the miner's current top candidate pairs
/// (estimate desc, pair asc — at most the miner's top_pairs entries).
/// Probabilities use the miner's decayed query weight, so a drift-decayed
/// miner yields exponentially-weighted correlations.
std::vector<KeywordPairWeight> build_pair_weights(
    const trace::StreamMiner& miner,
    const std::vector<std::uint64_t>& index_sizes);

/// Unified entry point: mines `trace` with the selected miner and returns
/// pair weights. kExact reproduces build_pair_weights(trace, ...) exactly;
/// kSketch mines a fresh StreamMiner (sharded, deterministic for any
/// thread count) and returns its candidates.
std::vector<KeywordPairWeight> mine_pair_weights(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model,
    const MinerOptions& miner);

/// A multi-keyword operation kept whole: the distinct keywords of one
/// observed query shape and the rate at which it was asked. This is the
/// information the pairwise collapse throws away — the input of the
/// hypergraph strategy (core/hypergraph.hpp).
struct KeywordHyperedge {
  std::vector<trace::KeywordId> pins;  // distinct, sorted ascending
  double weight = 0.0;                 // empirical rate (queries / trace)
};

/// Selected query shapes of a trace, flattened into one array (CSR):
/// shape q's keywords are keywords[offsets[q], offsets[q + 1]). The
/// compact input of the hyperedge aggregation — a few bytes per keyword
/// instead of one heap vector per query — so a caller can hold it until
/// it decides whether to aggregate at all.
class QueryShapes {
 public:
  /// A distinct shape and its rate: `pins` view into the owning
  /// QueryShapes and are only valid while it lives.
  struct Edge {
    std::span<const trace::KeywordId> pins;
    double weight = 0.0;
  };

  QueryShapes() = default;
  /// The multi-keyword queries of `trace` that `keep` accepts, in trace
  /// order. Each occurrence weighs 1 / trace.size(), so rates stay
  /// relative to the whole trace whatever is dropped. `keep` runs on the
  /// common::parallel pool.
  QueryShapes(const trace::QueryTrace& trace,
              common::FunctionRef<bool(const trace::Query&)> keep);

  /// The aggregation behind every hyperedge view: one edge per distinct
  /// shape, weight = occurrences * rate unit, sorted by pin set.
  std::vector<Edge> aggregate() const;

 private:
  std::size_t size() const { return offsets_.size() - 1; }
  std::span<const trace::KeywordId> shape(std::size_t q) const {
    return {keywords_.data() + offsets_[q],
            keywords_.data() + offsets_[q + 1]};
  }

  std::vector<trace::KeywordId> keywords_;
  std::vector<std::uint32_t> offsets_{0};
  std::size_t vocabulary_ = 0;  // every keyword lies below it
  double rate_unit_ = 0.0;
};

/// Aggregates the trace's multi-keyword queries into weighted hyperedges:
/// one edge per distinct keyword set, weight = (occurrences / trace
/// size). Single-keyword queries are dropped (they never communicate).
/// Deterministic: edges are sorted by pin set.
std::vector<KeywordHyperedge> build_hyperedges(const trace::QueryTrace& trace);

/// Sec. 4.2 keyword importance ranking (most important first). Covers the
/// whole vocabulary.
std::vector<trace::KeywordId> importance_ranking(
    const std::vector<KeywordPairWeight>& pairs,
    const std::vector<std::uint64_t>& index_sizes);

/// One point of the Fig. 5 dominance curve.
struct DominancePoint {
  std::size_t rank = 0;                  // number of top keywords included
  double cumulative_size_fraction = 0.0; // of total index size
  double cumulative_cost_fraction = 0.0; // of total pair communication cost
};

/// Cumulative index-size and communication-cost coverage of the top-ranked
/// keywords, sampled at `sample_points` evenly spaced ranks (plus the final
/// full-vocabulary point). A pair's cost counts once both endpoints are in
/// the prefix.
std::vector<DominancePoint> dominance_curve(
    const std::vector<trace::KeywordId>& ranking,
    const std::vector<KeywordPairWeight>& pairs,
    const std::vector<std::uint64_t>& index_sizes, std::size_t sample_points);

}  // namespace cca::core
