// Streaming, bounded-memory correlation mining.
//
// The exact PairCounter holds one entry per distinct co-occurring
// pair, so its footprint grows with the trace's pair vocabulary — fine at
// bench scale, prohibitive at the million-object workloads the roadmap
// targets (Sec. 4.2 only ever needs the top-k objects and pairs anyway).
// This header provides the sketch-based alternative:
//
//   * SpaceSaving      — Metwally et al.'s top-k heavy-hitter summary,
//                        here tracking object (keyword) importance;
//   * CountMinSketch   — Cormode & Muthukrishnan's counting sketch, here
//                        estimating pair co-occurrence counts;
//   * StreamMiner      — the facade the pipeline consumes: a Count-Min
//                        pair sketch plus a bounded candidate set of the
//                        currently-best pairs, a Space-Saving object
//                        tracker, and optional exponential time-decay
//                        windows so drifting workloads re-mine cheaply.
//
// Determinism contract: mining shards the trace on the common::parallel
// pool exactly like PairCounter (chunk boundaries depend only on the
// grain, never the thread count) and merges shard summaries in fixed
// chunk order, so every estimate — including the floating-point ones — is
// bit-identical for any --threads value. All top-k selections use total
// orders (estimate desc, then id asc).
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_hash.hpp"
#include "trace/pair_stats.hpp"
#include "trace/trace.hpp"

namespace cca::trace {

/// Which pairs of a query count as co-occurrences. Mirrors
/// core::OperationModel without depending on core/.
enum class PairMode {
  kAllPairs,      // every unordered pair of every query
  kSmallestPair,  // only the two smallest-index keywords (Sec. 3.2)
};

/// Count-min sketch over u64 keys with double-valued counters (doubles so
/// exponential decay can scale cells in place). Estimates never
/// underestimate the true (decayed) count; overestimates are bounded by
/// total_weight * e / width per row with probability 1 - e^-depth.
class CountMinSketch {
 public:
  /// `width` is rounded up to a power of two; `depth` rows are hashed
  /// independently (SplitMix64-mixed with per-row seeds).
  CountMinSketch(std::size_t width, std::size_t depth);

  /// Adds `weight` to the key's cells and returns the updated estimate
  /// (the row minimum — one hashing pass for the add-then-query pattern).
  double add(std::uint64_t key, double weight);
  double estimate(std::uint64_t key) const;

  /// Multiplies every cell by `factor` (exponential window decay).
  void scale(double factor);

  /// Cell-wise addition. Shapes must match. Merging is commutative up to
  /// floating-point association; callers merge in fixed order.
  void merge(const CountMinSketch& other);

  std::size_t width() const { return width_; }
  std::size_t depth() const { return depth_; }
  std::size_t memory_bytes() const { return cells_.size() * sizeof(double); }

 private:
  std::size_t row_index(std::size_t row, std::uint64_t key) const;

  std::size_t width_ = 0;  // power of two
  std::size_t depth_ = 0;
  std::vector<double> cells_;  // depth_ x width_, row-major
};

/// Space-Saving top-k heavy hitters over u64 keys. Holds at most
/// `capacity` monitored entries; each entry's `count` overestimates the
/// true count by at most `error`. Eviction and reporting use total orders
/// so results are reproducible; every operation is O(log capacity).
class SpaceSaving {
 public:
  struct Entry {
    std::uint64_t key = 0;
    double count = 0.0;  // estimated count (upper bound)
    double error = 0.0;  // max overestimate baked into `count`
  };

  explicit SpaceSaving(std::size_t capacity);

  void offer(std::uint64_t key, double weight = 1.0);

  /// Multiplies all counts/errors by `factor` (exponential window decay).
  void scale(double factor);

  /// Mergeable-summaries union (Agarwal et al.): keys absent from one
  /// summary take that summary's maximum possible missed count as error.
  /// Deterministic for a fixed merge order.
  void merge(const SpaceSaving& other);

  /// Entries sorted by (count desc, key asc); at most `k` of them.
  std::vector<Entry> top(std::size_t k) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Upper bound on the count of any unmonitored key.
  double min_count() const;
  std::size_t memory_bytes() const;

 private:
  /// Eviction order: smallest count first; among equal counts the larger
  /// key goes first, so ties at the boundary retain smaller ids — the
  /// same total order the reporting side uses, inverted.
  struct VictimOrder {
    bool operator()(const std::pair<double, std::uint64_t>& a,
                    const std::pair<double, std::uint64_t>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;
    }
  };

  void rebuild_order();

  std::size_t capacity_ = 0;
  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;  // key -> entry
  std::set<std::pair<double, std::uint64_t>, VictimOrder> order_;
};

struct StreamMinerConfig {
  /// Space-Saving capacity for the object-importance tracker.
  std::size_t top_objects = 1024;
  /// Bounded candidate set size for top-correlated pairs.
  std::size_t top_pairs = 8192;
  /// Count-min geometry for the pair sketch.
  std::size_t cm_width = 1u << 15;
  std::size_t cm_depth = 4;
};

/// One mined object with its estimated (possibly decayed) request count.
struct ObjectEstimate {
  KeywordId keyword = 0;
  double estimate = 0.0;
};

/// Streaming correlation miner: drop-in alternative to exact PairCounter
/// for the top-k consumers (importance ranking, partial optimization,
/// drift re-mining). Memory is O(top_objects + top_pairs + cm_width *
/// cm_depth) regardless of trace size or pair vocabulary.
class StreamMiner {
 public:
  explicit StreamMiner(const StreamMinerConfig& config);

  /// Feeds one query. `object_sizes` is required for kSmallestPair and
  /// must cover the vocabulary; ignored for kAllPairs.
  void observe_query(const Query& query, PairMode mode,
                     const std::vector<std::uint64_t>* object_sizes = nullptr);

  /// Feeds a whole trace, sharded across the common::parallel pool with
  /// fixed-order shard merges — bit-identical for any thread count.
  void observe_trace(const QueryTrace& trace, PairMode mode,
                     const std::vector<std::uint64_t>* object_sizes = nullptr);

  /// Opens a new time window: multiplies every retained count by `decay`
  /// in (0, 1]. Subsequent observations enter at full weight, so the
  /// miner's estimates become exponentially-weighted moving counts and a
  /// drifted workload re-mines without rebuilding from scratch.
  void advance_window(double decay);

  /// Decayed total query weight (the probability denominator). Equals the
  /// plain query count when no window was ever decayed.
  double query_weight() const { return query_weight_; }
  /// Raw (undecayed) number of queries ever observed.
  std::uint64_t queries_seen() const { return queries_seen_; }

  /// Estimated co-occurrence count of a pair (decayed).
  double estimate_pair(KeywordId i, KeywordId j) const;

  /// The k best candidate pairs by (estimate desc, pair asc), with
  /// probability = estimate / query_weight(). At most `top_pairs`
  /// candidates exist, so k beyond the candidate set truncates.
  std::vector<PairCount> top_pairs(std::size_t k) const;

  /// The k most-requested objects by (estimate desc, keyword asc).
  std::vector<ObjectEstimate> top_objects(std::size_t k) const;

  const StreamMinerConfig& config() const { return config_; }
  /// Bytes retained by the summaries (the bounded-memory claim).
  std::size_t memory_bytes() const;

  /// Fixed-order merge of another miner's summaries into this one (the
  /// sharded-mining reduction step; also usable to combine sub-traces).
  void merge(const StreamMiner& other);

 private:
  void observe_pair(std::uint64_t packed, double weight);
  /// Re-ranks the candidate set against the sketch and drops the worst
  /// entries until at most `top_pairs` remain.
  void prune_candidates();

  StreamMinerConfig config_;
  CountMinSketch pair_sketch_;
  SpaceSaving objects_;
  /// Candidate pair -> last sketch estimate at touch time. Bounded at
  /// 2 * top_pairs between prunes.
  common::FlatCounter64 candidate_slots_;  // packed pair -> index+1
  std::vector<std::uint64_t> candidates_;
  double candidate_floor_ = 0.0;  // estimates below this cannot enter
  double query_weight_ = 0.0;
  std::uint64_t queries_seen_ = 0;
};

}  // namespace cca::trace
