// Keyword-pair co-occurrence statistics over a query trace.
//
// The paper defines the correlation r(i, j) of a pair as the probability
// that i and j are requested together in an operation (Sec. 2.1), adjusted
// for intersection-like >2-object operations to "the probability that they
// are the two smallest objects requested" (Sec. 3.2). Both counting modes
// live here; Fig. 2's skewness/stability analysis and the optimizer's
// correlation input are built on these counts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/function_ref.hpp"
#include "trace/trace.hpp"

namespace cca::trace {

/// Canonical (i < j) keyword pair.
struct KeywordPair {
  KeywordId first = 0;
  KeywordId second = 0;

  friend bool operator==(const KeywordPair&, const KeywordPair&) = default;
};

/// Packs an ordered pair into a map key.
std::uint64_t pack_pair(KeywordId i, KeywordId j);
KeywordPair unpack_pair(std::uint64_t packed);

/// One pair with its observed statistics.
struct PairCount {
  KeywordPair pair;
  std::uint64_t count = 0;
  /// count / number of queries in the trace — the empirical r(i, j).
  double probability = 0.0;
};

/// Co-occurrence counter. Counting extracts one packed key per counted
/// pair on the common::parallel pool, radix-sorts the keys and counts the
/// runs (common/radix_sort.hpp): the counter is the sorted distinct pairs
/// with their counts, identical for any thread count.
class PairCounter {
 public:
  /// Counts every unordered keyword pair of every query — the paper's
  /// base definition of correlation.
  static PairCounter count_all_pairs(const QueryTrace& trace);

  /// Counts, per query, only the two keywords with the smallest object
  /// sizes (ties broken by keyword ID) — the Sec. 3.2 adjustment for
  /// intersection-like operations. `object_sizes` is indexed by KeywordId
  /// and must cover the trace's vocabulary.
  static PairCounter count_smallest_pair(
      const QueryTrace& trace, const std::vector<std::uint64_t>& object_sizes);

  /// count_all_pairs over a stream of batches, without ever materializing
  /// the whole trace: `next_batch` fills its argument with the next batch
  /// and returns false once the stream is done. Equivalent to
  /// count_all_pairs on the concatenation.
  static PairCounter count_all_pairs_batched(
      common::FunctionRef<bool(QueryTrace&)> next_batch);

  std::uint64_t count(KeywordId i, KeywordId j) const;
  std::size_t distinct_pairs() const { return keys_.size(); }
  std::size_t num_queries() const { return num_queries_; }
  /// Bytes held by the counts — the exact miner's footprint, for
  /// apples-to-apples comparison with StreamMiner::memory_bytes().
  std::size_t memory_bytes() const {
    return (keys_.capacity() + counts_.capacity()) * sizeof(std::uint64_t);
  }

  /// All pairs sorted by descending count (ties by pair), with empirical
  /// probabilities. `min_count` drops noise pairs.
  std::vector<PairCount> sorted_pairs(std::uint64_t min_count = 1) const;

  /// The `k` most frequent pairs (or all, if fewer exist): the head of
  /// sorted_pairs().
  std::vector<PairCount> top_pairs(std::size_t k) const;

 private:
  /// Sorts `keys` (one per pair occurrence, i << width | j), counts their
  /// runs and merges them into the counts; empties `keys`.
  void fold(std::vector<std::uint64_t>& keys, int width);

  std::vector<std::uint64_t> keys_;    // distinct packed pairs, ascending
  std::vector<std::uint64_t> counts_;  // counts_[i] counts keys_[i]
  std::size_t num_queries_ = 0;
};

/// Fig. 2(B) summary: of `reference`'s top-k pairs, the fraction whose
/// probability in `other` is more than double or less than half the
/// reference probability (the paper reports 1.2% across Jan/Feb 2006).
struct StabilityReport {
  std::size_t pairs_compared = 0;
  std::size_t pairs_changed = 0;   // >2x or <0.5x
  double changed_fraction = 0.0;
  /// Mean |log2(other/reference)| over compared pairs — 0 when perfectly
  /// stable; pairs absent from `other` count as a 64x change.
  double mean_abs_log2_ratio = 0.0;
};

StabilityReport compare_stability(const PairCounter& reference,
                                  const PairCounter& other, std::size_t top_k);

}  // namespace cca::trace
