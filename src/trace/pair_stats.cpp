#include "trace/pair_stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/radix_sort.hpp"

namespace cca::trace {

namespace {

/// Queries per key-extraction chunk (one pool task each).
constexpr std::size_t kExtractGrain = 4096;
/// Pending keys below which a batched count never folds early.
constexpr std::size_t kMinFold = std::size_t{1} << 16;

/// Bits per keyword in the sort keys of a trace's pairs: the key of
/// (i < j) is i << width | j, so the sort covers only the bits ids use.
int pair_key_width(const QueryTrace& trace) {
  const std::size_t vocab = trace.vocabulary_size();
  return vocab > 2 ? std::min(32, static_cast<int>(std::bit_width(vocab - 1)))
                   : 1;
}

/// Appends the packed pairs `emit` writes for each query of `trace` to
/// `keys`, in trace order for any thread count: a first parallel pass
/// sizes each chunk's share with `pairs_of`, a second writes each chunk
/// at its prefix offset.
template <typename PairsOf, typename Emit>
void append_pair_keys(const QueryTrace& trace,
                      std::vector<std::uint64_t>& keys,
                      const PairsOf& pairs_of, const Emit& emit) {
  const std::vector<Query>& queries = trace.queries();
  const auto chunks = common::chunk_ranges(queries.size(), kExtractGrain);
  std::vector<std::size_t> offset(chunks.size() + 1, keys.size());
  common::parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
    std::size_t pairs = 0;
    for (std::size_t q = chunks[c].first; q < chunks[c].second; ++q)
      pairs += pairs_of(queries[q]);
    offset[c + 1] = pairs;
  });
  for (std::size_t c = 0; c < chunks.size(); ++c) offset[c + 1] += offset[c];
  keys.resize(offset.back());
  common::parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
    std::uint64_t* out = keys.data() + offset[c];
    for (std::size_t q = chunks[c].first; q < chunks[c].second; ++q)
      out = emit(queries[q], out);
  });
}

std::size_t all_pairs_of(const Query& q) {
  const std::size_t n = q.keywords.size();
  return n * (n - 1) / 2;
}

/// Emits every pair of a query, keyed at `width` bits per keyword.
auto emit_all_pairs(int width) {
  return [width](const Query& q, std::uint64_t* out) {
    // Keywords are sorted and distinct, so a < b orders each pair.
    for (std::size_t a = 0; a < q.keywords.size(); ++a)
      for (std::size_t b = a + 1; b < q.keywords.size(); ++b)
        *out++ = std::uint64_t{q.keywords[a]} << width | q.keywords[b];
    return out;
  };
}

}  // namespace

std::uint64_t pack_pair(KeywordId i, KeywordId j) {
  CCA_CHECK_MSG(i != j, "self-pair");
  if (i > j) std::swap(i, j);
  return (static_cast<std::uint64_t>(i) << 32) | j;
}

KeywordPair unpack_pair(std::uint64_t packed) {
  return KeywordPair{static_cast<KeywordId>(packed >> 32),
                     static_cast<KeywordId>(packed & 0xFFFFFFFFULL)};
}

void PairCounter::fold(std::vector<std::uint64_t>& keys, int width) {
  if (keys.empty()) return;
  common::radix_sort(std::span<std::uint64_t>(keys),
                     [](std::uint64_t key) { return key; });
  // Keys at `width` bits per keyword order like packed pairs.
  const std::uint64_t low_mask = (std::uint64_t{1} << width) - 1;
  const auto packed = [&](std::uint64_t key) {
    return (key >> width) << 32 | (key & low_mask);
  };
  // Size the merge exactly (memory_bytes() reads capacity): the pairs
  // held so far plus the distinct new ones.
  std::size_t merged_size = keys_.size();
  for (std::size_t i = 0, j = 0; j < keys.size(); ++j) {
    if (j > 0 && keys[j] == keys[j - 1]) continue;
    const std::uint64_t key = packed(keys[j]);
    while (i < keys_.size() && keys_[i] < key) ++i;
    if (i == keys_.size() || keys_[i] != key) ++merged_size;
  }
  // Merge the runs into the counts held so far (both ascending).
  std::vector<std::uint64_t> merged_keys, merged_counts;
  merged_keys.reserve(merged_size);
  merged_counts.reserve(merged_size);
  std::size_t i = 0;
  for (std::size_t j = 0; i < keys_.size() || j < keys.size();) {
    if (j == keys.size() || (i < keys_.size() && keys_[i] < packed(keys[j]))) {
      merged_keys.push_back(keys_[i]);
      merged_counts.push_back(counts_[i++]);
      continue;
    }
    const std::size_t run_begin = j;
    while (j < keys.size() && keys[j] == keys[run_begin]) ++j;
    const std::uint64_t key = packed(keys[run_begin]);
    std::uint64_t count = j - run_begin;
    if (i < keys_.size() && keys_[i] == key) count += counts_[i++];
    merged_keys.push_back(key);
    merged_counts.push_back(count);
  }
  keys_ = std::move(merged_keys);
  counts_ = std::move(merged_counts);
  keys.clear();
}

PairCounter PairCounter::count_all_pairs(const QueryTrace& trace) {
  PairCounter counter;
  counter.num_queries_ = trace.size();
  std::vector<std::uint64_t> keys;
  const int width = pair_key_width(trace);
  append_pair_keys(trace, keys, all_pairs_of, emit_all_pairs(width));
  counter.fold(keys, width);
  return counter;
}

PairCounter PairCounter::count_all_pairs_batched(
    common::FunctionRef<bool(QueryTrace&)> next_batch) {
  PairCounter counter;
  // Batches may differ in vocabulary, so pending keys use the full width.
  std::vector<std::uint64_t> pending;
  QueryTrace batch(0);
  while (next_batch(batch)) {
    counter.num_queries_ += batch.size();
    append_pair_keys(batch, pending, all_pairs_of, emit_all_pairs(32));
    // A fold costs about the counts held so far: folding only once the
    // pending keys outnumber them keeps the whole stream linear.
    if (pending.size() >= std::max(counter.keys_.size(), kMinFold))
      counter.fold(pending, 32);
  }
  counter.fold(pending, 32);
  return counter;
}

PairCounter PairCounter::count_smallest_pair(
    const QueryTrace& trace, const std::vector<std::uint64_t>& object_sizes) {
  CCA_CHECK_MSG(object_sizes.size() >= trace.vocabulary_size(),
                "object_sizes does not cover the vocabulary");
  PairCounter counter;
  counter.num_queries_ = trace.size();
  std::vector<std::uint64_t> keys;
  const int width = pair_key_width(trace);
  append_pair_keys(
      trace, keys,
      [](const Query& q) -> std::size_t { return q.keywords.size() >= 2; },
      [&object_sizes, width](const Query& q, std::uint64_t* out) {
        if (q.keywords.size() < 2) return out;
        // Find the two keywords with the smallest index sizes; ties broken
        // by keyword ID (keywords are sorted, so the first seen wins).
        KeywordId best = q.keywords[0], second = q.keywords[1];
        if (object_sizes[second] < object_sizes[best]) std::swap(best, second);
        for (std::size_t t = 2; t < q.keywords.size(); ++t) {
          const KeywordId k = q.keywords[t];
          if (object_sizes[k] < object_sizes[best]) {
            second = best;
            best = k;
          } else if (object_sizes[k] < object_sizes[second]) {
            second = k;
          }
        }
        *out++ = std::uint64_t{std::min(best, second)} << width |
                 std::max(best, second);
        return out;
      });
  counter.fold(keys, width);
  return counter;
}

std::uint64_t PairCounter::count(KeywordId i, KeywordId j) const {
  const std::uint64_t key = pack_pair(i, j);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  return it != keys_.end() && *it == key ? counts_[it - keys_.begin()] : 0;
}

std::vector<PairCount> PairCounter::sorted_pairs(
    std::uint64_t min_count) const {
  std::vector<PairCount> out;
  out.reserve(keys_.size());
  const double n = num_queries_ > 0 ? static_cast<double>(num_queries_) : 1.0;
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (counts_[i] < min_count) continue;
    out.push_back(PairCount{unpack_pair(keys_[i]), counts_[i],
                            static_cast<double>(counts_[i]) / n});
    top = std::max(top, counts_[i]);
  }
  // The pairs arrive ascending; a stable sort by descending count keeps
  // that order among equal counts.
  common::radix_sort(std::span<PairCount>(out),
                     [top](const PairCount& pc) { return top - pc.count; });
  return out;
}

std::vector<PairCount> PairCounter::top_pairs(std::size_t k) const {
  std::vector<PairCount> out = sorted_pairs();
  if (out.size() > k) out.resize(k);
  return out;
}

StabilityReport compare_stability(const PairCounter& reference,
                                  const PairCounter& other,
                                  std::size_t top_k) {
  StabilityReport report;
  const double other_n =
      other.num_queries() > 0 ? static_cast<double>(other.num_queries()) : 1.0;
  double log_sum = 0.0;
  for (const PairCount& pc : reference.top_pairs(top_k)) {
    ++report.pairs_compared;
    const double other_prob =
        static_cast<double>(other.count(pc.pair.first, pc.pair.second)) /
        other_n;
    const double ratio = other_prob / pc.probability;
    if (ratio > 2.0 || ratio < 0.5) ++report.pairs_changed;
    // An absent pair reads as a 2^64 change rather than infinity so the
    // mean stays finite.
    log_sum += ratio > 0.0 ? std::abs(std::log2(ratio)) : 64.0;
  }
  if (report.pairs_compared > 0) {
    report.changed_fraction = static_cast<double>(report.pairs_changed) /
                              static_cast<double>(report.pairs_compared);
    report.mean_abs_log2_ratio =
        log_sum / static_cast<double>(report.pairs_compared);
  }
  return report;
}

}  // namespace cca::trace
