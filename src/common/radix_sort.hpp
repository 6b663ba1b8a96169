// Stable LSD radix sort of records by a packed 64-bit key.
//
// The trace front end aggregates by sorting: mined pair keys into runs to
// count, counted pairs into (count desc, pair asc) order, pairs by cost
// for the importance ranking, and query shapes by their packed head for
// the hyperedge views (common/lex_order.hpp). Every one of those keys is a
// plain integer, so counting passes replace comparison sorts. Only the
// bits in which some key differs from the first are sorted on, in as few
// passes of at most kRadixDigitBits as cover them. Each pass counts digits
// per chunk on the common::parallel pool (inline when issued from a pool
// task) and scatters each chunk at its prefix offsets, so the output is
// the unique stable order for any thread count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace cca::common {

/// Records per chunk: one pool task counts or scatters one chunk.
inline constexpr std::size_t kRadixChunk = std::size_t{1} << 14;
/// Widest digit of one pass: 2^11 buckets keep a chunk's counts in L1.
inline constexpr int kRadixDigitBits = 11;

/// Sorts `items` ascending by key(item) (a std::uint64_t), keeping the
/// input order among equal keys. `key` must be safe to call concurrently.
/// `scratch` is the scatter buffer, at least as long as `items`; its
/// contents are overwritten. A caller that sorts repeatedly (one per
/// hypergraph level) keeps one buffer for all the sorts.
template <typename T, typename KeyFn>
void radix_sort(std::span<T> items, KeyFn key, std::span<T> scratch) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t n = items.size();
  if (n < 2) return;
  CCA_CHECK_MSG(scratch.size() >= n, "radix_sort scratch holds "
                                         << scratch.size() << " of " << n
                                         << " records");
  const auto chunks = chunk_ranges(n, kRadixChunk);
  const auto each_chunk = [&](auto&& body) {
    parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
      body(c, chunks[c].first, chunks[c].second);
    });
  };

  const std::uint64_t first = key(items[0]);
  std::vector<std::uint64_t> chunk_diff(chunks.size(), 0);
  each_chunk([&](std::size_t c, std::size_t begin, std::size_t end) {
    std::uint64_t diff = 0;
    for (std::size_t i = begin; i < end; ++i) diff |= key(items[i]) ^ first;
    chunk_diff[c] = diff;
  });
  std::uint64_t varying = 0;
  for (const std::uint64_t diff : chunk_diff) varying |= diff;
  if (varying == 0) return;
  // Digits tile the bits from the lowest varying one to the highest.
  const int low = std::countr_zero(varying);
  const int span = std::bit_width(varying) - low;
  const int passes = (span + kRadixDigitBits - 1) / kRadixDigitBits;
  const int digit_bits = (span + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit_bits;

  std::vector<std::size_t> next(chunks.size() * buckets);
  T* src = items.data();
  T* dst = scratch.data();
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = low + pass * digit_bits;
    if (((varying >> shift) & (buckets - 1)) == 0) continue;
    const auto digit = [&](const T& item) {
      return static_cast<std::size_t>(key(item) >> shift) & (buckets - 1);
    };
    each_chunk([&](std::size_t c, std::size_t begin, std::size_t end) {
      std::size_t* counts = next.data() + c * buckets;
      std::fill(counts, counts + buckets, 0);
      for (std::size_t i = begin; i < end; ++i) ++counts[digit(src[i])];
    });
    // Digit-major, chunk-minor prefix sums: chunk c's records with digit d
    // land after every earlier chunk's, which is what keeps the pass stable.
    std::size_t offset = 0;
    for (std::size_t d = 0; d < buckets; ++d) {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        const std::size_t count = next[c * buckets + d];
        next[c * buckets + d] = offset;
        offset += count;
      }
    }
    each_chunk([&](std::size_t c, std::size_t begin, std::size_t end) {
      std::size_t* slot = next.data() + c * buckets;
      for (std::size_t i = begin; i < end; ++i)
        dst[slot[digit(src[i])]++] = src[i];
    });
    std::swap(src, dst);
  }
  if (src != items.data()) {
    each_chunk([&](std::size_t, std::size_t begin, std::size_t end) {
      std::copy(src + begin, src + end, items.data() + begin);
    });
  }
}

/// The same with a scatter buffer allocated for this sort alone.
template <typename T, typename KeyFn>
void radix_sort(std::span<T> items, KeyFn key) {
  if (items.size() < 2) return;
  const auto scratch = std::make_unique_for_overwrite<T[]>(items.size());
  radix_sort(items, key, std::span<T>(scratch.get(), items.size()));
}

}  // namespace cca::common
