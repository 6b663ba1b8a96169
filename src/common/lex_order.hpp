// Lexicographic order of variable-length id sequences — the sort half of
// a sort-and-merge aggregation.
//
// Hyperedge builders aggregate records keyed by a sequence of ids (a
// query's keywords, a net's pins). A std::map<std::vector<...>, ...>
// gives them a deterministic key order but pays one node allocation and
// pointer-chasing comparisons per insert. Sorting record indices once and
// merging adjacent runs yields the same key order, and lists equal keys
// in index (= insertion) order, so per-key sums accumulate in exactly the
// sequence the map would have used.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace cca::common {

/// Indices [0, count) ordered by seq(i) lexicographically (a proper
/// prefix first), equal sequences by ascending index. `seq(i)` returns a
/// contiguous range of non-negative integers below 2^32 - 1. The first
/// four elements are packed into two integer keys, so most comparisons
/// never touch the sequences themselves. The result and the sort keys
/// come from `alloc`.
template <typename SeqFn, typename Alloc = std::allocator<std::size_t>>
std::vector<std::size_t, Alloc> lexicographic_order(std::size_t count,
                                                    SeqFn seq,
                                                    const Alloc& alloc = {}) {
  struct Keyed {
    std::uint64_t head[2];
    std::size_t index;
  };
  using KeyedAlloc =
      typename std::allocator_traits<Alloc>::template rebind_alloc<Keyed>;
  // Element p shifted up by one so an absent element (0) sorts first.
  const auto pack = [](const auto& s, std::size_t p) {
    const auto at = [&](std::size_t q) -> std::uint64_t {
      return q < s.size() ? static_cast<std::uint32_t>(s[q]) + 1ULL : 0ULL;
    };
    return at(p) << 32 | at(p + 1);
  };
  std::vector<Keyed, KeyedAlloc> keyed(count, KeyedAlloc(alloc));
  for (std::size_t i = 0; i < count; ++i) {
    const auto& s = seq(i);
    keyed[i] = {{pack(s, 0), pack(s, 2)}, i};
  }
  std::sort(keyed.begin(), keyed.end(), [&](const Keyed& a, const Keyed& b) {
    if (a.head[0] != b.head[0]) return a.head[0] < b.head[0];
    if (a.head[1] != b.head[1]) return a.head[1] < b.head[1];
    // Equal heads: both share their first min(4, size) elements, and
    // sequences shorter than four are then equal outright.
    const auto& x = seq(a.index);
    const auto& y = seq(b.index);
    const std::size_t skip = std::min<std::size_t>(4, x.size());
    const auto order = std::lexicographical_compare_three_way(
        x.begin() + skip, x.end(), y.begin() + skip, y.end());
    return order != 0 ? order < 0 : a.index < b.index;
  });
  std::vector<std::size_t, Alloc> order(count, alloc);
  for (std::size_t i = 0; i < count; ++i) order[i] = keyed[i].index;
  return order;
}

}  // namespace cca::common
