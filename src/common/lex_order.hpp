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
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/radix_sort.hpp"

namespace cca::common {

/// Record indices sorted by their sequences, cut into runs of equal
/// sequences: the sort-and-merge aggregation's whole input.
struct LexOrder {
  /// Indices ordered by sequence, equal sequences by ascending index.
  std::vector<std::size_t> order;
  /// Group g, one distinct sequence, is order[group_begin[g],
  /// group_begin[g + 1]); the last entry is order.size().
  std::vector<std::size_t> group_begin;

  std::size_t groups() const { return group_begin.size() - 1; }

  /// Calls fn(members) for each group in order; `members` are the group's
  /// indices, ascending, so members.front() is its first record.
  template <typename Fn>
  void for_each_group(Fn fn) const {
    for (std::size_t g = 0; g < groups(); ++g)
      fn(std::span<const std::size_t>(order.data() + group_begin[g],
                                      order.data() + group_begin[g + 1]));
  }

  /// Calls fn(first, sum) for each group in order: `first` is its first
  /// record, `sum` adds weight(i) over its members in ascending index
  /// order, the order a map keyed by sequence would have summed them in.
  /// Aggregations that must stay bit-identical sum through here.
  template <typename WeightFn, typename Fn>
  void for_each_weighted_group(WeightFn weight, Fn fn) const {
    for_each_group([&](std::span<const std::size_t> members) {
      double sum = weight(members[0]);
      for (std::size_t i = 1; i < members.size(); ++i)
        sum += weight(members[i]);
      fn(members[0], sum);
    });
  }
};

/// Packs the leading elements of id sequences into 64-bit sort keys.
/// Element p is stored shifted up by one so an absent element (0) sorts
/// first, in `width` bits; `head` elements share one key.
struct LexPacker {
  std::uint64_t bound;
  int width;
  std::size_t head;

  /// For elements in [0, bound), bound <= 2^32.
  explicit LexPacker(std::uint64_t element_bound)
      : bound(element_bound),
        width(std::max(1, static_cast<int>(std::bit_width(element_bound)))),
        head(64 / static_cast<std::size_t>(width)) {
    CCA_CHECK_MSG(bound <= (std::uint64_t{1} << 32),
                  "sequence elements must stay below 2^32");
  }

  /// The key of s's elements [from, from + head).
  template <typename Seq>
  std::uint64_t key(const Seq& s, std::size_t from) const {
    std::uint64_t key = 0;
    for (std::size_t p = from; p < from + head; ++p) {
      std::uint64_t element = 0;
      if (p < s.size()) {
        element = static_cast<std::uint64_t>(s[p]);
        CCA_CHECK_MSG(element < bound, "sequence element " << element
                                                          << " >= bound "
                                                          << bound);
        ++element;
      }
      key = key << width | element;
    }
    return key;
  }
};

/// One record of the sort: the packed head of sequence `index` and its
/// length, which rides along so runs of short sequences never go back to
/// the sequences themselves.
struct LexKey {
  std::uint64_t key;
  std::uint32_t index;
  std::uint32_t size;  // saturated at 2^32 - 1

  template <typename Seq>
  static LexKey of(const LexPacker& packer, const Seq& s,
                   std::uint32_t index) {
    return {packer.key(s, 0), index,
            static_cast<std::uint32_t>(
                std::min<std::size_t>(s.size(), UINT32_MAX))};
  }
};

/// The run split of the sort-and-merge over caller-built records:
/// `keyed` holds LexKey::of(packer, seq(i), i) for some indices i, built
/// in ascending index order and then stably sorted by key (radix_sort).
/// Finishes the order in place — by sequence, equal sequences by
/// ascending index — and calls on_group(members) once per distinct
/// sequence, in order; `members` is the group's records, indices
/// ascending. A run of equal keys in which some sequence goes on is
/// re-keyed on its next elements and sorted again, so sequences are read
/// once per packed head, never compared element by element.
template <typename SeqFn, typename GroupFn>
void lexicographic_groups(std::span<LexKey> keyed, SeqFn seq,
                          const LexPacker& packer, GroupFn on_group) {
  // Every run of equal keys in a range shares the range's first `from`
  // elements. It is one group unless some member goes on; then its
  // members are re-keyed on the next head elements and sorted by
  // (key, index), and the run is split the same way before the rest of
  // the range (last in, first out), so groups come out in order.
  struct Range {
    std::size_t begin, end, from;
  };
  std::vector<Range> pending{{0, keyed.size(), packer.head}};
  while (!pending.empty()) {
    const Range range = pending.back();
    pending.pop_back();
    for (std::size_t i = range.begin; i < range.end;) {
      std::size_t j = i + 1;
      while (j < range.end && keyed[j].key == keyed[i].key) ++j;
      const std::span<LexKey> run = keyed.subspan(i, j - i);
      if (run.size() > 1 && std::ranges::any_of(run, [&](const LexKey& k) {
            return k.size > range.from;
          })) {
        for (LexKey& k : run) k.key = packer.key(seq(k.index), range.from);
        std::ranges::sort(run, [](const LexKey& a, const LexKey& b) {
          return a.key != b.key ? a.key < b.key : a.index < b.index;
        });
        pending.push_back({j, range.end, range.from});
        pending.push_back({i, j, range.from + packer.head});
        break;
      }
      on_group(std::span<const LexKey>(run));
      i = j;
    }
  }
}

/// Indices [0, count) ordered by seq(i) lexicographically (a proper
/// prefix first), equal sequences by ascending index, with the runs of
/// equal sequences marked. `seq(i)` returns a contiguous range of
/// integers in [0, bound), bound <= 2^32. As many leading elements as fit
/// at the width `bound` needs are packed into one integer key,
/// radix-sorted (common/radix_sort.hpp) and split by
/// lexicographic_groups.
template <typename SeqFn>
LexOrder lexicographic_order(std::size_t count, SeqFn seq,
                             std::uint64_t bound) {
  const LexPacker packer(bound);
  CCA_CHECK_MSG(count <= UINT32_MAX, "more than 2^32 sequences");
  std::vector<LexKey> keyed(count);
  for (std::size_t i = 0; i < count; ++i)
    keyed[i] = LexKey::of(packer, seq(i), static_cast<std::uint32_t>(i));
  radix_sort(std::span<LexKey>(keyed), [](const LexKey& k) { return k.key; });

  LexOrder out{{}, {0}};
  lexicographic_groups(std::span<LexKey>(keyed), seq, packer,
                       [&](std::span<const LexKey> members) {
                         out.group_begin.push_back(out.group_begin.back() +
                                                   members.size());
                       });
  out.order.resize(count);
  for (std::size_t i = 0; i < count; ++i) out.order[i] = keyed[i].index;
  return out;
}

}  // namespace cca::common
