// Flat open-addressing u64 -> u64 counter map.
//
// The sketch miner's candidate index and the decoded-block cache look up
// and bump u64 keys at a high rate; std::unordered_map pays a heap node
// per distinct key and a pointer chase per probe. This table stores
// key/count slots inline in one power-of-two array with linear probing
// (SplitMix64-finalizer hashing).
//
// Key restriction: the all-ones key (~0) is the empty-slot sentinel and
// must not be inserted. Packed keyword pairs can never produce it (a pair
// packs two distinct 32-bit IDs, so high word != low word).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace cca::common {

class FlatCounter64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~0ULL;

  FlatCounter64() = default;

  /// Adds `delta` to the count of `key`, inserting it at 0 first.
  void add(std::uint64_t key, std::uint64_t delta = 1) {
    CCA_CHECK_MSG(key != kEmptyKey, "the all-ones key is reserved");
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) grow();
    Slot& slot = probe(key);
    if (slot.key == kEmptyKey) {
      slot.key = key;
      ++size_;
    }
    slot.count += delta;
  }

  /// Count of `key`; 0 when absent.
  std::uint64_t count(std::uint64_t key) const {
    if (slots_.empty()) return 0;
    const Slot& slot = const_cast<FlatCounter64*>(this)->probe(key);
    return slot.key == kEmptyKey ? 0 : slot.count;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Removes every entry while keeping the slot array (no allocation);
  /// lets epoch-scoped consumers (search::DecodedBlockCache) reset
  /// without paying the regrow on the next fill.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }
  /// Bytes held by the slot array (the table's whole footprint).
  std::size_t memory_bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// Calls fn(key, count) for every entry, in unspecified table order;
  /// consumers needing a stable order must sort (with a total order) after.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_)
      if (slot.key != kEmptyKey) fn(slot.key, slot.count);
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    std::uint64_t count = 0;
  };

  static std::uint64_t mix(std::uint64_t z) {
    // SplitMix64 finalizer: full-avalanche 64-bit mixing.
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  Slot& probe(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (slots_[i].key != kEmptyKey && slots_[i].key != key)
      i = (i + 1) & mask;
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      Slot& fresh = probe(slot.key);
      fresh.key = slot.key;
      fresh.count = slot.count;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cca::common
