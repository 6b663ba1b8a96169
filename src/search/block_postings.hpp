// Block-structured posting compression — the serving data plane.
//
// search/compression.hpp's LEB128 codec decodes one byte at a time with a
// data-dependent branch per byte; fine for a size MODEL, hopeless as a
// serving kernel. This module is the execution-side codec:
//
//   * 128-posting frame-of-reference blocks. Gaps are stored as gap-1
//     (IDs are strictly increasing) at a per-block bit width restricted
//     to {0, 1, 2, 4, 8, 16, 32, 64} so packed lanes never straddle a
//     64-bit word. Width 0 is a consecutive run and carries no payload.
//   * A skip index: per-block {first, last(max), offset, count, width}
//     kept as in-memory metadata. Intersection consults `last` to skip
//     whole blocks without touching their payload.
//   * A portable SWAR decoder: each 64-bit load feeds 64/width lanes via
//     shift-mask extraction (8 gaps per load at the width-8 hot path),
//     prefix-summed back into absolute IDs. No intrinsics, no UB.
//   * A bounded, per-epoch decoded-block cache with deterministic
//     admission. The cache only changes wall-clock time: results are
//     byte-identical warm or cold, and a PlacementMap cache-token change
//     (new epoch) invalidates it wholesale.
//
// The scalar varint codec stays selectable (--codec=varint) as the
// ablation baseline; PostingCodec::kBlock is the default. Both codecs
// decode to the same ID sequence, so every cost, result size, and golden
// stdout is identical across codecs — the codec changes time, not
// answers. Sizes reported by the engine's cost model are likewise
// untouched (8 B/posting raw, or the keyword_bytes override).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/flat_hash.hpp"
#include "search/inverted_index.hpp"
#include "trace/trace.hpp"

namespace cca::search {

// ---------------------------------------------------------------------------
// Codec selection.
// ---------------------------------------------------------------------------

enum class PostingCodec {
  kVarint,  // scalar LEB128 gaps (search/compression.hpp) — ablation lane
  kBlock,   // 128-posting FOR blocks + SWAR decode — the default
};

/// Parses "varint"/"block"; returns false on anything else (callers attach
/// their own did-you-mean error, see bench/testbed.hpp).
bool parse_posting_codec(std::string_view text, PostingCodec* out);
const char* posting_codec_name(PostingCodec codec);

/// Process-wide default used by QueryEngine constructors that take no
/// explicit codec (same knob pattern as the LP backend). Benches set it
/// from --codec before building engines.
PostingCodec default_posting_codec();
void set_default_posting_codec(PostingCodec codec);

// ---------------------------------------------------------------------------
// BlockPostings: one keyword's compressed list.
// ---------------------------------------------------------------------------

class BlockPostings {
 public:
  static constexpr std::size_t kBlockSize = 128;

  /// Skip-index entry: everything intersection needs to decide whether a
  /// block can contain a candidate, without decoding it.
  struct BlockMeta {
    std::uint64_t first = 0;        // absolute first ID (the frame base)
    std::uint64_t last = 0;         // block max — the skip key
    std::uint32_t word_offset = 0;  // payload start in words_
    std::uint16_t count = 0;        // postings in this block (<= kBlockSize)
    std::uint8_t width = 0;         // bits per gap-1; 0 = consecutive run

    bool operator==(const BlockMeta&) const = default;
  };

  BlockPostings() = default;

  /// Encodes a strictly increasing ID sequence; throws common::Error on
  /// out-of-order or duplicate IDs.
  static BlockPostings encode(const std::uint64_t* ids, std::size_t n);
  static BlockPostings encode(const std::vector<std::uint64_t>& ids) {
    return encode(ids.data(), ids.size());
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t num_blocks() const { return metas_.size(); }
  const BlockMeta& block(std::size_t b) const { return metas_[b]; }

  /// Decodes block `b` into `out` (capacity >= kBlockSize); returns the
  /// posting count written.
  std::size_t decode_block(std::size_t b, std::uint64_t* out) const;

  /// Decodes the whole list into `out` (reuses capacity; no allocation
  /// once out.capacity() >= size()).
  void decode_all(std::vector<std::uint64_t>& out) const;

  /// Serialized-size model: count varint + per-block header (width byte,
  /// frame-delta varint, skip-max varint) + 8 bytes per payload word.
  /// Reported by benches; the engine's cost model does not use it.
  std::uint64_t encoded_bytes() const { return encoded_bytes_; }

  /// Same payload, skip index and sizes, word for word.
  bool operator==(const BlockPostings&) const = default;

 private:
  std::vector<std::uint64_t> words_;  // packed gap-1 payload
  std::vector<BlockMeta> metas_;      // the skip index
  std::size_t count_ = 0;
  std::uint64_t encoded_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// DecodedBlockCache: bounded, deterministic, epoch-scoped.
// ---------------------------------------------------------------------------

/// Caches decoded blocks across the queries of one replay shard. Not
/// thread-safe — each shard owns one (thread-safety by ownership, like
/// every other shard accumulator). Admission is deterministic: the first
/// `capacity` distinct (list, block) keys seen are admitted, nothing is
/// ever evicted, and overflow decodes into the caller's fallback buffer.
/// Since decoding is exact, a hit and a miss yield identical bytes — the
/// cache can only change wall-clock time, never results.
///
/// begin_epoch(token) binds the cache to a placement epoch
/// (core::PlacementMap::cache_token()); a different token drops every
/// entry, so churn invalidates cleanly. Slab storage is chunked and never
/// reallocates an existing slab: returned pointers stay valid until the
/// next begin_epoch with a new token.
class DecodedBlockCache {
 public:
  static constexpr std::size_t kDefaultCapacityBlocks = 4096;

  explicit DecodedBlockCache(
      std::size_t capacity_blocks = kDefaultCapacityBlocks)
      : capacity_(capacity_blocks) {}

  /// Binds to an epoch; a token change (or the first call) clears the
  /// index while keeping allocated slabs for reuse.
  void begin_epoch(std::uint64_t token);

  /// The decoded contents of `list`'s block `b`, admitting it when under
  /// capacity; otherwise decodes into `fallback` (capacity >=
  /// BlockPostings::kBlockSize). `list_key` must identify the list
  /// uniquely within the epoch (the engine uses the keyword ID). Writes
  /// the posting count to *count_out.
  const std::uint64_t* get(std::uint32_t list_key, std::uint32_t b,
                           const BlockPostings& list, std::size_t* count_out,
                           std::uint64_t* fallback);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t blocks_cached() const { return counts_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::size_t kChunkBlocks = 64;

  std::uint64_t* slot_ptr(std::size_t slot) {
    return chunks_[slot / kChunkBlocks].get() +
           (slot % kChunkBlocks) * BlockPostings::kBlockSize;
  }

  std::size_t capacity_;
  bool bound_ = false;
  std::uint64_t epoch_token_ = 0;
  common::FlatCounter64 slot_of_;  // (list_key << 32 | block) -> slot + 1
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;  // stable slabs
  std::vector<std::uint16_t> counts_;  // per-slot posting count
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

// ---------------------------------------------------------------------------
// CompressedIndex: the whole vocabulary under one codec.
// ---------------------------------------------------------------------------

class CompressedIndex {
 public:
  CompressedIndex() = default;
  CompressedIndex(const InvertedIndex& index, PostingCodec codec);

  PostingCodec codec() const { return codec_; }
  std::size_t vocabulary_size() const { return counts_.size(); }
  std::size_t postings_count(trace::KeywordId k) const;
  /// The longest posting list — what full-decode scratch must hold.
  std::size_t max_postings() const { return max_postings_; }
  /// Total encoded payload bytes under this codec (bench reporting).
  std::uint64_t encoded_bytes() const { return encoded_bytes_; }

  const BlockPostings& blocks(trace::KeywordId k) const;
  const std::vector<std::uint8_t>& varint(trace::KeywordId k) const;

  /// Decodes keyword k's full list into `out` under either codec.
  void decode(trace::KeywordId k, std::vector<std::uint64_t>& out) const;

 private:
  PostingCodec codec_ = PostingCodec::kBlock;
  std::vector<BlockPostings> blocks_;               // kBlock
  std::vector<std::vector<std::uint8_t>> varints_;  // kVarint
  std::vector<std::uint32_t> counts_;
  std::size_t max_postings_ = 0;
  std::uint64_t encoded_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Block intersection kernel.
// ---------------------------------------------------------------------------

/// out = {a} ∩ list, never materializing the list. When the list is much
/// longer than the candidate set, candidates drive block-max skipping
/// (whole blocks rejected via the skip index) with galloping inside the
/// one decoded block; at comparable sizes a per-block sorted merge runs
/// instead. Decoded blocks go through `cache` when non-null (fallback
/// stack buffer otherwise). `a` must be sorted and must not alias `out`.
void intersect_with_blocks(const std::uint64_t* a, std::size_t na,
                           const BlockPostings& list, std::uint32_t list_key,
                           DecodedBlockCache* cache,
                           std::vector<std::uint64_t>& out);

}  // namespace cca::search
