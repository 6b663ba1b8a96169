#include "search/block_postings.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "search/compression.hpp"

namespace cca::search {

// ---------------------------------------------------------------------------
// Codec selection.
// ---------------------------------------------------------------------------

namespace {

std::atomic<PostingCodec> g_default_codec{PostingCodec::kBlock};

/// Narrowest lane width in {0,1,2,4,8,16,32,64} that holds `max_value`.
/// Power-of-two widths only, so 64/width lanes tile a word exactly and no
/// lane ever straddles a load.
std::uint8_t width_for(std::uint64_t max_value) {
  const int bits = max_value == 0 ? 0 : std::bit_width(max_value);
  if (bits == 0) return 0;
  if (bits <= 1) return 1;
  if (bits <= 2) return 2;
  if (bits <= 4) return 4;
  if (bits <= 8) return 8;
  if (bits <= 16) return 16;
  if (bits <= 32) return 32;
  return 64;
}

}  // namespace

bool parse_posting_codec(std::string_view text, PostingCodec* out) {
  if (text == "varint") {
    *out = PostingCodec::kVarint;
    return true;
  }
  if (text == "block") {
    *out = PostingCodec::kBlock;
    return true;
  }
  return false;
}

const char* posting_codec_name(PostingCodec codec) {
  return codec == PostingCodec::kVarint ? "varint" : "block";
}

PostingCodec default_posting_codec() {
  return g_default_codec.load(std::memory_order_relaxed);
}

void set_default_posting_codec(PostingCodec codec) {
  g_default_codec.store(codec, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// BlockPostings.
// ---------------------------------------------------------------------------

BlockPostings BlockPostings::encode(const std::uint64_t* ids, std::size_t n) {
  BlockPostings bp;
  bp.count_ = n;
  bp.encoded_bytes_ = varint_length(n);
  if (n == 0) return bp;
  bp.metas_.reserve((n + kBlockSize - 1) / kBlockSize);

  std::uint64_t prev_last = 0;
  for (std::size_t begin = 0; begin < n; begin += kBlockSize) {
    const std::size_t m = std::min(kBlockSize, n - begin);
    BlockMeta meta;
    meta.first = ids[begin];
    meta.last = ids[begin + m - 1];
    meta.word_offset = static_cast<std::uint32_t>(bp.words_.size());
    meta.count = static_cast<std::uint16_t>(m);
    if (begin > 0)
      CCA_CHECK_MSG(meta.first > prev_last,
                    "posting IDs must be strictly increasing");

    std::uint64_t max_gap1 = 0;
    for (std::size_t i = 1; i < m; ++i) {
      CCA_CHECK_MSG(ids[begin + i] > ids[begin + i - 1],
                    "posting IDs must be strictly increasing");
      max_gap1 = std::max(max_gap1, ids[begin + i] - ids[begin + i - 1] - 1);
    }
    meta.width = width_for(max_gap1);

    if (meta.width == 64) {
      for (std::size_t i = 1; i < m; ++i)
        bp.words_.push_back(ids[begin + i] - ids[begin + i - 1] - 1);
    } else if (meta.width > 0) {
      std::uint64_t acc = 0;
      unsigned shift = 0;
      for (std::size_t i = 1; i < m; ++i) {
        acc |= (ids[begin + i] - ids[begin + i - 1] - 1) << shift;
        shift += meta.width;
        if (shift == 64) {
          bp.words_.push_back(acc);
          acc = 0;
          shift = 0;
        }
      }
      if (shift > 0) bp.words_.push_back(acc);
    }

    bp.encoded_bytes_ +=
        1 + varint_length(meta.first - prev_last) +
        varint_length(meta.last - meta.first) +
        8 * (bp.words_.size() - meta.word_offset);
    bp.metas_.push_back(meta);
    prev_last = meta.last;
  }
  return bp;
}

std::size_t BlockPostings::decode_block(std::size_t b,
                                        std::uint64_t* out) const {
  const BlockMeta& meta = metas_[b];
  const std::size_t m = meta.count;
  std::uint64_t prev = meta.first;
  out[0] = prev;
  if (m == 1) return 1;

  const std::uint8_t w = meta.width;
  if (w == 0) {
    // Consecutive run: no payload.
    for (std::size_t i = 1; i < m; ++i) out[i] = ++prev;
    return m;
  }

  const std::uint64_t* word = words_.data() + meta.word_offset;
  if (w == 64) {
    // One raw word per gap (shifting by 64 would be UB in the generic
    // lane loop, so full-width gaps get their own path).
    for (std::size_t i = 1; i < m; ++i) {
      prev += *word++ + 1;
      out[i] = prev;
    }
    return m;
  }

  if (w == 8) {
    // SWAR hot path: one 64-bit load feeds 8 lanes, fully unrolled.
    std::size_t i = 1;
    for (; m - i >= 8; i += 8) {
      const std::uint64_t v = *word++;
      prev += (v & 0xFF) + 1;
      out[i] = prev;
      prev += ((v >> 8) & 0xFF) + 1;
      out[i + 1] = prev;
      prev += ((v >> 16) & 0xFF) + 1;
      out[i + 2] = prev;
      prev += ((v >> 24) & 0xFF) + 1;
      out[i + 3] = prev;
      prev += ((v >> 32) & 0xFF) + 1;
      out[i + 4] = prev;
      prev += ((v >> 40) & 0xFF) + 1;
      out[i + 5] = prev;
      prev += ((v >> 48) & 0xFF) + 1;
      out[i + 6] = prev;
      prev += (v >> 56) + 1;
      out[i + 7] = prev;
    }
    if (i < m) {
      std::uint64_t v = *word;
      for (; i < m; ++i) {
        prev += (v & 0xFF) + 1;
        out[i] = prev;
        v >>= 8;
      }
    }
    return m;
  }

  // Generic SWAR: 64/w lanes per load, shift-mask extraction.
  const unsigned lanes = 64u / w;
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  std::uint64_t v = 0;
  unsigned lane = lanes;
  for (std::size_t i = 1; i < m; ++i) {
    if (lane == lanes) {
      v = *word++;
      lane = 0;
    }
    prev += (v & mask) + 1;
    out[i] = prev;
    v >>= w;
    ++lane;
  }
  return m;
}

void BlockPostings::decode_all(std::vector<std::uint64_t>& out) const {
  out.resize(count_);
  std::uint64_t* p = out.data();
  for (std::size_t b = 0; b < metas_.size(); ++b) p += decode_block(b, p);
}

// ---------------------------------------------------------------------------
// DecodedBlockCache.
// ---------------------------------------------------------------------------

void DecodedBlockCache::begin_epoch(std::uint64_t token) {
  if (bound_ && token == epoch_token_) return;
  bound_ = true;
  epoch_token_ = token;
  slot_of_.clear();
  counts_.clear();  // slabs in chunks_ stay allocated for reuse
}

const std::uint64_t* DecodedBlockCache::get(std::uint32_t list_key,
                                            std::uint32_t b,
                                            const BlockPostings& list,
                                            std::size_t* count_out,
                                            std::uint64_t* fallback) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(list_key) << 32) | b;
  const std::uint64_t found = slot_of_.count(key);
  if (found != 0) {
    ++hits_;
    const std::size_t slot = static_cast<std::size_t>(found - 1);
    *count_out = counts_[slot];
    return slot_ptr(slot);
  }
  ++misses_;
  if (counts_.size() < capacity_) {
    const std::size_t slot = counts_.size();
    if (slot == chunks_.size() * kChunkBlocks)
      chunks_.push_back(std::make_unique<std::uint64_t[]>(
          kChunkBlocks * BlockPostings::kBlockSize));
    std::uint64_t* dst = slot_ptr(slot);
    const std::size_t count = list.decode_block(b, dst);
    counts_.push_back(static_cast<std::uint16_t>(count));
    slot_of_.add(key, slot + 1);
    *count_out = count;
    return dst;
  }
  *count_out = list.decode_block(b, fallback);
  return fallback;
}

// ---------------------------------------------------------------------------
// CompressedIndex.
// ---------------------------------------------------------------------------

CompressedIndex::CompressedIndex(const InvertedIndex& index,
                                 PostingCodec codec)
    : codec_(codec) {
  const std::size_t vocab = index.vocabulary_size();
  counts_.resize(vocab);
  if (codec_ == PostingCodec::kBlock)
    blocks_.resize(vocab);
  else
    varints_.resize(vocab);
  // Lists encode independently on the pool; the totals sum after the join.
  common::parallel_for(0, vocab, 64, [&](std::size_t k) {
    const auto& ids = index.postings(static_cast<trace::KeywordId>(k)).ids();
    counts_[k] = static_cast<std::uint32_t>(ids.size());
    if (codec_ == PostingCodec::kBlock)
      blocks_[k] = BlockPostings::encode(ids);
    else
      varints_[k] = compress_postings(ids);
  });
  for (std::size_t k = 0; k < vocab; ++k) {
    max_postings_ = std::max<std::size_t>(max_postings_, counts_[k]);
    encoded_bytes_ += codec_ == PostingCodec::kBlock
                          ? blocks_[k].encoded_bytes()
                          : varints_[k].size();
  }
}

std::size_t CompressedIndex::postings_count(trace::KeywordId k) const {
  CCA_CHECK_MSG(k < counts_.size(), "keyword " << k << " outside vocabulary");
  return counts_[k];
}

const BlockPostings& CompressedIndex::blocks(trace::KeywordId k) const {
  CCA_CHECK_MSG(k < blocks_.size(), "keyword " << k << " outside vocabulary");
  return blocks_[k];
}

const std::vector<std::uint8_t>& CompressedIndex::varint(
    trace::KeywordId k) const {
  CCA_CHECK_MSG(k < varints_.size(),
                "keyword " << k << " outside vocabulary");
  return varints_[k];
}

void CompressedIndex::decode(trace::KeywordId k,
                             std::vector<std::uint64_t>& out) const {
  if (codec_ == PostingCodec::kBlock)
    blocks(k).decode_all(out);
  else
    decompress_postings_into(varint(k), out);
}

// ---------------------------------------------------------------------------
// Block intersection.
// ---------------------------------------------------------------------------

namespace {

/// Above this list/candidate size ratio the kernel switches from per-block
/// merging to candidate-driven block-max skipping.
constexpr std::size_t kBlockSkipRatio = 8;

}  // namespace

void intersect_with_blocks(const std::uint64_t* a, std::size_t na,
                           const BlockPostings& list, std::uint32_t list_key,
                           DecodedBlockCache* cache,
                           std::vector<std::uint64_t>& out) {
  out.clear();
  if (na == 0 || list.empty()) return;
  const std::size_t nblocks = list.num_blocks();

  std::uint64_t fallback[BlockPostings::kBlockSize];
  const std::uint64_t* blk = nullptr;
  std::size_t blk_n = 0;
  std::size_t decoded = nblocks;  // sentinel: nothing decoded yet
  const auto load = [&](std::size_t b) {
    if (decoded == b) return;
    if (cache) {
      blk = cache->get(list_key, static_cast<std::uint32_t>(b), list, &blk_n,
                       fallback);
    } else {
      blk_n = list.decode_block(b, fallback);
      blk = fallback;
    }
    decoded = b;
  };

  if (list.size() > na * kBlockSkipRatio) {
    // Block-max skip: each candidate first fast-forwards past blocks
    // whose max is below it (skip index only, no decode), then gallops
    // within the single decoded block that may contain it.
    std::size_t b = 0;
    std::size_t lo = 0;  // in-block cursor; candidates ascend
    for (std::size_t i = 0; i < na; ++i) {
      const std::uint64_t id = a[i];
      while (b < nblocks && list.block(b).last < id) ++b;
      if (b == nblocks) break;
      if (list.block(b).first > id) continue;  // in an inter-block gap
      if (decoded != b) lo = 0;
      load(b);
      const std::uint64_t* pos = std::lower_bound(blk + lo, blk + blk_n, id);
      lo = static_cast<std::size_t>(pos - blk);
      if (lo < blk_n && *pos == id) out.push_back(id);
    }
  } else {
    // Comparable sizes: per-block sorted merge, still rejecting whole
    // blocks below the current candidate via the skip index.
    std::size_t ai = 0;
    for (std::size_t b = 0; b < nblocks && ai < na; ++b) {
      if (list.block(b).last < a[ai]) continue;
      if (list.block(b).first > a[na - 1]) break;
      load(b);
      std::size_t j = 0;
      while (ai < na && j < blk_n) {
        if (a[ai] < blk[j]) {
          ++ai;
        } else if (blk[j] < a[ai]) {
          ++j;
        } else {
          out.push_back(a[ai]);
          ++ai;
          ++j;
        }
      }
    }
  }
}

}  // namespace cca::search
