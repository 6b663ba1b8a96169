#include "core/placement_map.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "hash/md5.hpp"

namespace cca::core {

bool parse_hash_tail(std::string_view text, HashTail* out) {
  if (text == "md5") {
    *out = HashTail::kMd5;
    return true;
  }
  if (text == "jump") {
    *out = HashTail::kJump;
    return true;
  }
  return false;
}

const char* hash_tail_name(HashTail tail) {
  return tail == HashTail::kMd5 ? "md5" : "jump";
}

bool parse_replica_spread(std::string_view text, ReplicaSpread* out) {
  if (text == "flat") {
    *out = ReplicaSpread::kFlat;
    return true;
  }
  if (text == "rack") {
    *out = ReplicaSpread::kRack;
    return true;
  }
  if (text == "row") {
    *out = ReplicaSpread::kRow;
    return true;
  }
  return false;
}

const char* replica_spread_name(ReplicaSpread spread) {
  switch (spread) {
    case ReplicaSpread::kFlat:
      return "flat";
    case ReplicaSpread::kRack:
      return "rack";
    case ReplicaSpread::kRow:
      return "row";
  }
  return "flat";
}

std::int32_t jump_consistent_hash(std::uint64_t key,
                                  std::int32_t num_buckets) {
  CCA_CHECK(num_buckets >= 1);
  // Lamping & Veach (2014): each iteration jumps to the next bucket count
  // at which the key would move; the last jump landing below num_buckets
  // is the answer.
  std::int64_t b = -1, j = 0;
  while (j < num_buckets) {
    b = j;
    key = key * 2862933555777941757ULL + 1;
    j = static_cast<std::int64_t>(
        static_cast<double>(b + 1) *
        (static_cast<double>(1LL << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::int32_t>(b);
}

namespace {

/// Md5::digest64(keyword_name(k)) for every id below kBound, computed
/// once per process. Chunks fill under a mutex on first touch and are
/// published through an atomic pointer, so a reader that sees the pointer
/// (acquire) sees the chunk's digests (release). Chunks are never freed,
/// so no reader, on any thread and at any point of shutdown, can be left
/// holding a dangling one.
class KeywordDigestTable {
 public:
  static constexpr std::uint32_t kChunkBits = 12;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  static constexpr std::uint32_t kBound = 1u << 22;

  std::uint64_t digest(trace::KeywordId keyword) {
    if (keyword >= kBound)
      return hash::Md5::digest64(trace::keyword_name(keyword));
    const std::uint64_t* chunk =
        chunks_[keyword >> kChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) chunk = fill(keyword >> kChunkBits);
    return chunk[keyword & (kChunk - 1)];
  }

 private:
  const std::uint64_t* fill(std::uint32_t c) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk != nullptr) return chunk;
    auto* digests = new std::uint64_t[kChunk];
    for (std::uint32_t t = 0; t < kChunk; ++t)
      digests[t] = hash::Md5::digest64(trace::keyword_name(c * kChunk + t));
    chunks_[c].store(digests, std::memory_order_release);
    return digests;
  }

  std::atomic<const std::uint64_t*> chunks_[kBound / kChunk] = {};
  std::mutex mutex_;
};

constinit KeywordDigestTable keyword_digests;

}  // namespace

int tail_node(HashTail tail, trace::KeywordId keyword, int num_nodes) {
  CCA_CHECK(num_nodes >= 1);
  const std::uint64_t key = keyword_digests.digest(keyword);
  if (tail == HashTail::kMd5)
    return static_cast<int>(key % static_cast<std::uint64_t>(num_nodes));
  return static_cast<int>(jump_consistent_hash(key, num_nodes));
}

namespace {

void check_config(const PlacementMapConfig& config) {
  CCA_CHECK(config.num_nodes >= 1);
  CCA_CHECK_MSG(config.degree >= 0 && config.degree < config.num_nodes,
                "replication degree " << config.degree << " needs more than "
                                      << config.num_nodes << " nodes");
  if (config.spread == ReplicaSpread::kFlat) return;
  CCA_CHECK_MSG(config.node_rack.size() ==
                    static_cast<std::size_t>(config.num_nodes),
                "replica spread '" << replica_spread_name(config.spread)
                                   << "' needs a rack per node: got "
                                   << config.node_rack.size()
                                   << " rack assignments for "
                                   << config.num_nodes << " nodes");
  CCA_CHECK_MSG(!config.rack_row.empty(),
                "replica spread '" << replica_spread_name(config.spread)
                                   << "' needs a rack -> row assignment");
  const int racks = static_cast<int>(config.rack_row.size());
  for (int rack : config.node_rack)
    CCA_CHECK_MSG(rack >= 0 && rack < racks,
                  "node rack id " << rack << " out of range [0, " << racks
                                  << ")");
  for (int row : config.rack_row)
    CCA_CHECK_MSG(row >= 0, "rack row id " << row << " is negative");
}

/// Fresh cache_token() value; monotonic so no two maps in a process ever
/// share one (see the accessor's contract).
std::uint64_t next_cache_token() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

PlacementMap PlacementMap::build(const std::vector<int>& keyword_to_node,
                                 const PlacementMapConfig& config) {
  check_config(config);
  PlacementMap map;
  map.cache_token_ = next_cache_token();
  map.primary_ = keyword_to_node;
  map.pinned_.assign(keyword_to_node.size(), 0);
  map.num_nodes_ = config.num_nodes;
  map.degree_ = config.degree;
  map.hash_tail_ = config.hash_tail;
  map.epoch_ = config.epoch;
  map.spread_ = config.spread;
  map.node_rack_ = config.node_rack;
  map.rack_row_ = config.rack_row;
  map.pool_version_ = config.pool_version;
  for (std::size_t k = 0; k < keyword_to_node.size(); ++k) {
    const int node = keyword_to_node[k];
    CCA_CHECK_MSG(node >= 0 && node < config.num_nodes,
                  "keyword " << k << " placed on unknown node " << node);
    const auto keyword = static_cast<trace::KeywordId>(k);
    if (node != tail_node(config.hash_tail, keyword, config.num_nodes)) {
      map.pinned_[k] = 1;
      ++map.pinned_count_;
    }
  }
  map.build_spread_tails();
  return map;
}

PlacementMap PlacementMap::hashed(std::size_t vocabulary,
                                  const PlacementMapConfig& config) {
  check_config(config);
  PlacementMap map;
  map.cache_token_ = next_cache_token();
  map.primary_.resize(vocabulary);
  map.pinned_.assign(vocabulary, 0);
  map.num_nodes_ = config.num_nodes;
  map.degree_ = config.degree;
  map.hash_tail_ = config.hash_tail;
  map.epoch_ = config.epoch;
  map.spread_ = config.spread;
  map.node_rack_ = config.node_rack;
  map.rack_row_ = config.rack_row;
  map.pool_version_ = config.pool_version;
  for (std::size_t k = 0; k < vocabulary; ++k)
    map.primary_[k] = tail_node(config.hash_tail,
                                static_cast<trace::KeywordId>(k),
                                config.num_nodes);
  map.build_spread_tails();
  return map;
}

void PlacementMap::build_spread_tails() {
  num_rows_ = 1;
  for (int row : rack_row_) num_rows_ = std::max(num_rows_, row + 1);
  tails_.clear();
  if (spread_ == ReplicaSpread::kFlat || degree_ == 0) return;

  // Mills et al.'s greedy spread, per primary: each successive copy goes
  // to the node in the least-used failure domain (fewest copies already
  // in its rack for kRack; fewest in its row, then rack, for kRow), ties
  // broken by ring distance from the primary so the flat tail's
  // locality survives where domains permit. The tail depends only on the
  // primary, so co-placed correlated keywords still share replica nodes.
  const int n_nodes = num_nodes_;
  const int n_racks = static_cast<int>(rack_row_.size());
  tails_.resize(static_cast<std::size_t>(n_nodes) *
                static_cast<std::size_t>(degree_));
  std::vector<char> used(static_cast<std::size_t>(n_nodes));
  std::vector<int> rack_uses(static_cast<std::size_t>(n_racks));
  std::vector<int> row_uses(static_cast<std::size_t>(num_rows_));
  for (int p = 0; p < n_nodes; ++p) {
    std::fill(used.begin(), used.end(), 0);
    std::fill(rack_uses.begin(), rack_uses.end(), 0);
    std::fill(row_uses.begin(), row_uses.end(), 0);
    used[static_cast<std::size_t>(p)] = 1;
    const auto rack_of = [&](int n) {
      return node_rack_[static_cast<std::size_t>(n)];
    };
    const auto row_of = [&](int n) {
      return rack_row_[static_cast<std::size_t>(rack_of(n))];
    };
    ++rack_uses[static_cast<std::size_t>(rack_of(p))];
    ++row_uses[static_cast<std::size_t>(row_of(p))];
    for (int slot = 0; slot < degree_; ++slot) {
      int best = -1;
      int best_major = 0, best_minor = 0;
      for (int off = 1; off < n_nodes; ++off) {
        const int n = (p + off) % n_nodes;
        if (used[static_cast<std::size_t>(n)]) continue;
        const int major = spread_ == ReplicaSpread::kRow
                              ? row_uses[static_cast<std::size_t>(row_of(n))]
                              : rack_uses[static_cast<std::size_t>(rack_of(n))];
        const int minor = spread_ == ReplicaSpread::kRow
                              ? rack_uses[static_cast<std::size_t>(rack_of(n))]
                              : 0;
        // First candidate in ring order wins ties: strict < comparison.
        if (best < 0 || major < best_major ||
            (major == best_major && minor < best_minor)) {
          best = n;
          best_major = major;
          best_minor = minor;
        }
      }
      used[static_cast<std::size_t>(best)] = 1;
      ++rack_uses[static_cast<std::size_t>(rack_of(best))];
      ++row_uses[static_cast<std::size_t>(row_of(best))];
      tails_[static_cast<std::size_t>(p) * degree_ + slot] = best;
    }
  }
}

std::size_t PlacementMap::node_id_bytes() const {
  if (num_nodes_ <= 0x100) return 1;
  if (num_nodes_ <= 0x10000) return 2;
  if (num_nodes_ <= 0x1000000) return 3;
  return 4;
}

PlacementMap PlacementMap::rebalanced(int new_num_nodes) const {
  CCA_CHECK(new_num_nodes >= 1);
  CCA_CHECK_MSG(degree_ < new_num_nodes,
                "replication degree " << degree_ << " needs more than "
                                      << new_num_nodes << " nodes");
  CCA_CHECK_MSG(spread_ == ReplicaSpread::kFlat,
                "cannot rebalance a '"
                    << replica_spread_name(spread_)
                    << "'-spread map to a bare node count — the new nodes "
                       "have no rack; rebuild from a resized pool map");
  PlacementMap next;
  next.cache_token_ = next_cache_token();
  next.primary_.resize(primary_.size());
  next.pinned_.assign(primary_.size(), 0);
  next.num_nodes_ = new_num_nodes;
  next.degree_ = degree_;
  next.hash_tail_ = hash_tail_;
  next.epoch_ = epoch_ + 1;
  for (std::size_t k = 0; k < primary_.size(); ++k) {
    const auto keyword = static_cast<trace::KeywordId>(k);
    const int tail = tail_node(hash_tail_, keyword, new_num_nodes);
    if (pinned_[k] && primary_[k] < new_num_nodes) {
      next.primary_[k] = primary_[k];
      if (primary_[k] != tail) {
        next.pinned_[k] = 1;
        ++next.pinned_count_;
      }
    } else {
      // Unpinned, or pinned to a retired node: the tail rule decides.
      next.primary_[k] = tail;
    }
  }
  return next;
}

PlacementMap PlacementMap::with_placement(
    const std::vector<int>& keyword_to_node) const {
  CCA_CHECK_MSG(keyword_to_node.size() == primary_.size(),
                "new placement covers " << keyword_to_node.size()
                                        << " keywords, map has "
                                        << primary_.size());
  PlacementMapConfig config;
  config.num_nodes = num_nodes_;
  config.degree = degree_;
  config.hash_tail = hash_tail_;
  config.epoch = epoch_ + 1;
  config.spread = spread_;
  config.node_rack = node_rack_;
  config.rack_row = rack_row_;
  config.pool_version = pool_version_;
  return build(keyword_to_node, config);
}

}  // namespace cca::core
