// Versioned, immutable placement views — the serving-side resolution API.
//
// The paper's pipeline is offline: mine correlations, solve, replay a
// frozen keyword -> node vector. A serving system instead needs a
// swappable VIEW of the placement (cf. DAOS placement maps): queries
// resolve against the epoch they started with while a background lane
// builds the next one. PlacementMap is that view:
//
//   * an EPOCH number (monotonic; each published successor increments it);
//   * the cluster size and replica degree;
//   * an optimized-EXCEPTION table: only keywords whose optimized node
//     differs from the hash rule cost an entry (the paper's Sec. 4.1
//     observation that partial optimization keeps the table small);
//   * a pluggable HASH-TAIL rule for everything else — the historical
//     MD5-mod-N, plus a jump-consistent-hash lane whose defining property
//     is that growing N -> N+1 moves only ~1/(N+1) of the tail (Lamping &
//     Veach), vs the (N-1)/N reshuffle of mod-N rehashing.
//
// resolve(keyword) -> ReplicaSet is the single entry point every consumer
// (replay, event_sim, query engine, recovery, benches) uses; it subsumes
// the former sim::LookupTable (degree 0), sim::ReplicaTable (degree > 0)
// and the search::kEverywhere sentinel (degree = N-1: a full-degree set
// contains every node, so it never causes a transfer).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "trace/trace.hpp"

namespace cca::core {

// ---------------------------------------------------------------------------
// Hash-tail rules.
// ---------------------------------------------------------------------------

enum class HashTail {
  kMd5,   // MD5(keyword name) mod N — the paper's production baseline
  kJump,  // jump consistent hash over the MD5 key — ~1/N movement on grow
};

/// Parses "md5"/"jump"; returns false on anything else (callers attach
/// their own did-you-mean error, see bench/testbed.hpp).
bool parse_hash_tail(std::string_view text, HashTail* out);
const char* hash_tail_name(HashTail tail);

/// Lamping & Veach's jump consistent hash: maps `key` to a bucket in
/// [0, num_buckets) such that going from n to n+1 buckets moves exactly
/// the keys whose bucket becomes n — an expected 1/(n+1) fraction.
std::int32_t jump_consistent_hash(std::uint64_t key, std::int32_t num_buckets);

/// The node the tail rule assigns to `keyword` in an `num_nodes`-cluster.
/// The keyword's MD5 key comes from a process-wide table filled lazily in
/// 4096-id chunks (ids at or above 2^22 are hashed on each call), so map
/// builds and epoch swaps hash each keyword once per process. Thread-safe.
int tail_node(HashTail tail, trace::KeywordId keyword, int num_nodes);

// ---------------------------------------------------------------------------
// Replica-spread rules.
// ---------------------------------------------------------------------------

/// How a keyword's replica tail relates to the failure-domain tree
/// (sim::PoolMap, supplied through PlacementMapConfig::node_rack /
/// rack_row). The PRIMARY always follows correlation co-location; the
/// spread rule only governs where the copies beyond it land.
enum class ReplicaSpread {
  kFlat,  // (primary + r) mod N — domain-blind, the historical tail
  kRack,  // greedy spread: each copy on the least-used rack (Mills et al.)
  kRow,   // greedy spread: least-used row, then least-used rack within it
};

/// Parses "flat"/"rack"/"row"; returns false on anything else (callers
/// attach their own did-you-mean error, see bench/testbed.hpp).
bool parse_replica_spread(std::string_view text, ReplicaSpread* out);
const char* replica_spread_name(ReplicaSpread spread);

// ---------------------------------------------------------------------------
// ReplicaSet: the result of a resolution.
// ---------------------------------------------------------------------------

/// Ordered replica set of one keyword. Slot 0 is the primary (the node
/// the placement computed); with a flat tail, replica r lives on
/// (primary + r) mod N — placement-relative, so co-placed correlated
/// keywords share replica nodes and failover preserves co-location.
/// Under a domain spread (ReplicaSpread::kRack/kRow) the tail instead
/// points into the map's precomputed per-primary successor table: still
/// a pure function of the primary (co-location preserved), but each
/// successive copy lands on the least-loaded failure domain. A
/// full-degree set (degree = N-1) has a copy on every node and never
/// causes a transfer.
///
/// `num_nodes == 0` means "unbounded ring": a degree-0 singleton whose
/// ring the caller never materialized (ad-hoc test placements). Such a
/// set is never `everywhere()`.
///
/// `tail`, when set, borrows the owning PlacementMap's successor table:
/// the set must not outlive the map it was resolved from (every current
/// consumer resolves against an epoch it holds a reference to).
struct ReplicaSet {
  int primary = 0;
  int degree = 0;     // copies beyond the primary
  int num_nodes = 0;  // 0 = unbounded (see above)
  const int* tail = nullptr;  // degree domain-spread successors, or null

  /// A one-node set on an unbounded ring (degree 0, never everywhere).
  static constexpr ReplicaSet single(int node) { return {node, 0, 0}; }

  /// Replica at failover position `slot` in [0, degree].
  int node(int slot) const {
    if (slot > 0 && tail) return tail[slot - 1];
    return num_nodes > 0 ? (primary + slot) % num_nodes : primary + slot;
  }

  /// True when the set has a copy on every node of its ring. (A spread
  /// tail's successors are distinct nodes, so degree + 1 >= N covers the
  /// ring there exactly as in the flat case.)
  bool everywhere() const { return num_nodes > 0 && degree + 1 >= num_nodes; }

  /// True when some replica lives on `n`.
  bool contains(int n) const {
    if (tail) {
      if (n == primary) return true;
      for (int r = 0; r < degree; ++r)
        if (tail[r] == n) return true;
      return false;
    }
    if (num_nodes <= 0) return n >= primary && n - primary <= degree;
    const int offset = ((n - primary) % num_nodes + num_nodes) % num_nodes;
    return offset <= degree;
  }

  /// First alive replica in failover order, trying at most `max_attempts`
  /// slots; returns its node and the slot via `slot_out` (0 = primary),
  /// or -1 / slot -1 when every tried replica is dead. `alive` is indexed
  /// by node.
  int first_alive(const std::vector<char>& alive, int max_attempts,
                  int* slot_out = nullptr) const {
    const int tries = max_attempts < degree + 1 ? max_attempts : degree + 1;
    for (int slot = 0; slot < tries; ++slot) {
      const int n = node(slot);
      if (alive[static_cast<std::size_t>(n)]) {
        if (slot_out) *slot_out = slot;
        return n;
      }
    }
    if (slot_out) *slot_out = -1;
    return -1;
  }

  bool operator==(const ReplicaSet&) const = default;
};

// ---------------------------------------------------------------------------
// PlacementMap.
// ---------------------------------------------------------------------------

struct PlacementMapConfig {
  int num_nodes = 1;
  /// Replicas beyond the primary, in [0, num_nodes - 1]. degree = N-1
  /// replicates everywhere.
  int degree = 0;
  HashTail hash_tail = HashTail::kMd5;
  std::uint64_t epoch = 0;
  /// Replica-tail spread rule. kFlat needs no topology and reproduces
  /// the historical (primary + r) mod N tail byte-identically; kRack /
  /// kRow require the domain vectors below (sim::PoolMap::node_rack() /
  /// rack_row()).
  ReplicaSpread spread = ReplicaSpread::kFlat;
  std::vector<int> node_rack;  // rack of each node (size num_nodes)
  std::vector<int> rack_row;   // row of each rack
  /// Version of the pool map the domain vectors came from; co-published
  /// with the epoch so a placement never outlives its topology
  /// (sim::PlacementService enforces agreement on publish).
  std::uint64_t pool_version = 0;
};

/// Immutable epoch of the serving placement. Thread-safe by construction:
/// once built it never changes, so any number of replay shards may
/// resolve against it while a service publishes a successor.
class PlacementMap {
 public:
  /// Builds the map for an explicit keyword -> node placement: entries
  /// (pins) only where the placement differs from the hash-tail rule.
  static PlacementMap build(const std::vector<int>& keyword_to_node,
                            const PlacementMapConfig& config);

  /// The pure hash placement (no entries at all): every keyword on its
  /// tail node. What "random-hash" serves, and the churn baseline.
  static PlacementMap hashed(std::size_t vocabulary,
                             const PlacementMapConfig& config);

  /// THE resolution entry point: the keyword's replica set. Matches the
  /// installed placement exactly (tested invariant). Under a domain
  /// spread the set borrows this map's successor table — it must not
  /// outlive the epoch it came from.
  ReplicaSet resolve(trace::KeywordId keyword) const {
    const int p = primary(keyword);
    ReplicaSet set{p, degree_, num_nodes_};
    if (!tails_.empty())
      set.tail = tails_.data() + static_cast<std::size_t>(p) * degree_;
    return set;
  }

  /// Slot 0 of resolve(): the node the placement computed.
  int primary(trace::KeywordId keyword) const {
    CCA_CHECK_MSG(keyword < primary_.size(),
                  "keyword " << keyword << " outside vocabulary");
    return primary_[keyword];
  }

  /// True when `keyword` has an exception entry (optimized off its tail
  /// node); pinned keywords keep their node across tail rebalances.
  bool pinned(trace::KeywordId keyword) const {
    CCA_CHECK_MSG(keyword < pinned_.size(),
                  "keyword " << keyword << " outside vocabulary");
    return pinned_[keyword] != 0;
  }

  /// The node the tail rule alone would assign.
  int tail_of(trace::KeywordId keyword) const {
    return tail_node(hash_tail_, keyword, num_nodes_);
  }

  std::uint64_t epoch() const { return epoch_; }

  /// Process-unique identity of this placement view, for epoch-scoped
  /// caches (search::DecodedBlockCache::begin_epoch). Epoch numbers alone
  /// can collide across unrelated maps (two independent builds both start
  /// at epoch 0), so every factory — build/hashed/rebalanced/
  /// with_placement — draws a fresh token from a global counter. Purely a
  /// cache key: never serialized, never compared across runs, and it
  /// affects wall-clock only, never results.
  std::uint64_t cache_token() const { return cache_token_; }

  int num_nodes() const { return num_nodes_; }
  int degree() const { return degree_; }
  HashTail hash_tail() const { return hash_tail_; }
  ReplicaSpread spread() const { return spread_; }
  std::uint64_t pool_version() const { return pool_version_; }
  /// Domain counts under the spread's topology (1 rack / 1 row when flat).
  int num_racks() const {
    return rack_row_.empty() ? 1 : static_cast<int>(rack_row_.size());
  }
  int num_rows() const { return num_rows_; }
  std::size_t vocabulary_size() const { return primary_.size(); }

  /// Exception-table entries (pinned keywords). Any replication forces an
  /// entry per keyword: the hash rule alone locates only degree-0 tails.
  std::size_t entries() const {
    return degree_ == 0 ? pinned_count_ : primary_.size();
  }

  /// Bytes per stored node ID, derived from the cluster size (a 2-byte ID
  /// overflows past 65536 nodes — the former hard-coded 6-byte entry was
  /// wrong there).
  std::size_t node_id_bytes() const;

  /// Serialized table size: entries * (4-byte keyword ID +
  /// node_id_bytes() per stored replica slot).
  std::size_t bytes() const {
    return entries() *
           (4 + node_id_bytes() * static_cast<std::size_t>(degree_ + 1));
  }

  /// The next epoch after resizing the cluster: pinned keywords keep
  /// their node (pins on retired nodes fall back to the tail rule),
  /// unpinned keywords are re-placed by the tail rule at the new size.
  /// With the jump tail a single-node grow moves ~1/N of the tail; the
  /// md5 tail reshuffles ~(N-1)/N of it. Domain-spread maps cannot be
  /// resized this way (the new nodes have no rack) — rebuild from a
  /// resized pool map instead; checked.
  PlacementMap rebalanced(int new_num_nodes) const;

  /// The next epoch carrying a new optimized placement (same tail rule,
  /// degree, and cluster size; epoch + 1) — the re-optimize lane's
  /// publish path.
  PlacementMap with_placement(const std::vector<int>& keyword_to_node) const;

 private:
  PlacementMap() = default;

  void build_spread_tails();

  std::vector<int> primary_;
  std::vector<std::uint8_t> pinned_;  // 1 = exception entry
  std::size_t pinned_count_ = 0;
  int num_nodes_ = 1;
  int degree_ = 0;
  HashTail hash_tail_ = HashTail::kMd5;
  std::uint64_t epoch_ = 0;
  std::uint64_t cache_token_ = 0;
  ReplicaSpread spread_ = ReplicaSpread::kFlat;
  std::vector<int> node_rack_;  // empty when flat
  std::vector<int> rack_row_;   // empty when flat
  int num_rows_ = 1;
  std::uint64_t pool_version_ = 0;
  /// Per-primary spread successors, num_nodes x degree, row-major by
  /// primary; empty when flat or degree 0 (resolve falls back to the
  /// ring).
  std::vector<int> tails_;
};

}  // namespace cca::core
