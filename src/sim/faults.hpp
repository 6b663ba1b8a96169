// Fail-stop fault injection for the serving-layer simulators.
//
// The paper evaluates placement on a healthy cluster; its future-work
// note on replication-degree customization only matters once nodes can
// fail. This module supplies the failure timeline every simulator shares:
// a FaultSchedule is a deterministic, seeded sequence of fail-stop crash
// and recovery events per node (generated from MTTF/MTTR parameters, or
// scripted explicitly), and a RetryPolicy describes how a client reacts
// to a dead server (timeout, capped exponential backoff with seeded
// jitter, bounded attempts).
//
// Determinism contract: both types are pure data + pure functions of
// (config, seed, query token). Nothing here draws from shared RNG state
// at query time, so any replay or event simulation that consults a
// schedule produces bit-identical results for any --threads (the
// common/parallel.hpp contract extends through the fault layer).
//
// Model (documented simplifications, see DESIGN.md "Failure model"):
//   * fail-stop only — a dead node serves nothing and loses no data;
//     its indices are intact when it recovers (crash-recovery, not
//     catastrophic loss). Byzantine behaviour, partial degradation and
//     network partitions are out of scope;
//   * liveness is globally and instantly known at query planning time
//     ONLY through contact attempts — the retry policy charges a timeout
//     per attempt on a dead node, which is how real clients discover
//     failures;
//   * crash and recovery instants are independent across nodes
//     (exponential up/down times) in the baseline model; the
//     hierarchical extension adds CORRELATED failures — whole-rack and
//     whole-row fail-stop events drawn per domain (or scripted), where a
//     domain crash downs every member node at once (a node is dead when
//     itself, its rack, or its row is down).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cca::sim {

class PoolMap;

enum class FaultEventKind { kCrash, kRecover };

/// One fail-stop transition of one node.
struct FaultEvent {
  double time_ms = 0.0;
  int node = 0;
  FaultEventKind kind = FaultEventKind::kCrash;
};

/// Failure-domain granularity of a scripted fault (see PoolMap).
enum class FaultDomain { kNode, kRack, kRow };

/// One fail-stop transition of one domain — a rack crash downs every
/// member node at its instant; a rack recovery revives every member
/// still down.
struct DomainFaultEvent {
  double time_ms = 0.0;
  FaultDomain domain = FaultDomain::kNode;
  int id = 0;  // node / rack / row id per `domain`
  FaultEventKind kind = FaultEventKind::kCrash;
};

/// Parses a `--fault-script` value: ';'-separated events, each
/// `<kind>:<time_ms>,<id>` with kind one of crash, recover (node-level),
/// rack, rack-recover, row, row-recover (domain-level). Malformed kinds
/// fail with a did-you-mean suggestion; times and ids are strictly
/// numeric. Domain ids are validated later, against the pool map, by
/// FaultSchedule::from_domain_events.
std::vector<DomainFaultEvent> parse_fault_script(const std::string& script);

struct FaultScheduleConfig {
  /// Mean time to failure: each node's up-times are Exp(mttf_ms).
  double mttf_ms = 10000.0;
  /// Mean time to repair: each node's down-times are Exp(mttr_ms).
  double mttr_ms = 1000.0;
  /// Events are generated on [0, horizon_ms).
  double horizon_ms = 60000.0;
  std::uint64_t seed = 1;
  /// Correlated whole-domain failures (generate_hierarchical only):
  /// each rack/row additionally draws Exp(mttf)/Exp(mttr) down
  /// intervals from its own substream. 0 disables that level.
  double rack_mttf_ms = 0.0;
  double rack_mttr_ms = 2000.0;
  double row_mttf_ms = 0.0;
  double row_mttr_ms = 5000.0;
};

/// A per-node timeline of fail-stop down intervals, queryable by time.
///
/// Generation draws each node's alternating up/down durations from a
/// dedicated SplitMix64-derived substream of the seed, so the schedule
/// is independent of node evaluation order, thread count, and any other
/// RNG consumer in the process.
class FaultSchedule {
 public:
  /// Always-alive schedule (the healthy-cluster baseline).
  explicit FaultSchedule(int num_nodes = 0);

  /// MTTF/MTTR-generated schedule over `num_nodes` nodes.
  static FaultSchedule generate(int num_nodes,
                                const FaultScheduleConfig& config);

  /// Scripted schedule from explicit events. Events may arrive in any
  /// order; per node they must alternate crash/recover starting from an
  /// alive state (checked). Nodes must be in [0, num_nodes).
  static FaultSchedule from_events(int num_nodes,
                                   std::vector<FaultEvent> events);

  /// Scripted schedule with whole-domain events, expanded against the
  /// pool map: a rack/row crash downs every member node alive at its
  /// instant, a rack/row recovery revives every member still down
  /// (including members that crashed individually beforehand — the
  /// domain repair brings the whole domain back). Node-level events keep
  /// from_events' strict alternation (recover-before-crash is an error),
  /// and a domain event that would be a no-op — crashing an all-down
  /// rack, recovering an all-alive one — is rejected as a script bug.
  static FaultSchedule from_domain_events(const PoolMap& pool,
                                          std::vector<DomainFaultEvent> events);

  /// MTTF/MTTR-generated schedule with correlated domain failures: on
  /// top of each node's own Exp(mttf)/Exp(mttr) timeline, each rack and
  /// row draws down intervals from its dedicated substream when
  /// config.rack_mttf_ms / row_mttf_ms are set; a node is dead while
  /// itself, its rack, or its row is down. With both domain levels
  /// disabled this reproduces generate(pool.num_nodes(), config)
  /// exactly.
  static FaultSchedule generate_hierarchical(const PoolMap& pool,
                                             const FaultScheduleConfig& config);

  int num_nodes() const { return num_nodes_; }

  /// True when `node` is up at `time_ms`. A node is dead on
  /// [crash, recover) — dead at the crash instant, alive at recovery.
  bool alive(int node, double time_ms) const;

  /// Nodes dead at `time_ms`, ascending.
  std::vector<int> dead_nodes(double time_ms) const;

  /// Per-node alive mask at `time_ms` (the RecoveryPlanner input shape).
  std::vector<bool> alive_mask(double time_ms) const;

  /// All transitions, sorted by time (ties by node).
  const std::vector<FaultEvent>& events() const { return events_; }

  std::size_t crash_count() const;

  /// Fraction of [0, horizon_ms) that `node` spends dead.
  double downtime_fraction(int node, double horizon_ms) const;

  /// True when no node ever fails (the trivial schedule).
  bool empty() const { return events_.empty(); }

 private:
  friend class LivenessCursor;
  int num_nodes_ = 0;
  /// Per node: sorted, disjoint [crash, recover) intervals. An interval
  /// whose recovery never happened within the horizon is open-ended
  /// (recover = +infinity).
  std::vector<std::vector<std::pair<double, double>>> down_;
  std::vector<FaultEvent> events_;
};

/// Liveness along a nondecreasing sequence of instants, as one replay
/// shard sees its arrivals. Each node keeps an index to its first down
/// interval not yet over, so a step is amortized O(1) per node instead of
/// alive()'s binary search; the answer is exactly alive()'s.
class LivenessCursor {
 public:
  explicit LivenessCursor(const FaultSchedule& schedule);

  /// Moves to `time_ms` (never before the previous instant) and refreshes
  /// alive() and alive_count().
  void advance(double time_ms);

  /// Per-node mask at the current instant (ReplicaSet::first_alive input).
  const std::vector<char>& alive() const { return alive_; }
  int alive_count() const { return alive_count_; }

 private:
  const FaultSchedule* schedule_;
  std::vector<std::size_t> next_;
  std::vector<char> alive_;
  int alive_count_ = 0;
  double now_;
};

/// Client-side reaction to a dead server: per-attempt timeout, capped
/// exponential backoff between attempts, deterministic seeded jitter.
///
/// The jitter is a pure function of (seed, token, attempt) — callers pass
/// a token identifying the retrying operation (e.g. query index * large
/// prime + keyword), so two threads replaying different query shards
/// compute identical penalties regardless of execution order.
struct RetryPolicy {
  /// Time charged for each contact attempt that hits a dead node.
  double timeout_ms = 5.0;
  /// Total contact attempts per object fetch (over all replicas).
  int max_attempts = 3;
  /// Backoff before retry r (r = 1, 2, ...): min(base * multiplier^(r-1),
  /// max_backoff_ms), scaled by the jitter factor.
  double base_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 64.0;
  /// Jitter scales a backoff by a factor uniform in
  /// [1 - jitter_fraction, 1 + jitter_fraction). 0 disables jitter.
  double jitter_fraction = 0.2;
  std::uint64_t seed = 1;

  /// Backoff before retry `retry_index` (1-based; retry 0 is the first
  /// attempt and has no backoff). Deterministic in (seed, token).
  double backoff_ms(int retry_index, std::uint64_t token) const;

  /// Total time a fetch wastes performing `failed_attempts` contacts on
  /// dead nodes: timeouts plus the backoffs between them.
  double penalty_ms(int failed_attempts, std::uint64_t token) const;

  /// Rejects nonsensical configurations (zero/negative backoff, no
  /// attempts, max below base, jitter outside [0, 1)) with a
  /// common::Error naming the offending field. Flag parsers call this so
  /// a bad --base-backoff-ms dies at startup, not mid-replay.
  void validate() const;
};

}  // namespace cca::sim
