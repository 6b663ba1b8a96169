// The one per-query kernel behind every trace simulator: replay_trace,
// replay_trace_with_faults, replay_trace_with_service and both paths of
// simulate_load are thin callers. Internal to cca_sim.
//
// The kernel shards a range of arrivals over the common::parallel pool
// (arrival q runs trace query q % trace.size()), resolves each query —
// through the placement map on a healthy run, through the one failover
// walk under faults — and executes it with the caller's per-shard sink as
// the transfer observer. Callers own the reduction: they merge their
// sinks in shard order after the join, so every statistic is
// bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/function_ref.hpp"
#include "common/parallel.hpp"
#include "core/placement_map.hpp"
#include "search/query_engine.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/latency.hpp"
#include "sim/replay.hpp"
#include "trace/trace.hpp"

namespace cca::sim::detail {

/// Arrivals per shard. Boundaries never change a result (callers merge
/// exact integer sums, per-arrival values concatenated in arrival order,
/// or per-shard sums in shard order), so the grain only trades dispatch
/// cost against load balance.
constexpr std::size_t kShardGrain = 1024;

struct KernelInputs {
  const search::QueryEngine& engine;
  const core::PlacementMap& map;
  const trace::QueryTrace& trace;
  OperationKind kind = OperationKind::kIntersection;
  /// nullptr resolves through the map's full replica sets (a healthy
  /// run); otherwise each fetch walks its set at the arrival's instant
  /// (arrival_ms, indexed by arrival) under `retry`.
  const FaultSchedule* faults = nullptr;
  const RetryPolicy* retry = nullptr;
  const std::vector<double>* arrival_ms = nullptr;
};

/// Outcome counts of a shard's arrivals, kept by the kernel (integers:
/// shards merge in any order).
struct Outcomes {
  std::size_t fully_served = 0;  // every keyword served
  std::size_t degraded = 0;      // some keywords served
  std::size_t failed = 0;        // no keyword served
  std::uint64_t retries = 0;     // contacts that hit a dead node
  std::uint64_t failovers = 0;   // keywords served by a non-primary replica
  std::uint64_t unserved = 0;    // keywords no tried replica answered
};

/// What one arrival produced besides its transfers.
struct ArrivalResult {
  search::QueryCost cost;
  std::size_t requested = 0;  // keywords in the trace query
  std::size_t served = 0;     // keywords in the executed (sub-)query
  double coverage = 1.0;      // served / requested; 1 for an empty query
  double penalty_ms = 0.0;    // timeouts + backoffs on dead replicas
};

/// One shard's consumer. open() runs first on the shard's thread; then,
/// per arrival in order, its transfers stream in plan order and finish()
/// closes it.
class ShardSink {
 public:
  virtual void open(std::size_t begin, std::size_t end) = 0;
  virtual void transfer(int from, int to, std::uint64_t bytes) = 0;
  virtual void finish(const ArrivalResult& result) = 0;

  Outcomes outcomes;

 protected:
  ~ShardSink() = default;
};

/// Runs arrivals [begin, end) on the pool in shards of kShardGrain,
/// shard c (arrivals begin + c * kShardGrain onward) into sink_of(c).
void run_shards(const KernelInputs& in, std::size_t begin, std::size_t end,
                common::FunctionRef<ShardSink&(std::size_t)> sink_of);

/// run_shards with one sink per shard, each a copy of `prototype`,
/// returned in shard order.
template <typename Sink>
std::vector<Sink> run_arrivals(const KernelInputs& in, std::size_t begin,
                               std::size_t end, const Sink& prototype) {
  std::vector<Sink> sinks((end - begin + kShardGrain - 1) / kShardGrain,
                          prototype);
  run_shards(in, begin, end,
             [&](std::size_t c) -> ShardSink& { return sinks[c]; });
  return sinks;
}

/// `count` open-loop Poisson arrival instants at `rate_qps`, drawn
/// sequentially from `seed`: the same timeline for any thread count.
std::vector<double> poisson_arrivals(std::uint64_t seed, double rate_qps,
                                     std::size_t count);

/// replay_trace over arrivals [begin, end) with a prebuilt engine,
/// appending to `capture` when non-null: the placement service replays
/// all its epoch segments through one engine.
ReplayStats replay_range(Cluster& cluster, const search::QueryEngine& engine,
                         const trace::QueryTrace& trace, std::size_t begin,
                         std::size_t end, OperationKind kind,
                         const LatencyModel& latency, ReplayCapture* capture);

}  // namespace cca::sim::detail
