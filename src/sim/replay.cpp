#include "sim/replay.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "sim/query_kernel.hpp"

namespace cca::sim {

namespace {

/// One replay shard: a private ClusterDelta (the cluster is only read
/// while shards run), counters and the per-query series, merged in shard
/// order after the join.
class ReplaySink final : public detail::ShardSink {
 public:
  ReplaySink(int num_nodes, const LatencyModel& latency, OperationKind kind)
      : delta(num_nodes),
        latency_(&latency),
        parallel_fanout_(kind == OperationKind::kUnion) {}

  void open(std::size_t begin, std::size_t end) override {
    per_query_bytes.reserve(end - begin);
    per_query_latency.reserve(end - begin);
  }

  // Per-query latency accumulates over the transfers in plan order:
  // summed for sequential intersection steps, maxed for the union fan-out.
  void transfer(int from, int to, std::uint64_t bytes) override {
    delta.record_transfer(from, to, bytes);
    const double ms = latency_->transfer_ms(bytes);
    query_latency_ =
        parallel_fanout_ ? std::max(query_latency_, ms) : query_latency_ + ms;
  }

  void finish(const detail::ArrivalResult& r) override {
    coverage_sum += r.coverage;
    ++partial.queries;
    if (r.requested >= 2) {
      ++partial.multi_keyword_queries;
      if (r.served == r.requested && r.cost.local) ++partial.local_queries;
    }
    partial.total_bytes += r.cost.bytes_transferred;
    partial.total_messages += r.cost.messages;
    per_query_bytes.push_back(static_cast<double>(r.cost.bytes_transferred));
    per_query_latency.push_back(query_latency_ + r.penalty_ms);
    query_latency_ = 0.0;
  }

  ClusterDelta delta;
  ReplayStats partial;
  double coverage_sum = 0.0;
  std::vector<double> per_query_bytes;
  std::vector<double> per_query_latency;

 private:
  const LatencyModel* latency_;
  bool parallel_fanout_;
  double query_latency_ = 0.0;
};

/// Merges the shards in shard order into `cluster` and the whole-run
/// statistics: counters are exact sums, the per-query series concatenate
/// back into arrival order, and coverage sums per shard in shard order.
FaultReplayStats merge(std::vector<ReplaySink>& shards, Cluster& cluster,
                       ReplayCapture* capture) {
  FaultReplayStats stats;
  double coverage_sum = 0.0;
  std::vector<double> per_query_bytes;
  std::vector<double> per_query_latency;
  std::size_t queries = 0;
  for (const ReplaySink& shard : shards) queries += shard.partial.queries;
  per_query_bytes.reserve(queries);
  per_query_latency.reserve(queries);
  for (ReplaySink& shard : shards) {
    stats.base.queries += shard.partial.queries;
    stats.base.multi_keyword_queries += shard.partial.multi_keyword_queries;
    stats.base.local_queries += shard.partial.local_queries;
    stats.base.total_bytes += shard.partial.total_bytes;
    stats.base.total_messages += shard.partial.total_messages;
    stats.fully_served += shard.outcomes.fully_served;
    stats.degraded += shard.outcomes.degraded;
    stats.failed += shard.outcomes.failed;
    stats.retries += shard.outcomes.retries;
    stats.failovers += shard.outcomes.failovers;
    stats.unserved_keywords += shard.outcomes.unserved;
    coverage_sum += shard.coverage_sum;
    per_query_bytes.insert(per_query_bytes.end(),
                           shard.per_query_bytes.begin(),
                           shard.per_query_bytes.end());
    per_query_latency.insert(per_query_latency.end(),
                             shard.per_query_latency.begin(),
                             shard.per_query_latency.end());
    cluster.apply(shard.delta);
  }

  if (!per_query_bytes.empty()) {
    stats.base.mean_bytes_per_query = common::mean_of(per_query_bytes);
    stats.base.p99_bytes_per_query = common::percentile(per_query_bytes, 99.0);
    stats.base.mean_latency_ms = common::mean_of(per_query_latency);
    stats.base.p99_latency_ms = common::percentile(per_query_latency, 99.0);
  }
  if (stats.base.queries > 0) {
    stats.availability = static_cast<double>(stats.fully_served) /
                         static_cast<double>(stats.base.queries);
    stats.mean_coverage =
        coverage_sum / static_cast<double>(stats.base.queries);
  }
  stats.base.max_storage_factor = cluster.max_storage_factor();
  stats.base.storage_imbalance = cluster.storage_imbalance();
  if (capture) {
    capture->per_query_bytes.insert(capture->per_query_bytes.end(),
                                    per_query_bytes.begin(),
                                    per_query_bytes.end());
    capture->per_query_latency.insert(capture->per_query_latency.end(),
                                      per_query_latency.begin(),
                                      per_query_latency.end());
  }
  return stats;
}

}  // namespace

ReplayStats detail::replay_range(Cluster& cluster,
                                 const search::QueryEngine& engine,
                                 const trace::QueryTrace& trace,
                                 std::size_t begin, std::size_t end,
                                 OperationKind kind,
                                 const LatencyModel& latency,
                                 ReplayCapture* capture) {
  const KernelInputs in{engine, cluster.map(), trace, kind};
  std::vector<ReplaySink> shards = run_arrivals(
      in, begin, end, ReplaySink(cluster.num_nodes(), latency, kind));
  const ReplayStats stats = merge(shards, cluster, capture).base;

  // Replay accounting, recorded once per trace after the join. Bytes are
  // split by operation kind so the figure benches (intersection vs Bloom
  // vs union) attribute traffic without re-parsing tables.
  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& replays = reg.counter("sim.replay.calls");
    static common::Counter& queries_total = reg.counter("sim.replay.queries");
    static common::Counter& messages = reg.counter("sim.replay.messages");
    // Indexed by OperationKind.
    static common::Counter* const bytes_by_kind[] = {
        &reg.counter("sim.replay.bytes.intersection"),
        &reg.counter("sim.replay.bytes.intersection_bloom"),
        &reg.counter("sim.replay.bytes.union")};
    static common::Histogram& storage_pct =
        reg.histogram("sim.replay.max_storage_factor_pct");
    replays.add();
    queries_total.add(static_cast<std::int64_t>(stats.queries));
    messages.add(static_cast<std::int64_t>(stats.total_messages));
    bytes_by_kind[static_cast<int>(kind)]->add(
        static_cast<std::int64_t>(stats.total_bytes));
    storage_pct.observe(
        static_cast<std::uint64_t>(100.0 * stats.max_storage_factor));
  }
  return stats;
}

ReplayStats replay_trace(Cluster& cluster, const search::InvertedIndex& index,
                         const trace::QueryTrace& trace, OperationKind kind,
                         std::vector<std::uint64_t> keyword_bytes,
                         const LatencyModel& latency, ReplayCapture* capture) {
  const search::QueryEngine engine =
      keyword_bytes.empty()
          ? search::QueryEngine(index)
          : search::QueryEngine(index, std::move(keyword_bytes));
  return detail::replay_range(cluster, engine, trace, 0, trace.size(), kind,
                              latency, capture);
}

FaultReplayStats replay_trace_with_faults(Cluster& cluster,
                                          const search::InvertedIndex& index,
                                          const trace::QueryTrace& trace,
                                          const FaultReplayConfig& config) {
  CCA_CHECK_MSG(config.arrival_rate_qps > 0.0, "arrival rate must be > 0");
  const search::QueryEngine engine(index);
  const std::vector<double> arrival_ms = detail::poisson_arrivals(
      config.arrival_seed, config.arrival_rate_qps, trace.size());
  // No schedule still walks the replica sets, against an always-alive one.
  const FaultSchedule always_alive(cluster.num_nodes());
  const detail::KernelInputs in{engine, cluster.map(), trace, config.kind,
                                config.faults ? config.faults : &always_alive,
                                &config.retry, &arrival_ms};
  std::vector<ReplaySink> shards = detail::run_arrivals(
      in, 0, trace.size(),
      ReplaySink(cluster.num_nodes(), config.latency, config.kind));
  const FaultReplayStats stats = merge(shards, cluster, nullptr);

  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& replays = reg.counter("sim.fault_replay.calls");
    static common::Counter& queries_total =
        reg.counter("sim.fault_replay.queries");
    static common::Counter& retries = reg.counter("sim.fault_replay.retries");
    static common::Counter& failovers =
        reg.counter("sim.fault_replay.failovers");
    static common::Counter& unserved =
        reg.counter("sim.fault_replay.unserved_keywords");
    static common::Counter& degraded =
        reg.counter("sim.fault_replay.degraded_queries");
    static common::Counter& failed =
        reg.counter("sim.fault_replay.failed_queries");
    static common::Histogram& availability_pct =
        reg.histogram("sim.fault_replay.availability_pct");
    replays.add();
    queries_total.add(static_cast<std::int64_t>(stats.base.queries));
    retries.add(static_cast<std::int64_t>(stats.retries));
    failovers.add(static_cast<std::int64_t>(stats.failovers));
    unserved.add(static_cast<std::int64_t>(stats.unserved_keywords));
    degraded.add(static_cast<std::int64_t>(stats.degraded));
    failed.add(static_cast<std::int64_t>(stats.failed));
    availability_pct.observe(
        static_cast<std::uint64_t>(100.0 * stats.availability));
  }
  return stats;
}

}  // namespace cca::sim
