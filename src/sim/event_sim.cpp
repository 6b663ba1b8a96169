#include "sim/event_sim.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "sim/query_kernel.hpp"

namespace cca::sim {

namespace {

struct Transfer {
  int from = 0;
  std::uint64_t bytes = 0;
};

/// One shard's transfer chains as a flat arena plus per-chain [begin, end)
/// spans — one allocation amortized across the shard's chains, instead of
/// a vector per query. A chain runs from where the previous one ended.
struct ChainStore {
  std::vector<Transfer> transfers;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;

  void close() {
    const std::uint32_t begin = spans.empty() ? 0 : spans.back().second;
    spans.push_back({begin, static_cast<std::uint32_t>(transfers.size())});
  }
  std::uint32_t length(std::uint32_t chain) const {
    return spans[chain].second - spans[chain].first;
  }
  const Transfer& step(std::uint32_t chain, std::uint32_t s) const {
    return transfers[spans[chain].first + s];
  }
};

/// One extraction shard: its arrivals' chains and, under faults, their
/// retry penalties and coverage.
class ChainSink final : public detail::ShardSink {
 public:
  explicit ChainSink(bool faulty) : faulty_(faulty) {}

  void open(std::size_t begin, std::size_t end) override {
    chains.spans.reserve(end - begin);
    if (!faulty_) return;
    penalties.reserve(end - begin);
    coverage.reserve(end - begin);
  }
  void transfer(int from, int, std::uint64_t bytes) override {
    chains.transfers.push_back({from, bytes});
  }
  void finish(const detail::ArrivalResult& r) override {
    chains.close();
    if (!faulty_) return;
    penalties.push_back(r.penalty_ms);
    coverage.push_back(r.coverage);
  }

  ChainStore chains;
  std::vector<double> penalties;
  std::vector<double> coverage;

 private:
  bool faulty_;
};

/// Event: a query step becomes ready to transmit.
struct ReadyEvent {
  double ready_ms = 0.0;
  std::uint32_t query = 0;
  std::uint32_t step = 0;

  bool operator>(const ReadyEvent& other) const {
    return ready_ms > other.ready_ms;
  }
};

}  // namespace

EventSimStats simulate_load(const Cluster& cluster,
                            const search::InvertedIndex& index,
                            const trace::QueryTrace& trace,
                            const EventSimConfig& config) {
  CCA_CHECK_MSG(config.arrival_rate_qps > 0.0, "arrival rate must be > 0");
  CCA_CHECK_MSG(config.nic_mbps > 0.0, "NIC bandwidth must be > 0");
  CCA_CHECK_MSG(!trace.empty(), "empty trace");
  CCA_CHECK(config.num_queries >= 1);
  const bool faulty = config.faults != nullptr;

  // --- Poisson arrivals. ---
  const std::vector<double> arrival_ms = detail::poisson_arrivals(
      config.seed, config.arrival_rate_qps, config.num_queries);

  // --- Transfer chains, one per arrival, extracted on the pool. Under
  // faults a chain depends on the arrival instant, and the retry penalty
  // delays the query's start (client-side time, no NIC occupancy). ---
  const search::QueryEngine engine(index);
  const detail::KernelInputs in{engine, cluster.map(), trace,
                                OperationKind::kIntersection, config.faults,
                                &config.retry, &arrival_ms};
  std::vector<ChainSink> shards =
      detail::run_arrivals(in, 0, config.num_queries, ChainSink(faulty));
  // The shards joined in shard order: chain q is in shard q / kShardGrain
  // (the kernel cuts shards of kShardGrain from arrival 0).
  const auto shard_of = [&shards](std::uint32_t q) -> const ChainSink& {
    return shards[q / detail::kShardGrain];
  };
  const auto length = [&](std::uint32_t q) {
    return shard_of(q).chains.length(q % detail::kShardGrain);
  };
  EventSimStats stats;
  double coverage_sum = 0.0;  // in arrival order
  for (const ChainSink& shard : shards) {
    for (const double coverage : shard.coverage) coverage_sum += coverage;
    stats.retries += shard.outcomes.retries;
    stats.failovers += shard.outcomes.failovers;
    stats.fully_served += shard.outcomes.fully_served;
    stats.degraded += shard.outcomes.degraded;
    stats.failed += shard.outcomes.failed;
  }

  // --- Event loop: non-preemptive FIFO per sender NIC. ---
  const double bytes_per_ms = config.nic_mbps * 1000.0 / 8.0;
  std::vector<double> nic_free(static_cast<std::size_t>(cluster.num_nodes()),
                               0.0);
  std::vector<double> nic_busy(static_cast<std::size_t>(cluster.num_nodes()),
                               0.0);
  std::priority_queue<ReadyEvent, std::vector<ReadyEvent>,
                      std::greater<ReadyEvent>>
      events;
  std::vector<double> latencies;
  latencies.reserve(config.num_queries);

  for (std::uint32_t q = 0; q < config.num_queries; ++q) {
    const double penalty =
        faulty ? shard_of(q).penalties[q % detail::kShardGrain] : 0.0;
    if (length(q) == 0) {
      // Fully local (or fully unserved): no network time, only whatever
      // retry penalty the query burned discovering dead replicas.
      latencies.push_back(penalty);
    } else {
      events.push({arrival_ms[q] + penalty, q, 0});
    }
  }

  double last_completion = 0.0;
  std::size_t events_processed = 0;
  std::size_t max_queue_depth = events.size();
  while (!events.empty()) {
    max_queue_depth = std::max(max_queue_depth, events.size());
    ++events_processed;
    const ReadyEvent ev = events.top();
    events.pop();
    const Transfer& transfer = shard_of(ev.query).chains.step(
        ev.query % detail::kShardGrain, ev.step);

    const double start = std::max(ev.ready_ms, nic_free[transfer.from]);
    const double tx =
        static_cast<double>(transfer.bytes) / bytes_per_ms;
    nic_free[transfer.from] = start + tx;
    nic_busy[transfer.from] += tx;
    const double delivered = start + tx + config.per_message_ms;

    if (ev.step + 1 < length(ev.query)) {
      events.push({delivered, ev.query, ev.step + 1});
    } else {
      latencies.push_back(delivered - arrival_ms[ev.query]);
      last_completion = std::max(last_completion, delivered);
    }
  }

  stats.completed = latencies.size();
  stats.makespan_ms =
      std::max(last_completion, arrival_ms.back()) - arrival_ms.front();
  if (!latencies.empty()) {
    stats.mean_latency_ms = common::mean_of(latencies);
    stats.p50_latency_ms = common::percentile(latencies, 50.0);
    stats.p99_latency_ms = common::percentile(latencies, 99.0);
  }
  stats.availability = static_cast<double>(stats.fully_served) /
                       static_cast<double>(config.num_queries);
  // A healthy run serves every keyword of every query.
  stats.mean_coverage =
      faulty ? coverage_sum / static_cast<double>(config.num_queries) : 1.0;
  if (stats.makespan_ms > 0.0) {
    for (double busy : nic_busy)
      stats.max_nic_utilization =
          std::max(stats.max_nic_utilization, busy / stats.makespan_ms);
  }

  // One record per simulation run (counts accumulated locally above).
  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& runs = reg.counter("sim.eventsim.runs");
    static common::Counter& events_count = reg.counter("sim.eventsim.events");
    static common::Histogram& queue_depth =
        reg.histogram("sim.eventsim.max_queue_depth");
    static common::Histogram& nic_util_pct =
        reg.histogram("sim.eventsim.max_nic_util_pct");
    runs.add();
    events_count.add(static_cast<std::int64_t>(events_processed));
    queue_depth.observe(max_queue_depth);
    nic_util_pct.observe(
        static_cast<std::uint64_t>(100.0 * stats.max_nic_utilization));
    if (faulty) {
      static common::Counter& retries =
          reg.counter("sim.eventsim.retries");
      static common::Counter& failovers =
          reg.counter("sim.eventsim.failovers");
      static common::Counter& degraded =
          reg.counter("sim.eventsim.degraded_queries");
      static common::Histogram& availability_pct =
          reg.histogram("sim.eventsim.availability_pct");
      retries.add(static_cast<std::int64_t>(stats.retries));
      failovers.add(static_cast<std::int64_t>(stats.failovers));
      degraded.add(static_cast<std::int64_t>(stats.degraded + stats.failed));
      availability_pct.observe(
          static_cast<std::uint64_t>(100.0 * stats.availability));
    }
  }
  return stats;
}

}  // namespace cca::sim
