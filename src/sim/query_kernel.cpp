#include "sim/query_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace cca::sim::detail {

namespace {

/// Jitter token of one keyword fetch: unique per (arrival, keyword) and
/// independent of sharding.
std::uint64_t fetch_token(std::size_t arrival, trace::KeywordId k) {
  return static_cast<std::uint64_t>(arrival) * 1000003ULL +
         static_cast<std::uint64_t>(k);
}

search::QueryCost execute(const KernelInputs& in, const trace::Query& query,
                          search::PlacementRef placement, ShardSink& sink,
                          search::QueryScratch& scratch) {
  const auto observer = [&sink](int from, int to, std::uint64_t bytes) {
    sink.transfer(from, to, bytes);
  };
  switch (in.kind) {
    case OperationKind::kIntersectionBloom:
      return in.engine.execute_intersection_bloom(
          query, placement, /*bits_per_key=*/8.0, observer, &scratch);
    case OperationKind::kUnion:
      return in.engine.execute_union(query, placement, observer, &scratch);
    case OperationKind::kIntersection:
      break;
  }
  return in.engine.execute_intersection(query, placement, observer, &scratch);
}

}  // namespace

std::vector<double> poisson_arrivals(std::uint64_t seed, double rate_qps,
                                     std::size_t count) {
  common::Rng rng(seed ^ 0x51ABCDEF1234ULL);
  const double mean_gap_ms = 1000.0 / rate_qps;
  std::vector<double> arrival_ms(count);
  double clock = 0.0;
  for (double& t : arrival_ms) {
    clock += -std::log(1.0 - rng.next_double()) * mean_gap_ms;
    t = clock;
  }
  return arrival_ms;
}

void run_shards(const KernelInputs& in, std::size_t begin, std::size_t end,
                common::FunctionRef<ShardSink&(std::size_t)> sink_of) {
  if (in.faults)
    CCA_CHECK_MSG(in.faults->num_nodes() == in.map.num_nodes(),
                  "fault schedule covers " << in.faults->num_nodes()
                                           << " nodes, cluster has "
                                           << in.map.num_nodes());
  const std::size_t n = in.trace.size();
  std::size_t max_width = 0;
  for (std::size_t q = begin; q < std::min(end, begin + n); ++q)
    max_width = std::max(max_width, in.trace[q % n].size());
  const int degree = in.map.degree();
  const bool fully_replicated = degree == in.map.num_nodes() - 1;
  // A free list of scratch: each worker reuses one (and its decoded-block
  // cache, which only changes speed) across the shards it runs.
  std::mutex scratch_mutex;
  std::vector<std::unique_ptr<search::QueryScratch>> free_scratch;

  const auto shards = common::chunk_ranges(end - begin, kShardGrain);
  common::parallel_for(0, shards.size(), 1, [&](std::size_t c) {
    const std::size_t lo = begin + shards[c].first;
    const std::size_t hi = begin + shards[c].second;
    ShardSink& sink = sink_of(c);
    Outcomes& outcomes = sink.outcomes;
    sink.open(lo, hi);
    std::unique_ptr<search::QueryScratch> scratch;
    {
      const std::lock_guard<std::mutex> lock(scratch_mutex);
      if (!free_scratch.empty()) {
        scratch = std::move(free_scratch.back());
        free_scratch.pop_back();
      }
    }
    if (!scratch) {
      scratch = std::make_unique<search::QueryScratch>();
      scratch->reserve(max_width, in.engine.max_postings());
      scratch->begin_epoch(in.map.cache_token());
    }
    std::optional<LivenessCursor> liveness;
    if (in.faults) liveness.emplace(*in.faults);
    trace::Query sub;
    std::vector<core::ReplicaSet> resolved;  // parallel to sub.keywords
    sub.keywords.reserve(max_width);
    resolved.reserve(max_width);
    const auto resolve = [&](trace::KeywordId k) { return in.map.resolve(k); };
    const auto sub_placement = [&](trace::KeywordId k) {
      for (std::size_t i = 0; i < sub.keywords.size(); ++i)
        if (sub.keywords[i] == k) return resolved[i];
      // Unreachable: the engine only asks about sub's keywords.
      return core::ReplicaSet::single(0);
    };

    for (std::size_t q = lo; q < hi; ++q) {
      const trace::Query& query = in.trace[q % n];
      ArrivalResult result;
      result.requested = query.size();
      if (!in.faults) {
        result.cost = execute(in, query, resolve, sink, *scratch);
        result.served = query.size();
      } else {
        // The failover walk: each keyword fetch walks its replica set in
        // failover order at the arrival instant, charging the retry
        // policy per dead contact; keywords no tried replica answers drop
        // out and the query runs over the rest. A fully replicated keyword
        // is served wherever execution lands, iff anything is alive.
        const RetryPolicy& retry = *in.retry;
        liveness->advance((*in.arrival_ms)[q]);
        sub.keywords.clear();
        resolved.clear();
        for (const trace::KeywordId k : query.keywords) {
          core::ReplicaSet set = in.map.resolve(k);
          bool served = liveness->alive_count() > 0;
          if (!fully_replicated) {
            int slot = -1;
            const int node = set.first_alive(liveness->alive(),
                                             retry.max_attempts, &slot);
            const int failed_attempts =
                node >= 0 ? slot : std::min(retry.max_attempts, degree + 1);
            if (failed_attempts > 0) {
              outcomes.retries += static_cast<std::uint64_t>(failed_attempts);
              result.penalty_ms +=
                  retry.penalty_ms(failed_attempts, fetch_token(q, k));
            }
            if (slot > 0) ++outcomes.failovers;
            served = node >= 0;
            if (served) set = core::ReplicaSet::single(node);
          }
          if (!served) {
            ++outcomes.unserved;
            continue;
          }
          sub.keywords.push_back(k);
          resolved.push_back(set);
        }
        if (!sub.keywords.empty())
          result.cost = execute(in, sub, sub_placement, sink, *scratch);
        result.served = sub.keywords.size();
        if (query.size() > 0)
          result.coverage = static_cast<double>(result.served) /
                            static_cast<double>(query.size());
      }
      if (result.served == result.requested)
        ++outcomes.fully_served;
      else if (result.served > 0)
        ++outcomes.degraded;
      else
        ++outcomes.failed;
      sink.finish(result);
    }
    const std::lock_guard<std::mutex> lock(scratch_mutex);
    free_scratch.push_back(std::move(scratch));
  });
}

}  // namespace cca::sim::detail
