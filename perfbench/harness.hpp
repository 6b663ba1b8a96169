// Measurement helpers of the place-and-serve benchmark: the percentile
// rule, the saturation-knee search, the metric table, and the span
// tracer. Pure functions and one small class, so tests/harness_test.cpp
// can exercise them without building a workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Samples ranked strictly beyond the p-th percentile of n samples, with p
/// given in parts per million (99th = 990000) so the rank is exact integer
/// arithmetic: n - ceil(n * p / 1e6).
inline std::uint64_t samples_beyond(std::uint64_t n, std::uint64_t p_ppm) {
  return n - (n * p_ppm + 999999) / 1000000;
}

/// The timing rule: the highest percentile of the ladder 50, 90, 99,
/// 99.9, 99.99, ... (in ppm) with at least `min_beyond` of `n` samples
/// beyond it; 0 when not even the median has.
inline std::uint64_t highest_supported_percentile(std::uint64_t n,
                                                  std::uint64_t min_beyond = 10) {
  std::uint64_t best = 0;
  for (const std::uint64_t p : {500000ULL, 900000ULL, 990000ULL, 999000ULL,
                                999900ULL, 999990ULL, 999999ULL})
    if (samples_beyond(n, p) >= min_beyond) best = p;
  return best;
}

// ---------------------------------------------------------------------------
// Saturation knee.
// ---------------------------------------------------------------------------

/// One open-loop rate of the event-simulator ladder.
struct Rung {
  double rate_qps = 0.0;
  std::uint64_t arrivals = 0;
  double p99_ms = 0.0;
  /// First arrival to last completion, simulated ms.
  double makespan_ms = 0.0;
};

/// No growing backlog: the run drains within the latency limit of the
/// arrival span. The span is Poisson, so allow 2 % on top of its mean (far
/// beyond its 1/sqrt(arrivals) noise at ladder sizes).
inline bool backlog_bounded(const Rung& rung, double limit_ms) {
  if (rung.arrivals < 2 || rung.rate_qps <= 0.0) return false;
  const double span_ms =
      1000.0 * static_cast<double>(rung.arrivals - 1) / rung.rate_qps;
  return rung.makespan_ms <= 1.02 * span_ms + limit_ms;
}

struct Knee {
  double rate_qps = 0.0;  // 0 = even the lowest rung misses the limit
  std::size_t rungs = 0;  // rungs counted toward the knee (a prefix)
};

/// The highest sustainable rate of an ascending ladder. The rungs counted
/// are the prefix that meets the p99 limit with a bounded backlog;
/// scanning stops at the first miss, so a lucky rung above a saturated
/// one never counts. When that miss is on p99, the rate where p99 reaches
/// the limit is interpolated log-log between the last counted rung and
/// the miss: a doubling ladder's rung alone flips a whole doubling when
/// one traffic sample's p99 lands just either side of the limit.
inline Knee find_knee(const std::vector<Rung>& ladder, double limit_ms) {
  Knee knee;
  for (const Rung& rung : ladder) {
    if (rung.p99_ms > limit_ms || !backlog_bounded(rung, limit_ms)) {
      if (knee.rungs > 0 && rung.p99_ms > limit_ms) {
        const Rung& last = ladder[knee.rungs - 1];
        knee.rate_qps *= std::pow(rung.rate_qps / last.rate_qps,
                                  std::log(limit_ms / last.p99_ms) /
                                      std::log(rung.p99_ms / last.p99_ms));
      }
      break;
    }
    knee.rate_qps = rung.rate_qps;
    ++knee.rungs;
  }
  return knee;
}

// ---------------------------------------------------------------------------
// The metrics the benchmark prints, with their units.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every run.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"plan_s", "s"},
    {"epoch_swap_ms", "ms"},
    {"replay_qps", "queries/s"},
    {"degraded_replay_qps", "queries/s"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"sim_wall_qps", "arrivals/s"},
    {"peak_rss_mib", "MiB"},
    {"bytes_per_query", "B"},
    {"lambda_per_query", "nodes"},
    {"max_load_factor", "ratio"},
    {"sim_p99_ms", "sim_ms"},
    {"availability", "fraction"},
    {"moved_bytes_frac", "fraction"},
};

/// Per-layer metrics, printed by the traced run only.
inline constexpr MetricDef kPerLayer[] = {
    {"trace.generate_s", "s"},
    {"search.index_build_s", "s"},
    {"search.decode_mbps", "MB/s"},
    {"search.decode.block_vs_varint", "ratio"},
    {"search.block_cache.hit_ratio", "ratio"},
    {"search.postings_per_query", "postings"},
    {"search.closed_loop.samples", "count"},
    {"core.mine_s", "s"},
    {"core.rank_s", "s"},
    {"core.hyperedges_s", "s"},
    {"core.instance_s", "s"},
    {"core.pairs", "count"},
    {"core.hyperedges", "count"},
    {"core.strategy.lprr_s", "s"},
    {"core.rounding_s", "s"},
    {"core.rounding.feasible_ratio", "ratio"},
    {"core.strategy.hypergraph_s", "s"},
    {"core.hypergraph.levels", "levels"},
    {"core.map_build_s", "s"},
    {"sim.publish_s", "s"},
    {"core.reoptimize_s", "s"},
    {"core.resolve_ns", "ns"},
    {"lp.solve_s", "s"},
    {"lp.iterations", "count"},
    {"lp.warm_start.hit_ratio", "ratio"},
    {"lp.presolve.removed", "count"},
    {"sim.replay_s", "s"},
    {"sim.replay_qps_1t", "queries/s"},
    {"sim.replay.speedup", "ratio"},
    {"sim.fault_replay_s", "s"},
    {"sim.fault_replay.retries", "count"},
    {"sim.fault_replay.p99_ms", "sim_ms"},
    {"sim.service_replay_s", "s"},
    {"sim.eventsim_s", "s"},
    {"sim.eventsim.events", "count"},
    {"sim.knee_qps", "sim_qps"},
};

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// In-memory span recorder. Every span measures its own duration (the
/// untraced run needs the timings too); only a tracer that is on stores
/// the span (name, start, end, parent) for the exit dump. Spans nest
/// strictly: the benchmark opens them from one thread around calls into
/// the library.
class Tracer {
  using Clock = std::chrono::steady_clock;

 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  const std::vector<Record>& records() const { return records_; }

  /// RAII span; stop() (or the destructor) closes it and returns seconds.
  class Span {
   public:
    Span(Tracer& tracer, std::string name)
        : tracer_(&tracer), start_(Clock::now()) {
      if (tracer.on_) {
        index_ = static_cast<int>(tracer.records_.size());
        tracer.records_.push_back(
            {std::move(name), tracer.ns(start_), 0,
             tracer.open_.empty() ? -1 : tracer.open_.back()});
        tracer.open_.push_back(index_);
      }
    }
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double stop() {
      if (!stopped_) {
        stopped_ = true;
        const Clock::time_point end = Clock::now();
        seconds_ = std::chrono::duration<double>(end - start_).count();
        if (index_ >= 0) {
          tracer_->records_[index_].end_ns = tracer_->ns(end);
          tracer_->open_.pop_back();
        }
      }
      return seconds_;
    }

   private:
    Tracer* tracer_;
    Clock::time_point start_;
    int index_ = -1;
    bool stopped_ = false;
    double seconds_ = 0.0;
  };

  /// Duration minus the part of it that child spans cover. Children of
  /// one parent never overlap (spans nest on one thread), so the covered
  /// part is the sum of the children's durations.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i)
      self[i] = records_[i].end_ns - records_[i].start_ns;
    for (const Record& r : records_)
      if (r.parent >= 0) self[r.parent] -= r.end_ns - r.start_ns;
    return self;
  }

  /// Durations (seconds) of every span named `name`, in opening order.
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Record& r : records_)
      if (r.name == name) out.push_back(1e-9 * (r.end_ns - r.start_ns));
    return out;
  }

  /// Self times (seconds) of every span named `name`.
  std::vector<double> self_durations(std::string_view name) const {
    const std::vector<std::int64_t> self = self_ns();
    std::vector<double> out;
    for (std::size_t i = 0; i < records_.size(); ++i)
      if (records_[i].name == name) out.push_back(1e-9 * self[i]);
    return out;
  }

  /// JSON array of the spans: name, workload, start, end, parent (index
  /// into the array, -1 for a root) and self time, in opening order.
  void write_json(std::ostream& out, std::string_view workload) const {
    const std::vector<std::int64_t> self = self_ns();
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "  {\"name\": \"" << r.name << "\", \"workload\": \"" << workload
          << "\", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
          << ", \"parent\": " << r.parent << ", \"self_ns\": " << self[i] << "}"
          << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]";
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

}  // namespace perfbench
