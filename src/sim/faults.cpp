#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "sim/pool_map.hpp"

namespace cca::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void sort_events(std::vector<FaultEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
              return a.node < b.node;
            });
}

/// Draws alternating Exp(mttf)/Exp(mttr) down intervals on [0, horizon)
/// from a dedicated substream — the per-entity timeline every level
/// (node, rack, row) shares. An interval whose repair falls past the
/// horizon is open-ended.
std::vector<std::pair<double, double>> draw_down_intervals(
    std::uint64_t stream, double mttf_ms, double mttr_ms, double horizon_ms) {
  common::SplitMix64 stream_seed(stream);
  common::Rng rng(stream_seed());
  std::vector<std::pair<double, double>> intervals;
  double clock = 0.0;
  while (clock < horizon_ms) {
    clock += -std::log(1.0 - rng.next_double()) * mttf_ms;  // up
    if (clock >= horizon_ms) break;
    const double crash = clock;
    clock += -std::log(1.0 - rng.next_double()) * mttr_ms;  // down
    intervals.emplace_back(crash, clock < horizon_ms ? clock : kInf);
  }
  return intervals;
}

const char* domain_name(FaultDomain domain) {
  switch (domain) {
    case FaultDomain::kNode:
      return "node";
    case FaultDomain::kRack:
      return "rack";
    case FaultDomain::kRow:
      return "row";
  }
  return "node";
}

/// One ';'-separated event token, e.g. "rack:2000,0".
DomainFaultEvent parse_fault_event(const std::string& token) {
  const auto bad = [&token](const std::string& why) {
    CCA_CHECK_MSG(false,
                  "--fault-script events are '<kind>:<time_ms>,<id>' with "
                  "kind one of crash, recover, rack, rack-recover, row, "
                  "row-recover; got '"
                      << token << "' (" << why << ")");
  };

  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) bad("missing ':'");
  const std::string kind = token.substr(0, colon);
  DomainFaultEvent event;
  if (kind == "crash") {
    event.domain = FaultDomain::kNode;
    event.kind = FaultEventKind::kCrash;
  } else if (kind == "recover") {
    event.domain = FaultDomain::kNode;
    event.kind = FaultEventKind::kRecover;
  } else if (kind == "rack") {
    event.domain = FaultDomain::kRack;
    event.kind = FaultEventKind::kCrash;
  } else if (kind == "rack-recover") {
    event.domain = FaultDomain::kRack;
    event.kind = FaultEventKind::kRecover;
  } else if (kind == "row") {
    event.domain = FaultDomain::kRow;
    event.kind = FaultEventKind::kCrash;
  } else if (kind == "row-recover") {
    event.domain = FaultDomain::kRow;
    event.kind = FaultEventKind::kRecover;
  } else {
    const std::vector<std::string> accepted = {
        "crash", "recover", "rack", "rack-recover", "row", "row-recover"};
    const std::string hint = common::suggest_value(kind, accepted);
    CCA_CHECK_MSG(false, "--fault-script event kind must be one of "
                             << common::quote_candidates(accepted) << ", got '"
                             << kind << "'"
                             << (hint.empty()
                                     ? std::string()
                                     : " (did you mean '" + hint + "'?)"));
  }

  const std::string rest = token.substr(colon + 1);
  const std::size_t comma = rest.find(',');
  if (comma == std::string::npos) bad("missing ','");
  const std::string time_text = rest.substr(0, comma);
  const std::string id_text = rest.substr(comma + 1);

  char* end = nullptr;
  event.time_ms = std::strtod(time_text.c_str(), &end);
  if (time_text.empty() || end != time_text.c_str() + time_text.size())
    bad("'" + time_text + "' is not a time");
  if (event.time_ms < 0.0) bad("time must be >= 0");
  const long id = std::strtol(id_text.c_str(), &end, 10);
  if (id_text.empty() || end != id_text.c_str() + id_text.size())
    bad("'" + id_text + "' is not a " + domain_name(event.domain) + " id");
  if (id < 0) bad(std::string(domain_name(event.domain)) + " id must be >= 0");
  event.id = static_cast<int>(id);
  return event;
}

}  // namespace

std::vector<DomainFaultEvent> parse_fault_script(const std::string& script) {
  std::vector<DomainFaultEvent> events;
  std::size_t pos = 0;
  while (pos <= script.size()) {
    const std::size_t next = script.find(';', pos);
    const std::size_t end = next == std::string::npos ? script.size() : next;
    const std::string token = script.substr(pos, end - pos);
    if (!token.empty()) events.push_back(parse_fault_event(token));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  for (std::size_t i = 1; i < events.size(); ++i)
    CCA_CHECK_MSG(events[i].time_ms >= events[i - 1].time_ms,
                  "--fault-script event times must be nondecreasing; event "
                      << i << " at " << events[i].time_ms
                      << "ms follows one at " << events[i - 1].time_ms
                      << "ms");
  return events;
}

FaultSchedule::FaultSchedule(int num_nodes) : num_nodes_(num_nodes) {
  CCA_CHECK(num_nodes >= 0);
  down_.resize(static_cast<std::size_t>(num_nodes));
}

FaultSchedule FaultSchedule::generate(int num_nodes,
                                      const FaultScheduleConfig& config) {
  CCA_CHECK(num_nodes >= 1);
  CCA_CHECK_MSG(config.mttf_ms > 0.0 && config.mttr_ms > 0.0,
                "MTTF and MTTR must be positive");
  CCA_CHECK_MSG(config.horizon_ms > 0.0, "fault horizon must be positive");

  FaultSchedule schedule(num_nodes);
  for (int node = 0; node < num_nodes; ++node) {
    // Dedicated substream per node: the timeline of node k is invariant
    // under the total node count's evaluation order.
    auto& intervals = schedule.down_[static_cast<std::size_t>(node)];
    intervals = draw_down_intervals(
        config.seed ^
            (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(node + 1)),
        config.mttf_ms, config.mttr_ms, config.horizon_ms);
    for (const auto& [crash, recover] : intervals) {
      schedule.events_.push_back({crash, node, FaultEventKind::kCrash});
      if (recover < kInf)
        schedule.events_.push_back({recover, node, FaultEventKind::kRecover});
    }
  }
  sort_events(schedule.events_);
  return schedule;
}

FaultSchedule FaultSchedule::from_events(int num_nodes,
                                         std::vector<FaultEvent> events) {
  CCA_CHECK(num_nodes >= 1);
  sort_events(events);
  FaultSchedule schedule(num_nodes);
  // Per-node open crash time while folding the sorted stream.
  std::vector<double> open_crash(static_cast<std::size_t>(num_nodes), -1.0);
  std::vector<char> down(static_cast<std::size_t>(num_nodes), 0);
  for (const FaultEvent& ev : events) {
    CCA_CHECK_MSG(ev.node >= 0 && ev.node < num_nodes,
                  "fault event names unknown node " << ev.node);
    CCA_CHECK_MSG(ev.time_ms >= 0.0, "fault event before time 0");
    auto& is_down = down[static_cast<std::size_t>(ev.node)];
    if (ev.kind == FaultEventKind::kCrash) {
      CCA_CHECK_MSG(!is_down, "node " << ev.node << " crashed twice at "
                                      << ev.time_ms << "ms");
      is_down = 1;
      open_crash[static_cast<std::size_t>(ev.node)] = ev.time_ms;
    } else {
      CCA_CHECK_MSG(is_down, "node " << ev.node
                                     << " recovered while alive at "
                                     << ev.time_ms << "ms");
      is_down = 0;
      schedule.down_[static_cast<std::size_t>(ev.node)].emplace_back(
          open_crash[static_cast<std::size_t>(ev.node)], ev.time_ms);
    }
  }
  for (int node = 0; node < num_nodes; ++node)
    if (down[static_cast<std::size_t>(node)])
      schedule.down_[static_cast<std::size_t>(node)].emplace_back(
          open_crash[static_cast<std::size_t>(node)], kInf);
  schedule.events_ = std::move(events);
  return schedule;
}

FaultSchedule FaultSchedule::from_domain_events(
    const PoolMap& pool, std::vector<DomainFaultEvent> events) {
  const int num_nodes = pool.num_nodes();
  CCA_CHECK(num_nodes >= 1);
  // Stable by time: simultaneous events expand in script order, so the
  // schedule is a pure function of (pool, script).
  std::stable_sort(events.begin(), events.end(),
                   [](const DomainFaultEvent& a, const DomainFaultEvent& b) {
                     return a.time_ms < b.time_ms;
                   });
  std::vector<char> down(static_cast<std::size_t>(num_nodes), 0);
  std::vector<FaultEvent> expanded;
  for (const DomainFaultEvent& ev : events) {
    const bool crash = ev.kind == FaultEventKind::kCrash;
    if (ev.domain == FaultDomain::kNode) {
      CCA_CHECK_MSG(ev.id >= 0 && ev.id < num_nodes,
                    "fault event names unknown node " << ev.id);
      // Node events keep from_events' strict alternation; the check here
      // (rather than there) sees the pre-expansion state, so a node
      // downed by its rack still rejects an individual double-crash.
      auto& is_down = down[static_cast<std::size_t>(ev.id)];
      if (crash)
        CCA_CHECK_MSG(!is_down, "node " << ev.id << " crashed twice at "
                                        << ev.time_ms << "ms");
      else
        CCA_CHECK_MSG(is_down, "node " << ev.id
                                       << " recovered while alive at "
                                       << ev.time_ms << "ms");
      is_down = crash ? 1 : 0;
      expanded.push_back({ev.time_ms, ev.id, ev.kind});
      continue;
    }
    const bool rack = ev.domain == FaultDomain::kRack;
    const int domains = rack ? pool.num_racks() : pool.num_rows();
    CCA_CHECK_MSG(ev.id >= 0 && ev.id < domains,
                  "fault event names unknown " << domain_name(ev.domain) << " "
                                               << ev.id << " (pool has "
                                               << domains << ")");
    // A domain crash downs the members still alive; a domain recovery
    // revives the members still down (including ones that crashed
    // individually — the domain repair brings the whole domain back). A
    // no-op event is a script bug: the author scripted a transition that
    // changed nothing.
    const std::vector<int> members =
        rack ? pool.rack_members(ev.id) : pool.row_members(ev.id);
    bool touched = false;
    for (int node : members) {
      auto& is_down = down[static_cast<std::size_t>(node)];
      if (crash == (is_down != 0)) continue;
      is_down = crash ? 1 : 0;
      expanded.push_back({ev.time_ms, node, ev.kind});
      touched = true;
    }
    CCA_CHECK_MSG(touched, domain_name(ev.domain)
                               << " " << ev.id << " "
                               << (crash ? "crashed while every member was "
                                           "already down at "
                                         : "recovered while alive at ")
                               << ev.time_ms << "ms");
  }
  return from_events(num_nodes, std::move(expanded));
}

namespace {

/// Union of down intervals: sorted by start, overlapping or touching
/// intervals fused ([a,b) + [b,c) = [a,c): dead-at-crash meets
/// alive-at-recover seamlessly).
std::vector<std::pair<double, double>> merge_down_intervals(
    std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& iv : intervals) {
    if (!merged.empty() && iv.first <= merged.back().second)
      merged.back().second = std::max(merged.back().second, iv.second);
    else
      merged.push_back(iv);
  }
  return merged;
}

// Substream tags keeping rack and row draws off the node streams.
constexpr std::uint64_t kRackStreamTag = 0x5241434B5F444F4DULL;
constexpr std::uint64_t kRowStreamTag = 0x524F575F444F4D21ULL;

}  // namespace

FaultSchedule FaultSchedule::generate_hierarchical(
    const PoolMap& pool, const FaultScheduleConfig& config) {
  const int num_nodes = pool.num_nodes();
  CCA_CHECK(num_nodes >= 1);
  CCA_CHECK_MSG(config.mttf_ms > 0.0 && config.mttr_ms > 0.0,
                "MTTF and MTTR must be positive");
  CCA_CHECK_MSG(config.horizon_ms > 0.0, "fault horizon must be positive");
  CCA_CHECK_MSG(config.rack_mttf_ms >= 0.0 && config.row_mttf_ms >= 0.0,
                "domain MTTF must be >= 0 (0 disables the level)");
  CCA_CHECK_MSG(config.rack_mttf_ms == 0.0 || config.rack_mttr_ms > 0.0,
                "rack MTTR must be positive when rack faults are enabled");
  CCA_CHECK_MSG(config.row_mttf_ms == 0.0 || config.row_mttr_ms > 0.0,
                "row MTTR must be positive when row faults are enabled");

  // Per-domain draws first (each from its own substream), then each
  // node's timeline is the union of its own, its rack's, and its row's
  // down intervals. With both domain levels off this is exactly
  // generate(): same node substreams, same intervals, nothing to merge.
  std::vector<std::vector<std::pair<double, double>>> rack_down(
      static_cast<std::size_t>(pool.num_racks()));
  if (config.rack_mttf_ms > 0.0)
    for (int rack = 0; rack < pool.num_racks(); ++rack)
      rack_down[static_cast<std::size_t>(rack)] = draw_down_intervals(
          config.seed ^
              (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(rack + 1)) ^
              kRackStreamTag,
          config.rack_mttf_ms, config.rack_mttr_ms, config.horizon_ms);
  std::vector<std::vector<std::pair<double, double>>> row_down(
      static_cast<std::size_t>(pool.num_rows()));
  if (config.row_mttf_ms > 0.0)
    for (int row = 0; row < pool.num_rows(); ++row)
      row_down[static_cast<std::size_t>(row)] = draw_down_intervals(
          config.seed ^
              (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(row + 1)) ^
              kRowStreamTag,
          config.row_mttf_ms, config.row_mttr_ms, config.horizon_ms);

  FaultSchedule schedule(num_nodes);
  for (int node = 0; node < num_nodes; ++node) {
    auto intervals = draw_down_intervals(
        config.seed ^
            (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(node + 1)),
        config.mttf_ms, config.mttr_ms, config.horizon_ms);
    const auto& rack = rack_down[static_cast<std::size_t>(pool.rack_of(node))];
    intervals.insert(intervals.end(), rack.begin(), rack.end());
    const auto& row = row_down[static_cast<std::size_t>(pool.row_of(node))];
    intervals.insert(intervals.end(), row.begin(), row.end());
    auto& merged = schedule.down_[static_cast<std::size_t>(node)];
    merged = merge_down_intervals(std::move(intervals));
    for (const auto& [crash, recover] : merged) {
      schedule.events_.push_back({crash, node, FaultEventKind::kCrash});
      if (recover < kInf)
        schedule.events_.push_back({recover, node, FaultEventKind::kRecover});
    }
  }
  sort_events(schedule.events_);
  return schedule;
}

bool FaultSchedule::alive(int node, double time_ms) const {
  CCA_CHECK_MSG(node >= 0 && node < num_nodes_,
                "liveness query for unknown node " << node);
  const auto& intervals = down_[static_cast<std::size_t>(node)];
  // First interval starting after time_ms; the predecessor is the only
  // candidate that can cover it.
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), time_ms,
      [](double t, const std::pair<double, double>& iv) { return t < iv.first; });
  if (it == intervals.begin()) return true;
  --it;
  return time_ms >= it->second;  // dead on [crash, recover)
}

LivenessCursor::LivenessCursor(const FaultSchedule& schedule)
    : schedule_(&schedule),
      next_(static_cast<std::size_t>(schedule.num_nodes()), 0),
      alive_(static_cast<std::size_t>(schedule.num_nodes()), 1),
      alive_count_(schedule.num_nodes()),
      now_(-kInf) {}

void LivenessCursor::advance(double time_ms) {
  CCA_CHECK_MSG(time_ms >= now_, "liveness cursor moved back from "
                                     << now_ << "ms to " << time_ms << "ms");
  now_ = time_ms;
  alive_count_ = 0;
  for (std::size_t n = 0; n < next_.size(); ++n) {
    const auto& intervals = schedule_->down_[n];
    std::size_t& i = next_[n];
    while (i < intervals.size() && intervals[i].second <= time_ms) ++i;
    // Dead on [crash, recover): the first interval not yet over covers
    // time_ms iff it has started.
    alive_[n] = i == intervals.size() || time_ms < intervals[i].first;
    alive_count_ += alive_[n];
  }
}

std::vector<int> FaultSchedule::dead_nodes(double time_ms) const {
  std::vector<int> dead;
  for (int node = 0; node < num_nodes_; ++node)
    if (!alive(node, time_ms)) dead.push_back(node);
  return dead;
}

std::vector<bool> FaultSchedule::alive_mask(double time_ms) const {
  std::vector<bool> mask(static_cast<std::size_t>(num_nodes_));
  for (int node = 0; node < num_nodes_; ++node)
    mask[static_cast<std::size_t>(node)] = alive(node, time_ms);
  return mask;
}

std::size_t FaultSchedule::crash_count() const {
  std::size_t crashes = 0;
  for (const FaultEvent& ev : events_)
    if (ev.kind == FaultEventKind::kCrash) ++crashes;
  return crashes;
}

double FaultSchedule::downtime_fraction(int node, double horizon_ms) const {
  CCA_CHECK_MSG(node >= 0 && node < num_nodes_,
                "downtime query for unknown node " << node);
  CCA_CHECK(horizon_ms > 0.0);
  double down_ms = 0.0;
  for (const auto& [crash, recover] :
       down_[static_cast<std::size_t>(node)]) {
    const double begin = std::min(crash, horizon_ms);
    const double end = std::min(recover, horizon_ms);
    down_ms += std::max(0.0, end - begin);
  }
  return down_ms / horizon_ms;
}

double RetryPolicy::backoff_ms(int retry_index, std::uint64_t token) const {
  CCA_CHECK(retry_index >= 1);
  double backoff = base_backoff_ms;
  for (int r = 1; r < retry_index; ++r) {
    backoff *= backoff_multiplier;
    if (backoff >= max_backoff_ms) break;
  }
  backoff = std::min(backoff, max_backoff_ms);
  if (jitter_fraction > 0.0) {
    // Stateless jitter: one SplitMix64 step over (seed, token, retry).
    common::SplitMix64 mix(seed ^ (token * 0xBF58476D1CE4E5B9ULL) ^
                           (static_cast<std::uint64_t>(retry_index)
                            << 32));
    const double unit =
        static_cast<double>(mix() >> 11) * 0x1.0p-53;  // [0, 1)
    backoff *= 1.0 - jitter_fraction + 2.0 * jitter_fraction * unit;
  }
  return backoff;
}

void RetryPolicy::validate() const {
  CCA_CHECK_MSG(timeout_ms >= 0.0,
                "retry timeout must be >= 0ms, got " << timeout_ms);
  CCA_CHECK_MSG(max_attempts >= 1,
                "retry policy needs at least one attempt, got "
                    << max_attempts);
  CCA_CHECK_MSG(base_backoff_ms > 0.0,
                "base backoff must be positive, got " << base_backoff_ms);
  CCA_CHECK_MSG(backoff_multiplier >= 1.0,
                "backoff multiplier must be >= 1, got " << backoff_multiplier);
  CCA_CHECK_MSG(max_backoff_ms >= base_backoff_ms,
                "max backoff " << max_backoff_ms << "ms below base backoff "
                               << base_backoff_ms << "ms");
  CCA_CHECK_MSG(jitter_fraction >= 0.0 && jitter_fraction < 1.0,
                "jitter fraction must be in [0, 1), got " << jitter_fraction);
}

double RetryPolicy::penalty_ms(int failed_attempts,
                               std::uint64_t token) const {
  CCA_CHECK(failed_attempts >= 0);
  double penalty = 0.0;
  for (int a = 1; a <= failed_attempts; ++a) {
    penalty += timeout_ms;
    // A backoff precedes the NEXT attempt; the last failed attempt backs
    // off only if the fetch still has attempts left to spend.
    if (a < max_attempts) penalty += backoff_ms(a, token);
  }
  return penalty;
}

}  // namespace cca::sim
