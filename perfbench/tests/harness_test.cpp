// Self-tests of the benchmark's measurement helpers (harness.hpp): the
// percentile rule, the knee search on synthetic ladders, and span self
// time. Exit code 0 when all pass. (tests/test_run.py checks the metric
// table's names and units.)
//
//   python3 perfbench/run.py --selftest   (builds and runs this)
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::Rung;

void test_percentile_rule() {
  using perfbench::highest_supported_percentile;
  using perfbench::samples_beyond;
  // p99 needs 1000 samples for ten beyond it; 999 leave only nine.
  EXPECT(samples_beyond(1000, 990000) == 10);
  EXPECT(samples_beyond(999, 990000) == 9);
  EXPECT(highest_supported_percentile(999) == 900000);
  // The median needs 20 samples.
  EXPECT(highest_supported_percentile(19) == 0);
  EXPECT(highest_supported_percentile(20) == 500000);
  EXPECT(highest_supported_percentile(100) == 900000);
  EXPECT(highest_supported_percentile(1000) == 990000);
  // A 400k-query pass supports p99.99 (40 beyond) but not p99.999 (4).
  EXPECT(highest_supported_percentile(400000) == 999900);
  EXPECT(samples_beyond(400000, 999990) == 4);
  EXPECT(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  EXPECT(perfbench::median({}) == 0.0);
}

/// A rung whose makespan is `stretch` times its mean arrival span.
Rung rung(double rate, double p99, double stretch = 1.0) {
  const std::uint64_t arrivals = 50000;
  return {rate, arrivals, p99, stretch * 1000.0 * (arrivals - 1) / rate};
}

void test_knee() {
  using perfbench::find_knee;
  const double limit = 10.0;
  // Latency rises with rate; the 32k rung misses the limit. p99 grows
  // 6.25x over that doubling, so it reaches 10 ms at 16000 * 2^0.5.
  const std::vector<Rung> ladder = {rung(2000, 1.0), rung(4000, 1.5),
                                    rung(8000, 2.0), rung(16000, 4.0),
                                    rung(32000, 25.0), rung(64000, 900.0)};
  EXPECT(std::abs(find_knee(ladder, limit).rate_qps - 16000 * std::sqrt(2.0)) <
         1e-6);
  EXPECT(find_knee(ladder, limit).rungs == 4);
  // Every rung meets the limit: the knee is the top rung.
  EXPECT(find_knee({rung(2000, 1.0), rung(4000, 9.0)}, limit).rate_qps ==
         4000);
  // A rung above a miss never counts, even when it looks healthy.
  const std::vector<Rung> lucky = {rung(2000, 1.0), rung(4000, 100.0),
                                   rung(8000, 2.0)};
  EXPECT(find_knee(lucky, limit).rungs == 1);
  EXPECT(std::abs(find_knee(lucky, limit).rate_qps - 2000 * std::sqrt(2.0)) <
         1e-6);
  // p99 under the limit but a growing backlog: the rung does not count,
  // and there is no p99 crossing to interpolate.
  const std::vector<Rung> backlog = {rung(2000, 1.0), rung(4000, 2.0, 1.5)};
  EXPECT(find_knee(backlog, limit).rate_qps == 2000);
  EXPECT(!perfbench::backlog_bounded(backlog[1], limit));
  // Arrival-span noise well inside 2 % is not a backlog.
  EXPECT(perfbench::backlog_bounded(rung(64000, 2.0, 1.01), limit));
  // Nothing meets the limit: knee 0, no rungs counted.
  EXPECT(find_knee({rung(2000, 50.0)}, limit).rate_qps == 0.0);
  EXPECT(find_knee({rung(2000, 50.0)}, limit).rungs == 0);
}

void test_spans() {
  perfbench::Tracer tracer(true);
  {
    perfbench::Tracer::Span outer(tracer, "outer");
    { perfbench::Tracer::Span a(tracer, "child"); }
    { perfbench::Tracer::Span b(tracer, "child"); }
  }
  const auto& records = tracer.records();
  EXPECT(records.size() == 3);
  EXPECT(records[0].parent == -1);
  EXPECT(records[1].parent == 0 && records[2].parent == 0);
  const std::vector<std::int64_t> self = tracer.self_ns();
  const std::int64_t outer = records[0].end_ns - records[0].start_ns;
  const std::int64_t children = (records[1].end_ns - records[1].start_ns) +
                                (records[2].end_ns - records[2].start_ns);
  EXPECT(self[0] == outer - children);
  EXPECT(self[0] >= 0);
  EXPECT(tracer.durations("child").size() == 2);
  std::ostringstream json;
  tracer.write_json(json, "w");
  EXPECT(json.str().find("\"self_ns\"") != std::string::npos);
  // A tracer that is off still times spans but stores nothing.
  perfbench::Tracer off(false);
  perfbench::Tracer::Span span(off, "x");
  EXPECT(span.stop() >= 0.0);
  EXPECT(off.records().empty());
}

}  // namespace

int main() {
  test_percentile_rule();
  test_knee();
  test_spans();
  if (failures == 0) std::printf("harness self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
