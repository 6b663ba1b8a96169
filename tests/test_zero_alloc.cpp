// The zero-allocation serving contract: once a QueryScratch is warmed
// (buffers at their high-water marks, decoded-block cache saturated for
// the trace), re-executing queries through the engine performs ZERO heap
// allocations per query. Asserted with replacement global operator
// new/delete counting on the calling thread — the allocation hook the
// issue tracker calls for. This TU's replacements serve the whole test
// binary; they only count inside an explicitly opened window, so every
// other test pays one branch per allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/parallel.hpp"
#include "core/placement_map.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "sim/cluster.hpp"
#include "sim/event_sim.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace {

// Thread-local so pool threads spawned by other tests never race the
// counter; the serving loop under test is single-threaded per shard by
// design (scratch is per-shard state).
thread_local bool t_counting = false;
thread_local std::uint64_t t_alloc_count = 0;

void* counted_malloc(std::size_t size) {
  if (t_counting) ++t_alloc_count;
  // malloc(0) may return nullptr; operator new must not.
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned(std::size_t size, std::size_t alignment) {
  if (t_counting) ++t_alloc_count;
  void* p = nullptr;
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  if (posix_memalign(&p, alignment, size ? size : alignment) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

// Replacement allocation functions (plain, array, nothrow, aligned, and
// the matching deletes including sized variants). posix_memalign memory
// frees with free(), so one delete family covers both allocators.
void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) ++t_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) ++t_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cca {
namespace {

/// RAII counting window.
struct AllocWindow {
  AllocWindow() {
    t_alloc_count = 0;
    t_counting = true;
  }
  ~AllocWindow() { t_counting = false; }
  std::uint64_t count() const { return t_alloc_count; }
};

// The engine stores a pointer to `index`, so members initialize in
// declaration order and the fixture is neither copied nor moved
// (guaranteed elision on the prvalue return).
struct ServingFixture {
  search::InvertedIndex index;
  trace::QueryTrace trace;
  core::PlacementMap map;
  search::QueryEngine engine;

  ServingFixture()
      : index(search::InvertedIndex::build(
            trace::Corpus::generate(corpus_config()))),
        trace(trace::WorkloadModel(workload_config()).generate(800, 4)),
        map(core::PlacementMap::hashed(500, map_config())),
        engine(index) {}

  ServingFixture(const ServingFixture&) = delete;
  ServingFixture& operator=(const ServingFixture&) = delete;

  static ServingFixture build() { return ServingFixture(); }

 private:
  static trace::CorpusConfig corpus_config() {
    trace::CorpusConfig cfg;
    cfg.num_documents = 800;
    cfg.vocabulary_size = 500;
    cfg.mean_distinct_words = 50.0;
    cfg.seed = 31;
    return cfg;
  }
  static trace::WorkloadConfig workload_config() {
    trace::WorkloadConfig cfg;
    cfg.vocabulary_size = 500;
    cfg.num_topics = 50;
    cfg.seed = 31;
    return cfg;
  }
  static core::PlacementMapConfig map_config() {
    core::PlacementMapConfig cfg;
    cfg.num_nodes = 9;
    return cfg;
  }
};

TEST(ZeroAlloc, HookCountsAllocations) {
  AllocWindow window;
  std::vector<int>* v = new std::vector<int>(100);
  delete v;
  EXPECT_GE(window.count(), 2u);  // the vector object + its buffer
}

TEST(ZeroAlloc, SteadyStateIntersectionAllocatesNothing) {
  const ServingFixture f = ServingFixture::build();
  const auto placement = [&f](trace::KeywordId k) {
    return f.map.resolve(k);
  };
  search::QueryScratch scratch;
  std::size_t max_width = 0;
  for (std::size_t q = 0; q < f.trace.size(); ++q)
    max_width = std::max(max_width, f.trace[q].size());
  scratch.reserve(max_width, f.engine.max_postings());
  scratch.begin_epoch(f.map.cache_token());

  // Warmup pass: buffers reach their high-water marks, the decoded-block
  // cache admits every block this trace touches.
  std::uint64_t warm_bytes = 0;
  for (std::size_t q = 0; q < f.trace.size(); ++q)
    warm_bytes += f.engine
                      .execute_intersection(f.trace[q], placement, {},
                                            &scratch)
                      .bytes_transferred;

  // Steady state: the same queries again, counting every allocation.
  std::uint64_t steady_bytes = 0;
  {
    AllocWindow window;
    for (std::size_t q = 0; q < f.trace.size(); ++q)
      steady_bytes += f.engine
                          .execute_intersection(f.trace[q], placement, {},
                                                &scratch)
                          .bytes_transferred;
    EXPECT_EQ(window.count(), 0u)
        << "steady-state replay loop allocated on " << f.trace.size()
        << " queries";
  }
  EXPECT_EQ(steady_bytes, warm_bytes);  // warm cache changed nothing
}

TEST(ZeroAlloc, SteadyStateUnionAllocatesNothing) {
  const ServingFixture f = ServingFixture::build();
  const auto placement = [&f](trace::KeywordId k) {
    return f.map.resolve(k);
  };
  search::QueryScratch scratch;
  std::size_t max_width = 0;
  for (std::size_t q = 0; q < f.trace.size(); ++q)
    max_width = std::max(max_width, f.trace[q].size());
  scratch.reserve(max_width, f.engine.max_postings());
  scratch.begin_epoch(f.map.cache_token());

  for (std::size_t q = 0; q < f.trace.size(); ++q)
    f.engine.execute_union(f.trace[q], placement, {}, &scratch);

  AllocWindow window;
  for (std::size_t q = 0; q < f.trace.size(); ++q)
    f.engine.execute_union(f.trace[q], placement, {}, &scratch);
  EXPECT_EQ(window.count(), 0u);
}

TEST(ZeroAlloc, ScratchlessCallsDoAllocate) {
  // Sanity check that the assertion above is not vacuous: without a
  // warmed scratch the engine allocates per call.
  const ServingFixture f = ServingFixture::build();
  const auto placement = [&f](trace::KeywordId k) {
    return f.map.resolve(k);
  };
  trace::Query widest;
  for (std::size_t q = 0; q < f.trace.size(); ++q)
    if (f.trace[q].size() > widest.size()) widest = f.trace[q];
  ASSERT_GT(widest.size(), 1u);
  AllocWindow window;
  f.engine.execute_intersection(widest, placement);
  EXPECT_GT(window.count(), 0u);
}

/// Allocations `fn` makes on this thread.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  AllocWindow window;
  fn();
  return window.count();
}

TEST(ZeroAlloc, SimulatorCallsAllocatePerShardNotPerQuery) {
  // One thread: every shard runs on the calling thread, where the hook
  // counts. Each pair of calls differs by six 1024-arrival shards over the
  // same distinct queries, so the per-call costs (engine build, the one
  // reused scratch and its block cache) cancel and the difference is
  // what a shard costs.
  struct Restore {
    ~Restore() { common::set_global_threads(0); }
  } restore;
  common::set_global_threads(1);
  const ServingFixture f = ServingFixture::build();
  sim::Cluster cluster(9, 1e12);
  cluster.install_placement(std::make_shared<const core::PlacementMap>(f.map),
                            f.index.index_sizes());
  const auto cycled = [&f](std::size_t n) {
    trace::QueryTrace t(f.trace.vocabulary_size());
    for (std::size_t q = 0; q < n; ++q)
      t.add_query(f.trace[q % f.trace.size()].keywords);
    return t;
  };
  const trace::QueryTrace small = cycled(2 * 1024);
  const trace::QueryTrace large = cycled(8 * 1024);
  constexpr std::uint64_t kExtraShards = 6;
  constexpr std::uint64_t kPerShard = 32;

  sim::replay_trace(cluster, f.index, large);  // warm-up
  const std::uint64_t replay_small =
      allocations_of([&] { sim::replay_trace(cluster, f.index, small); });
  const std::uint64_t replay_large =
      allocations_of([&] { sim::replay_trace(cluster, f.index, large); });
  EXPECT_LE(replay_large, replay_small + kExtraShards * kPerShard)
      << replay_small << " allocations at 2 shards";

  const sim::FaultSchedule faults = sim::FaultSchedule::from_events(
      9, {{100.0, 0, sim::FaultEventKind::kCrash},
          {900.0, 0, sim::FaultEventKind::kRecover}});
  for (const sim::FaultSchedule* schedule : {
           static_cast<const sim::FaultSchedule*>(nullptr), &faults}) {
    sim::EventSimConfig cfg;
    cfg.arrival_rate_qps = 5000.0;
    cfg.faults = schedule;
    const auto simulate = [&](std::size_t arrivals) {
      cfg.num_queries = arrivals;
      sim::simulate_load(cluster, f.index, f.trace, cfg);
    };
    simulate(8 * 1024);  // warm-up
    const std::uint64_t sim_small = allocations_of([&] { simulate(2 * 1024); });
    const std::uint64_t sim_large = allocations_of([&] { simulate(8 * 1024); });
    EXPECT_LE(sim_large, sim_small + kExtraShards * kPerShard)
        << (schedule ? "faulty" : "healthy") << ": " << sim_small
        << " allocations at 2 shards";
  }
}

}  // namespace
}  // namespace cca
