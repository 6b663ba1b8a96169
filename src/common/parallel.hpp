// Deterministic parallel execution substrate.
//
// A fixed-size thread pool with `parallel_for` / `parallel_map` primitives,
// shared by every hot path in the library (best-of-K rounding, trace
// replay, pair counting, bench grids).
//
// Determinism contract — the reason this file exists instead of OpenMP:
// results are BIT-IDENTICAL for any thread count (including 1). The
// primitives guarantee it structurally:
//   * `parallel_for(begin, end, grain, fn)` calls fn(i) exactly once per
//     index; which thread runs an index is unspecified, so fn must only
//     write state disjoint per index (or per pre-sized chunk).
//   * `parallel_map` writes results into an index-ordered vector, so the
//     output order never depends on scheduling.
//   * Callers that reduce floating-point partials must do so in a fixed
//     (index) order after the join — every wired-in user in this repo does.
// Randomized callers additionally derive one independent RNG per work item
// (SplitMix64 from a base seed + item index) instead of sharing a stream.
//
// Thread-count knob: `--threads=N` on every bench (see bench/testbed.hpp)
// or the CCA_THREADS environment variable; default hardware_concurrency.
// A pool of size N uses the calling thread plus N-1 workers, so N=1 is
// the plain sequential loop with zero synchronization.
//
// Nested use: a parallel_for issued from inside a pool task runs inline
// (sequentially) on the issuing thread. This keeps nested parallelism
// deadlock-free and lets outer-level parallelism (bench grid cells) own
// the hardware while inner levels (rounding trials, replay shards)
// degrade gracefully. Likewise, a batch submitted by a thread outside the
// pool while another such thread's batch is live runs inline on its
// caller, so concurrent top-level users never block or abort each other.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace cca::common {

class ThreadPool {
 public:
  /// `num_threads` <= 0 selects the configured default (CCA_THREADS or
  /// hardware_concurrency). A pool of size 1 spawns no worker threads.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs task(i) exactly once for every i in [0, count), distributing
  /// indices over the pool, and blocks until all are done. The first
  /// exception (by lowest index, for determinism) is rethrown on the
  /// calling thread after the batch drains. Reentrant calls from inside a
  /// task, and calls made while another thread's batch is live, run
  /// inline.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task);

  /// True when the current thread is executing a pool task (of any pool);
  /// parallel_for uses this as the nested-use guard.
  static bool in_parallel_region();

 private:
  struct Impl;
  Impl* impl_;
  int num_threads_;
};

/// Number of threads the substrate will use by default: the value set via
/// set_global_threads, else CCA_THREADS, else hardware_concurrency.
int configured_threads();

/// Overrides the global thread count (<= 0 restores the default). Rebuilds
/// the shared pool on next use; not safe to call concurrently with running
/// parallel work — set it at startup or between runs (as the benches and
/// determinism tests do).
void set_global_threads(int num_threads);

/// The process-wide shared pool, built lazily at the configured size.
ThreadPool& global_pool();

namespace detail {
void parallel_for_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       const std::function<void(std::size_t)>& fn);
}  // namespace detail

/// Calls fn(i) for every i in [begin, end), in chunks of `grain`
/// consecutive indices (one task per chunk). Runs inline when the range
/// fits one chunk, the pool has one thread, or we are already inside a
/// pool task. fn must only touch per-index (or per-chunk) state; under
/// that discipline results are identical for every thread count.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  detail::parallel_for_impl(begin, end, grain,
                            std::function<void(std::size_t)>(
                                [&fn](std::size_t i) { fn(i); }));
}

/// parallel_map(n, fn) -> {fn(0), ..., fn(n-1)} in index order. The result
/// type must be default-constructible and movable.
template <typename Fn>
auto parallel_map(std::size_t count, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(count);
  parallel_for(0, count, 1, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Splits [0, count) into the parallel_for chunking for `grain`:
/// consecutive [begin, end) ranges. Exposed so sharded reductions (replay,
/// pair counting) can allocate one accumulator per chunk and merge them in
/// chunk order.
std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(
    std::size_t count, std::size_t grain);

}  // namespace cca::common
