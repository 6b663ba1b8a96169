#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/check.hpp"

namespace cca::common {

namespace {

thread_local bool tls_in_parallel_region = false;

/// Marks task execution for the nested-use guard; saves and restores the
/// previous value so nested inline regions do not clear the outer flag.
struct RegionGuard {
  bool previous = tls_in_parallel_region;
  RegionGuard() { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = previous; }
};

}  // namespace

struct ThreadPool::Impl {
  // One batch at a time: indices are claimed from an atomic cursor; the
  // caller participates, so a pool of size N runs N-way parallel with N-1
  // spawned workers. The batch is shared-owned because a slow worker may
  // still be probing the cursor after the caller has collected the
  // results. Exceptions are recorded per index (each slot has a single
  // writer) and the lowest-index one is rethrown for determinism.
  struct Batch {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* task = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::vector<std::exception_ptr> errors;
  };

  std::mutex mutex;
  std::condition_variable work_cv;   // workers wait for a batch
  std::condition_variable done_cv;   // caller waits for completion
  std::shared_ptr<Batch> batch;      // non-null while a batch is live
  std::uint64_t batch_epoch = 0;     // bumps per batch so workers re-check
  bool shutting_down = false;
  std::vector<std::thread> workers;

  void worker_loop() {
    std::uint64_t seen_epoch = 0;
    for (;;) {
      std::shared_ptr<Batch> b;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] {
          return shutting_down || (batch && batch_epoch != seen_epoch);
        });
        if (shutting_down) return;
        seen_epoch = batch_epoch;
        b = batch;
      }
      drain(*b);
    }
  }

  void drain(Batch& b) {
    RegionGuard guard;
    for (;;) {
      const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= b.count) break;
      try {
        (*b.task)(i);
      } catch (...) {
        b.errors[i] = std::current_exception();
      }
      if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == b.count) {
        std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : impl_(new Impl),
      num_threads_(num_threads <= 0 ? configured_threads() : num_threads) {
  for (int t = 1; t < num_threads_; ++t)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

bool ThreadPool::in_parallel_region() { return tls_in_parallel_region; }

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  // Inline, zero synchronization. Exceptions propagate directly, which
  // matches the lowest-index-first contract.
  const auto run_inline = [&] {
    RegionGuard guard;
    for (std::size_t i = 0; i < count; ++i) task(i);
  };
  if (in_parallel_region() || num_threads_ <= 1 || count == 1)
    return run_inline();  // nested or single-threaded

  auto batch = std::make_shared<Impl::Batch>();
  batch->count = count;
  batch->task = &task;
  batch->errors.resize(count);
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    if (impl_->batch) {
      // Another thread outside the pool owns the live batch. Results do
      // not depend on who runs an index, so the caller runs this one.
      lock.unlock();
      return run_inline();
    }
    impl_->batch = batch;
    ++impl_->batch_epoch;
  }
  impl_->work_cv.notify_all();
  impl_->drain(*batch);  // the calling thread participates
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->done_cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == count;
    });
    impl_->batch.reset();
  }
  for (std::exception_ptr& e : batch->errors)
    if (e) std::rethrow_exception(e);
}

namespace {

std::mutex g_pool_mutex;
ThreadPool* g_pool = nullptr;
int g_thread_override = 0;  // <= 0: use CCA_THREADS / hardware

int default_threads() {
  if (const char* env = std::getenv("CCA_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

int configured_threads() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return g_thread_override >= 1 ? g_thread_override : default_threads();
}

void set_global_threads(int num_threads) {
  ThreadPool* stale = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_thread_override = num_threads;
    stale = g_pool;
    g_pool = nullptr;
  }
  delete stale;
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    const int n =
        g_thread_override >= 1 ? g_thread_override : default_threads();
    g_pool = new ThreadPool(n);
  }
  return *g_pool;
}

std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(
    std::size_t count, std::size_t grain) {
  CCA_CHECK_MSG(grain >= 1, "parallel grain must be >= 1");
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  chunks.reserve(count / grain + 1);
  for (std::size_t begin = 0; begin < count; begin += grain)
    chunks.emplace_back(begin, std::min(begin + grain, count));
  return chunks;
}

namespace detail {

void parallel_for_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       const std::function<void(std::size_t)>& fn) {
  CCA_CHECK_MSG(grain >= 1, "parallel grain must be >= 1");
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const auto chunks = chunk_ranges(count, grain);
  global_pool().run_indexed(chunks.size(), [&](std::size_t c) {
    const auto [lo, hi] = chunks[c];
    for (std::size_t i = lo; i < hi; ++i) fn(begin + i);
  });
}

}  // namespace detail

}  // namespace cca::common
