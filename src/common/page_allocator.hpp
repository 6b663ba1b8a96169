// Page-mapped allocation for large, short-lived buffers built on pool
// workers.
//
// glibc serves each thread from its own malloc arena and keeps memory a
// thread frees in that arena for the same thread's later use. Bulk
// buffers built concurrently on pool workers (the hypergraph
// partitioner's restarted V-cycles) would therefore leave every worker's
// arena holding one task's peak footprint, resident long after the work
// ends and useless to the rest of the process. PageAllocator maps blocks
// of at least kMinMappedBytes straight from the OS and unmaps them on
// free, so such a footprint ends with the work; smaller blocks go through
// operator new as usual.
//
// Every mapping costs a system call and, per page first touched, a minor
// fault, so a workload should map a buffer once and reuse it rather than
// grow a vector by repeated doubling. The hypergraph partitioner's
// V-cycle reserves each scratch buffer once at its largest (level-0) size
// as a ScratchVector and resizes it per level: the reservation is only
// address space, and pages are backed as the levels first write them.
// With the registry enabled, the counters common.page_allocator.maps and
// common.page_allocator.mapped_bytes count the mappings; when it is off
// they cost one relaxed load per mapping.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace cca::common {

inline constexpr std::size_t kMinMappedBytes = std::size_t{256} << 10;

/// A block of `bytes` bytes: page-mapped and zero-filled from
/// kMinMappedBytes up, from operator new below. Throws std::bad_alloc.
void* page_allocate(std::size_t bytes);
/// Frees a page_allocate block of the same `bytes`.
void page_free(void* block, std::size_t bytes) noexcept;
/// Hands the pages of a page_allocate block of `bytes` bytes that lie
/// wholly past its first `keep` bytes back to the OS; they read as zero
/// when next touched. A no-op on blocks from operator new.
void page_release_tail(void* block, std::size_t bytes,
                       std::size_t keep) noexcept;

/// Stateless allocator over page_allocate / page_free whose value-less
/// construct() default-initializes: a vector of trivial elements grows by
/// resize() without writing them, so a buffer about to be overwritten
/// costs no zero-fill (and, on mapped pages, no fault before its first
/// real write). Elements past the old size hold whatever the buffer last
/// held.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(page_allocate(n * sizeof(T)));
  }
  void deallocate(T* block, std::size_t n) noexcept {
    page_free(block, n * sizeof(T));
  }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

/// A reusable scratch buffer: reserve once, then resize() per use.
template <typename T>
using ScratchVector = std::vector<T, PageAllocator<T>>;

/// Shrinks `buffer` to at most `keep` elements and releases the backing
/// of its capacity past them (page_release_tail), for a buffer whose
/// later uses are known to be smaller than its earlier ones.
template <typename T>
void trim(ScratchVector<T>& buffer, std::size_t keep) {
  if (buffer.size() > keep) buffer.resize(keep);
  page_release_tail(buffer.data(), buffer.capacity() * sizeof(T),
                    keep * sizeof(T));
}

}  // namespace cca::common
