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
#pragma once

#include <cstddef>
#include <vector>

namespace cca::common {

inline constexpr std::size_t kMinMappedBytes = std::size_t{256} << 10;

/// A block of `bytes` bytes: page-mapped and zero-filled from
/// kMinMappedBytes up, from operator new below. Throws std::bad_alloc.
void* page_allocate(std::size_t bytes);
/// Frees a page_allocate block of the same `bytes`.
void page_free(void* block, std::size_t bytes) noexcept;

/// Stateless allocator over page_allocate / page_free.
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
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using PagedVector = std::vector<T, PageAllocator<T>>;

}  // namespace cca::common
