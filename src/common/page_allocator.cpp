#include "common/page_allocator.hpp"

#include <sys/mman.h>

#include <new>

namespace cca::common {

void* page_allocate(std::size_t bytes) {
  if (bytes < kMinMappedBytes) return ::operator new(bytes);
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  return block;
}

void page_free(void* block, std::size_t bytes) noexcept {
  if (bytes < kMinMappedBytes)
    ::operator delete(block);
  else
    munmap(block, bytes);
}

}  // namespace cca::common
