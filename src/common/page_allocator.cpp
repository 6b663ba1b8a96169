#include "common/page_allocator.hpp"

#include <sys/mman.h>

#include <unistd.h>

#include <cstdint>
#include <new>

#include "common/metrics.hpp"

namespace cca::common {

void* page_allocate(std::size_t bytes) {
  if (bytes < kMinMappedBytes) return ::operator new(bytes);
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  if (metrics_enabled()) {
    static Counter& maps =
        MetricsRegistry::global().counter("common.page_allocator.maps");
    static Counter& mapped_bytes = MetricsRegistry::global().counter(
        "common.page_allocator.mapped_bytes");
    maps.add();
    mapped_bytes.add(static_cast<std::int64_t>(bytes));
  }
  return block;
}

void page_free(void* block, std::size_t bytes) noexcept {
  if (bytes < kMinMappedBytes)
    ::operator delete(block);
  else
    munmap(block, bytes);
}

void page_release_tail(void* block, std::size_t bytes,
                       std::size_t keep) noexcept {
  if (bytes < kMinMappedBytes || keep >= bytes) return;
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t from = (keep + page - 1) / page * page;
  if (from >= bytes) return;
  madvise(static_cast<char*>(block) + from, bytes - from, MADV_DONTNEED);
}

}  // namespace cca::common
