// Counting global allocator for the allocation audit (alloc_audit_test.cpp):
// every operator new routes through malloc / posix_memalign and is tallied;
// deletes are uncounted — the audit asserts "no allocation", and every
// alloc/free pair starts with a new.
//
// It is a translation unit of its own on purpose. Defined next to its
// callers, GCC inlines these bodies into them and then pairs malloc/free
// with new/delete across the inlined code (-Wmismatched-new-delete at -O2
// and -O3); here, no caller can see what the operators are made of.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

std::uint64_t counted_news() { return g_news.load(std::memory_order_relaxed); }

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::max(static_cast<std::size_t>(align),
                                  sizeof(void*)),
                     size ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
