// The benchmark's replacement operator new: counts allocations per thread
// while counting is switched on (time_calls does so around a layer's calls).
// Off, it costs one predictable branch per allocation.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<bool> g_counting{false};
thread_local std::uint64_t t_allocs = 0;
}  // namespace

namespace e2e {
void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t thread_allocs() { return t_allocs; }
}  // namespace e2e

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
