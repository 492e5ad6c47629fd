// Replaces the global allocation operators of every executable that links
// it, to meter live and peak heap bytes. Sizes come from
// malloc_usable_size, so unsized deletes account exactly what the
// matching new added. Resident-set deltas cannot stand in: RSS is
// page-granular, and glibc hands memory freed by input generation back
// to the session without the RSS moving, so a small session reads 0.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace perfbench {
namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void Account(void* p) {
  const int64_t n = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void Release(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

void* Allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) Account(p);
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) != 0) {
    return nullptr;
  }
  Account(p);
  return p;
}

}  // namespace

int64_t HeapLiveBytes() { return g_live.load(std::memory_order_relaxed); }
int64_t HeapPeakBytes() { return g_peak.load(std::memory_order_relaxed); }
void ResetHeapPeak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  void* p = perfbench::Allocate(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = perfbench::AllocateAligned(n, a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(n, a);
}

void operator delete(void* p) noexcept { perfbench::Release(p); }
void operator delete[](void* p) noexcept { perfbench::Release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::Release(p); }
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::Release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  perfbench::Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  perfbench::Release(p);
}
