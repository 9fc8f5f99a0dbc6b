// Counting replacement operator new/delete for allocation-freedom tests.
//
// Include this header in EXACTLY ONE translation unit per binary: it
// defines the global replacement allocation functions (an ODR-unique
// set per program).  Every allocation bumps a process-wide counter that
// tests read through alloc_calls() before/after the code under test,
// live_bytes() tracks what operator new currently holds,
// and reports to util::rt::note_alloc() so allocations inside a
// util::rt::GuardRegion count as real-time violations (and FATAL under
// IUSTITIA_RT_DEBUG) — the dynamic twin of the tools/analyze `hotpath`
// pass.
#ifndef IUSTITIA_TESTS_ALLOC_HOOK_H_
#define IUSTITIA_TESTS_ALLOC_HOOK_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <malloc.h>

#include "util/rt_guard.h"

namespace iustitia::testhooks {
namespace {

std::atomic<std::size_t> g_alloc_calls{0};
std::atomic<std::size_t> g_live_bytes{0};

// Total operator new/new[] calls so far (deletes are not counted).
[[maybe_unused]] std::size_t alloc_calls() noexcept {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

// Bytes currently held by operator new/new[] blocks (usable sizes).
[[maybe_unused]] std::size_t live_bytes() noexcept {
  return g_live_bytes.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  util::rt::note_alloc("operator new");
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  util::rt::note_alloc("operator delete");
  if (p != nullptr) {
    g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace
}  // namespace iustitia::testhooks

void* operator new(std::size_t size) {
  return iustitia::testhooks::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return iustitia::testhooks::counted_alloc(size);
}
void operator delete(void* p) noexcept { iustitia::testhooks::counted_free(p); }
void operator delete[](void* p) noexcept {
  iustitia::testhooks::counted_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  iustitia::testhooks::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  iustitia::testhooks::counted_free(p);
}

#endif  // IUSTITIA_TESTS_ALLOC_HOOK_H_
