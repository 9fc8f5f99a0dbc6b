// Clang thread-safety annotations and an annotated mutex wrapper.
//
// When compiled with Clang (which enables -Wthread-safety in the build),
// these macros let the compiler prove lock discipline statically: data
// members declare which mutex guards them (IUSTITIA_GUARDED_BY), private
// helpers declare the locks they expect held (IUSTITIA_REQUIRES), and the
// analysis rejects any access path that does not hold the right capability.
// Under GCC the macros expand to nothing and the wrappers are plain
// std::mutex, so the annotations cost nothing.
//
// Repo conventions (see DESIGN.md "Correctness tooling"):
//  - use util::Mutex + util::MutexLock, never bare std::mutex, so the
//    annotations are never silently dropped;
//  - every member guarded by a mutex carries IUSTITIA_GUARDED_BY(mu_);
//  - locked private helpers are suffixed `_locked` and annotated with
//    IUSTITIA_REQUIRES(mu_);
//  - deliberately unsynchronized escape hatches (e.g. single-owner shard
//    access) are annotated IUSTITIA_NO_THREAD_SAFETY_ANALYSIS and must say
//    why in a comment.
#ifndef IUSTITIA_UTIL_THREAD_ANNOTATIONS_H_
#define IUSTITIA_UTIL_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(IUSTITIA_DEADLOCK_DEBUG)
#include "util/deadlock_debug.h"
#endif

#if defined(IUSTITIA_RT_DEBUG)
#include "util/rt_guard.h"
#endif

#if defined(__clang__)
#define IUSTITIA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define IUSTITIA_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define IUSTITIA_CAPABILITY(x) IUSTITIA_THREAD_ANNOTATION(capability(x))
#define IUSTITIA_SCOPED_CAPABILITY IUSTITIA_THREAD_ANNOTATION(scoped_lockable)
#define IUSTITIA_GUARDED_BY(x) IUSTITIA_THREAD_ANNOTATION(guarded_by(x))
#define IUSTITIA_PT_GUARDED_BY(x) IUSTITIA_THREAD_ANNOTATION(pt_guarded_by(x))
#define IUSTITIA_REQUIRES(...) \
  IUSTITIA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define IUSTITIA_ACQUIRE(...) \
  IUSTITIA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define IUSTITIA_RELEASE(...) \
  IUSTITIA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define IUSTITIA_TRY_ACQUIRE(...) \
  IUSTITIA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define IUSTITIA_EXCLUDES(...) \
  IUSTITIA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define IUSTITIA_RETURN_CAPABILITY(x) \
  IUSTITIA_THREAD_ANNOTATION(lock_returned(x))
#define IUSTITIA_NO_THREAD_SAFETY_ANALYSIS \
  IUSTITIA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace iustitia::util {

// std::mutex with the capability annotation the analysis needs.
//
// The optional name ties a mutex to its node in the lock-order graph;
// the convention is the owning member's qualified name, e.g.
// `util::Mutex consumer_mu_{"OutputQueues::consumer_mu_"};`.  That
// string must match the identity the tools/analyze lockorder pass derives
// (`Class::member`), because IUSTITIA_DEADLOCK_DEBUG builds feed the
// names into the runtime order registry that is cross-checked against
// the static graph (tools/check_lock_graph.py).  Unnamed mutexes are
// still deadlock-checked for recursive acquisition, but contribute no
// named ordering edges.
class IUSTITIA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name) : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() IUSTITIA_ACQUIRE() {
#if defined(IUSTITIA_RT_DEBUG)
    rt::note_block(name_ ? name_ : "unnamed util::Mutex");
#endif
#if defined(IUSTITIA_DEADLOCK_DEBUG)
    deadlock::on_acquire(this, name_);
#endif
    mu_.lock();
  }
  void unlock() IUSTITIA_RELEASE() {
#if defined(IUSTITIA_DEADLOCK_DEBUG)
    deadlock::on_release(this);
#endif
    mu_.unlock();
  }
  bool try_lock() IUSTITIA_TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
#if defined(IUSTITIA_DEADLOCK_DEBUG)
    if (acquired) deadlock::on_acquired_try(this, name_);
#endif
    return acquired;
  }

  const char* name() const noexcept { return name_; }

 private:
  std::mutex mu_;
  const char* name_ = nullptr;
};

// RAII lock for util::Mutex (std::lock_guard is not annotated).
class IUSTITIA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) IUSTITIA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() IUSTITIA_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace iustitia::util

#endif  // IUSTITIA_UTIL_THREAD_ANNOTATIONS_H_
