// Runtime lock-order validator behind the IUSTITIA_DEADLOCK_DEBUG build
// option (CMake preset `deadlock-debug`).
//
// util::Mutex calls these hooks around every acquisition.  Each thread
// keeps a stack of the locks it holds; a global registry accumulates the
// directed edges "held A, then acquired B" keyed by the *names* given at
// Mutex construction (`util::Mutex mu{"Class::member"};`).  The name
// convention matches the node identities of the static lock-order graph
// emitted by `tools/analyze --lock-graph-out`, so an observed graph can
// be checked as a subgraph of the static one (tools/check_lock_graph.py,
// wired into tools/ci.sh stage `deadlock-debug`).
//
// Violations FATAL immediately, *before* blocking on the lock, so a true
// deadlock becomes a crash with both acquisition orders named instead of
// a hang:
//  - acquiring a mutex this thread already holds (recursive acquisition);
//  - acquiring named lock B while holding named lock A when some thread
//    has already been seen acquiring A while holding B.
// Edges between two locks carrying the same name (two producers'
// `Producer::mu`) are ignored: instance-level hand-over-hand within a
// class is ordered by the caller, not by this class-level graph.
#ifndef IUSTITIA_UTIL_DEADLOCK_DEBUG_H_
#define IUSTITIA_UTIL_DEADLOCK_DEBUG_H_

#include <string>

namespace iustitia::util::deadlock {

// Pre-acquisition check + edge recording; FATALs on an order inversion
// or recursive acquisition.  `name` may be null (unnamed mutex): the
// held stack still tracks it, but it contributes no named edges.
void on_acquire(const void* mu, const char* name);

// Post-acquisition recording for a successful try_lock(): cannot
// deadlock, so edges are recorded without the inversion FATAL.
void on_acquired_try(const void* mu, const char* name);

// Pops the mutex from the calling thread's held stack.
void on_release(const void* mu);

// Writes the accumulated edge set as JSON {"format":1,"edges":[...]} —
// the shape tools/check_lock_graph.py consumes.  Called by tests, and at
// process exit for every directory named in $IUSTITIA_LOCK_GRAPH_OUT
// (file lock_graph.<pid>.json inside it).
void write_graph(const std::string& path);

// Testing hook: number of locks the calling thread currently holds.
std::size_t held_depth();

}  // namespace iustitia::util::deadlock

#endif  // IUSTITIA_UTIL_DEADLOCK_DEBUG_H_
