// Clang Thread Safety Analysis surface for the whole library.
//
// The repo's headline contract is byte-identical determinism for any worker
// count (docs/ARCHITECTURE.md), and its concurrency lives behind a small
// number of explicitly shared members (sim/sweep.cpp's worker pool today,
// device-sharded runs next). These macros make the locking discipline part
// of the *type system*: every mutex-guarded member is declared
// `SHOG_GUARDED_BY(mutex)`, every function that expects the lock held is
// `SHOG_REQUIRES(mutex)`, and a clang build with `-DSHOG_THREAD_SAFETY=ON`
// (-Wthread-safety -Werror) rejects any access that the analysis cannot
// prove safe — at compile time, before TSan ever has to catch it racing.
//
// Under non-clang compilers (CI builds gcc too) every macro expands to
// nothing, so the annotations are free. tools/lint/shog_lint.py closes the
// loop: bare `std::mutex` members are a lint error — shared state must use
// the capability-annotated `shog::Mutex` below so the analysis can see it.
//
// Grammar (docs/ANALYSIS.md has the worked examples):
//   SHOG_CAPABILITY(x)      — type declares a capability named x ("mutex")
//   SHOG_GUARDED_BY(m)      — member may only be read/written with m held
//   SHOG_PT_GUARDED_BY(m)   — pointee (not the pointer) guarded by m
//   SHOG_REQUIRES(m)        — caller must hold m before calling
//   SHOG_ACQUIRE(m) / SHOG_RELEASE(m) — function takes / drops m
//   SHOG_EXCLUDES(m)        — caller must NOT hold m (deadlock guard)
//   SHOG_NO_THREAD_SAFETY_ANALYSIS — opt-out for code the analysis cannot
//                             model (use sparingly, justify in a comment)
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SHOG_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SHOG_THREAD_ANNOTATION
#define SHOG_THREAD_ANNOTATION(x) // no-op outside clang
#endif

#define SHOG_CAPABILITY(x) SHOG_THREAD_ANNOTATION(capability(x))
#define SHOG_SCOPED_CAPABILITY SHOG_THREAD_ANNOTATION(scoped_lockable)
#define SHOG_GUARDED_BY(x) SHOG_THREAD_ANNOTATION(guarded_by(x))
#define SHOG_PT_GUARDED_BY(x) SHOG_THREAD_ANNOTATION(pt_guarded_by(x))
#define SHOG_REQUIRES(...) SHOG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SHOG_REQUIRES_SHARED(...) \
    SHOG_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define SHOG_ACQUIRE(...) SHOG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SHOG_RELEASE(...) SHOG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SHOG_TRY_ACQUIRE(...) SHOG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define SHOG_EXCLUDES(...) SHOG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define SHOG_ASSERT_CAPABILITY(x) SHOG_THREAD_ANNOTATION(assert_capability(x))
#define SHOG_RETURN_CAPABILITY(x) SHOG_THREAD_ANNOTATION(lock_returned(x))
#define SHOG_NO_THREAD_SAFETY_ANALYSIS SHOG_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace shog {

/// std::mutex with the capability attribute, so members can be declared
/// SHOG_GUARDED_BY(mutex_) and clang's analysis tracks who holds it. This
/// is the only mutex type the lint allows as a class member (rule
/// bare-mutex in tools/lint/shog_lint.py): a bare std::mutex is invisible
/// to the analysis, which is exactly how unguarded state slips in.
class SHOG_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() SHOG_ACQUIRE() { mutex_.lock(); }
    void unlock() SHOG_RELEASE() { mutex_.unlock(); }

private:
    std::mutex mutex_;
};

/// Scoped lock over shog::Mutex (std::lock_guard is not annotated, so the
/// analysis would not see the acquire/release pair).
class SHOG_SCOPED_CAPABILITY Mutex_lock {
public:
    explicit Mutex_lock(Mutex& mutex) SHOG_ACQUIRE(mutex) : mutex_{mutex} { mutex_.lock(); }
    ~Mutex_lock() SHOG_RELEASE() { mutex_.unlock(); }
    Mutex_lock(const Mutex_lock&) = delete;
    Mutex_lock& operator=(const Mutex_lock&) = delete;

private:
    Mutex& mutex_;
};

} // namespace shog
