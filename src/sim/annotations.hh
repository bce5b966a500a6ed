/**
 * @file
 * Thread-safety capability annotations for state that more than
 * one thread may touch: the in-process sweep executor's pool
 * (harness/worker_pool), the per-thread simulator it runs, and that
 * simulator's generation read-ahead (workload/readahead).
 *
 * Two layers, both zero-cost at runtime:
 *
 * 1. Clang `-Wthread-safety` attribute macros (`SOE_CAPABILITY`,
 *    `SOE_GUARDED_BY`, `SOE_REQUIRES`, ...). Under clang these expand
 *    to the capability-analysis attributes and are checked at compile
 *    time (the `clang-tsa` preset builds with
 *    `-Werror=thread-safety-analysis`); under every other compiler
 *    they expand to nothing.
 *
 * 2. `SOE_THREAD_OWNED(domain)` — a member-level ownership tag that
 *    expands to nothing under *every* compiler. It names the one
 *    thread that owns a mutable member (`sim`: the thread running
 *    that System; `helper`: one of that System's read-ahead
 *    threads; `worker`: one pool thread) and satisfies detlint
 *    rule CONC-001: in a conc-optin file every mutable member
 *    carries a capability annotation or this tag. When state
 *    becomes genuinely shared, the tag is replaced by
 *    `SOE_GUARDED_BY(lock)` and the compiler takes over enforcement
 *    from the linter.
 *
 * The `AnnotatedMutex` / `AnnotatedLock` wrappers below are the
 * capability-carrying lock types future shared state must use —
 * `std::mutex` itself carries no capability, so guarding with it
 * would make every `SOE_GUARDED_BY` vacuous under clang.
 *
 * See docs/correctness.md ("Determinism & concurrency contracts").
 */

#ifndef SOEFAIR_SIM_ANNOTATIONS_HH
#define SOEFAIR_SIM_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SOE_TSA(x) __attribute__((x))
#endif
#endif
#ifndef SOE_TSA
#define SOE_TSA(x) // no-op off clang
#endif

/** Declares a type whose instances are capabilities (lock types). */
#define SOE_CAPABILITY(name) SOE_TSA(capability(name))

/** RAII types that acquire on construction, release on destruction. */
#define SOE_SCOPED_CAPABILITY SOE_TSA(scoped_lockable)

/** Data member readable/writable only while holding `x`. */
#define SOE_GUARDED_BY(x) SOE_TSA(guarded_by(x))

/** Pointer member whose *pointee* is guarded by `x`. */
#define SOE_PT_GUARDED_BY(x) SOE_TSA(pt_guarded_by(x))

/** Function that may only be called while holding the capability. */
#define SOE_REQUIRES(...) \
    SOE_TSA(requires_capability(__VA_ARGS__))

/** Function that acquires the capability and does not release it. */
#define SOE_ACQUIRE(...) SOE_TSA(acquire_capability(__VA_ARGS__))

/** Function that releases a held capability. */
#define SOE_RELEASE(...) SOE_TSA(release_capability(__VA_ARGS__))

/** Function that acquires the capability when it returns `ret`. */
#define SOE_TRY_ACQUIRE(ret, ...) \
    SOE_TSA(try_acquire_capability(ret, __VA_ARGS__))

/** Function that must NOT be called while holding the capability. */
#define SOE_EXCLUDES(...) SOE_TSA(locks_excluded(__VA_ARGS__))

/** Function that checks (at runtime) that the capability is held. */
#define SOE_ASSERT_CAPABILITY(x) SOE_TSA(assert_capability(x))

/** Function returning a reference to the named capability. */
#define SOE_RETURN_CAPABILITY(x) SOE_TSA(lock_returned(x))

/** Escape hatch; use only with a comment saying why. */
#define SOE_NO_THREAD_SAFETY_ANALYSIS \
    SOE_TSA(no_thread_safety_analysis)

/**
 * Ownership tag for a single-owner mutable member (see file
 * comment). Expands to nothing under every compiler; consumed by
 * detlint rule CONC-001. `domain` is a bare identifier naming the
 * thread that owns the member: `sim`, `helper` or `worker`. On an
 * atomic shared by two threads it names the one that writes it.
 */
#define SOE_THREAD_OWNED(domain)

namespace soefair
{

/**
 * A std::mutex that carries a thread-safety capability, so members
 * annotated `SOE_GUARDED_BY(lock)` are actually enforced by clang.
 */
class SOE_CAPABILITY("mutex") AnnotatedMutex
{
  public:
    void lock() SOE_ACQUIRE() { m.lock(); }
    void unlock() SOE_RELEASE() { m.unlock(); }
    bool tryLock() SOE_TRY_ACQUIRE(true) { return m.try_lock(); }

  private:
    std::mutex m;
};

/** RAII lock over an AnnotatedMutex. */
class SOE_SCOPED_CAPABILITY AnnotatedLock
{
  public:
    explicit AnnotatedLock(AnnotatedMutex &mutex) SOE_ACQUIRE(mutex)
        : mtx(mutex)
    {
        mtx.lock();
    }

    ~AnnotatedLock() SOE_RELEASE() { mtx.unlock(); }

    AnnotatedLock(const AnnotatedLock &) = delete;
    AnnotatedLock &operator=(const AnnotatedLock &) = delete;

  private:
    AnnotatedMutex &mtx;
};

} // namespace soefair

#endif // SOEFAIR_SIM_ANNOTATIONS_HH
