/**
 * @file
 * Generation read-ahead: a helper thread runs a WorkloadGenerator
 * ahead of the simulation thread.
 *
 * A generator's stream is a pure function of (profile, thread id,
 * seed) and never depends on timing, so it can be produced anywhere,
 * in any rhythm, with byte-identical results. ReadAhead moves that
 * work (the serial RNG chain of dependency, op-class and address
 * sampling) onto a helper std::thread that fills a bounded
 * single-producer/single-consumer ring; the simulation thread's
 * InstStream pulls finished MicroOps out of it. Replay after
 * squashes stays InstStream's job.
 *
 * Handoff protocol (see docs/performance.md, "Generation
 * read-ahead"):
 *  - ops are generated in chunks of `chunk` under `genLock`, which
 *    owns the generator and the ring's tail; each chunk is then
 *    published through `pubTail`. Both indices count ops modulo
 *    2^32 and only grow. The consumer publishes its head every
 *    quarter ring. Steady state costs an uncontended lock per chunk,
 *    a store and a load per publication, and no system call;
 *  - a full ring puts the helper to sleep: it raises its "asleep"
 *    flag, re-reads the consumer's head and blocks in
 *    std::atomic::wait on a wake counter only the consumer bumps.
 *    The consumer bumps it and calls notify only when it sees the
 *    flag raised. The flag store and head load on one side, and the
 *    head store and flag load on the other, are seq_cst, so at least
 *    one side sees the other's store (Dekker) and no wake-up is lost;
 *  - an empty ring never puts the consumer to sleep waiting for the
 *    helper: it takes `genLock` and generates the next chunk itself,
 *    blocking only while the helper finishes a chunk in progress. A
 *    helper short of CPU (oversubscribed host, one pinned CPU) costs
 *    the consumer idle time only when it is preempted mid-chunk.
 *
 * Determinism: whoever holds genLock is the generator's only caller
 * and appends to the ring in generation order, and the consumer reads
 * the ring in order, so the stream it sees is exactly the
 * generator's. stop() joins the helper and keeps what it generated
 * buffered.
 */

// detlint: conc-optin — the ring is shared between the simulation
// thread (`sim`) and its read-ahead thread (`helper`); every mutable
// member carries a lock annotation or its owning domain (on an
// atomic, the side that writes it).

#ifndef SOEFAIR_WORKLOAD_READAHEAD_HH
#define SOEFAIR_WORKLOAD_READAHEAD_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>

#include "isa/micro_op.hh"
#include "sim/annotations.hh"
#include "workload/generator.hh"
#include "workload/source.hh"

namespace soefair
{
namespace workload
{

class ReadAhead : public InstSource
{
  public:
    /** Ring slots (ops) per generator: 96 KiB of MicroOps. */
    static constexpr std::uint32_t capacity = 2048;

    /** @param generator Must outlive this object; not started. */
    explicit ReadAhead(WorkloadGenerator &generator);
    /** Stops the helper (if running). */
    ~ReadAhead() override;

    ReadAhead(const ReadAhead &) = delete;
    ReadAhead &operator=(const ReadAhead &) = delete;

    /**
     * Next micro-op in program order. On an empty ring it generates
     * a chunk itself, or waits for the helper's chunk in progress;
     * rethrows what the generator threw once the ops before it are
     * consumed.
     */
    isa::MicroOp next() override;

    /** Start the helper thread; no-op when it is running. */
    void start();

    /**
     * Stop and join the helper. The ops it generated stay buffered
     * and come out of next() first, so the generator itself may be
     * up to `capacity` ops ahead of the stream.
     */
    void stop();

    bool running() const { return helper.joinable(); }

    /** Ops generated but not yet consumed (exact while stopped). */
    std::uint32_t buffered() const { return pubTail.load() - head; }

  private:
    /** Ops generated per lock round. */
    static constexpr std::uint32_t chunk = 32;
    /** Consumer publication batch. */
    static constexpr std::uint32_t quarter = capacity / 4;
    static constexpr std::uint32_t mask = capacity - 1;

    /** Helper thread body. */
    void produce();
    /** Helper: block until the ring that was full at `full_tail`
     *  has room, or stop is asked. */
    void waitForRoom(std::uint32_t full_tail);
    /** Generate n ops at the tail and publish them. */
    void fill(std::uint32_t n) SOE_REQUIRES(genLock);

    /** Consumer: publish `head`; wake the helper if it waits. */
    void publishHead();
    /** Consumer slow path for an empty ring (see next()). */
    void refill();

    /** Called only under genLock. */
    WorkloadGenerator &gen;
    /** Slots [head, pubTail) hold ready ops. */
    const std::unique_ptr<isa::MicroOp[]> ring;

    // Each group below sits on its own cache line: the consumer
    // writes its group every op, the helper its group every chunk.

    // Consumer side.
    alignas(64) std::uint32_t head SOE_THREAD_OWNED(sim) = 0;
    /** Latest pubTail the consumer has read. */
    std::uint32_t seenTail SOE_THREAD_OWNED(sim) = 0;
    /** Last value stored to pubHead. */
    std::uint32_t publishedHead SOE_THREAD_OWNED(sim) = 0;

    /** Held while generating: the generator, `tail` and the slots
     *  past it belong to whoever holds it. */
    alignas(64) AnnotatedMutex genLock SOE_THREAD_OWNED(sim);
    std::uint32_t tail SOE_GUARDED_BY(genLock) = 0;
    /** What the generator threw; every later op rethrows it. */
    std::exception_ptr failure SOE_GUARDED_BY(genLock);

    /** `tail` as last published. Stored under genLock, by the
     *  helper or by a consumer that generated a chunk itself; read
     *  without it. */
    alignas(64) std::atomic<std::uint32_t> pubTail
        SOE_THREAD_OWNED(helper){0};
    alignas(64) std::atomic<std::uint32_t> pubHead
        SOE_THREAD_OWNED(sim){0};
    std::atomic<std::uint32_t> helperWake SOE_THREAD_OWNED(sim){0};
    std::atomic<bool> stopRequested SOE_THREAD_OWNED(sim){false};
    alignas(64) std::atomic<std::uint32_t> helperAsleep
        SOE_THREAD_OWNED(helper){0};

    /** Declared last: it uses every member above. */
    std::thread helper SOE_THREAD_OWNED(sim);
};

} // namespace workload
} // namespace soefair

#endif // SOEFAIR_WORKLOAD_READAHEAD_HH
