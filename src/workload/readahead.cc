#include "workload/readahead.hh"

#include <algorithm>

namespace soefair
{
namespace workload
{

ReadAhead::ReadAhead(WorkloadGenerator &generator)
    : gen(generator), ring(std::make_unique<isa::MicroOp[]>(capacity))
{}

ReadAhead::~ReadAhead()
{
    stop();
}

void
ReadAhead::start()
{
    if (running())
        return;
    // Thread creation orders these stores before the helper's first
    // load, so the helper starts from the consumer's true position.
    pubHead.store(head, std::memory_order_relaxed);
    publishedHead = head;
    stopRequested.store(false, std::memory_order_relaxed);
    helper = std::thread([this] { produce(); });
}

void
ReadAhead::stop()
{
    if (!running())
        return;
    stopRequested.store(true);
    if (helperAsleep.load() != 0) {
        helperWake.fetch_add(1, std::memory_order_release);
        helperWake.notify_one();
    }
    helper.join();
}

isa::MicroOp
ReadAhead::next()
{
    if (head == seenTail)
        refill();
    const isa::MicroOp op = ring[head & mask];
    ++head;
    if (head - publishedHead >= quarter)
        publishHead();
    return op;
}

void
ReadAhead::publishHead()
{
    pubHead.store(head);
    publishedHead = head;
    if (helperAsleep.load() != 0) {
        helperWake.fetch_add(1, std::memory_order_release);
        helperWake.notify_one();
    }
}

void
ReadAhead::refill()
{
    seenTail = pubTail.load(std::memory_order_acquire);
    if (seenTail != head)
        return;
    // Empty: release every slot (a helper that saw the ring full
    // resumes), then generate here, unless the helper has published
    // a chunk by the time the lock is ours.
    publishHead();
    AnnotatedLock g(genLock);
    if (tail == head) {
        if (failure)
            std::rethrow_exception(failure);
        fill(chunk);
        if (tail == head)
            std::rethrow_exception(failure);
    }
    seenTail = tail;
}

void
ReadAhead::fill(std::uint32_t n)
{
    try {
        for (std::uint32_t i = 0; i < n; ++i) {
            ring[tail & mask] = gen.next();
            ++tail;
        }
    } catch (...) {
        failure = std::current_exception();
    }
    pubTail.store(tail, std::memory_order_release);
}

void
ReadAhead::produce()
{
    while (!stopRequested.load(std::memory_order_relaxed)) {
        std::uint32_t fullTail = 0;
        {
            AnnotatedLock g(genLock);
            if (failure)
                return;
            // The consumer may have generated past an older head, so
            // room is always measured from the latest one.
            const std::uint32_t room = capacity -
                (tail - pubHead.load(std::memory_order_acquire));
            if (room != 0) {
                fill(std::min(room, chunk));
                continue;
            }
            fullTail = tail;
        }
        waitForRoom(fullTail);
    }
}

void
ReadAhead::waitForRoom(std::uint32_t full_tail)
{
    while (full_tail - pubHead.load(std::memory_order_acquire) ==
               capacity &&
           !stopRequested.load(std::memory_order_relaxed)) {
        const std::uint32_t ticket =
            helperWake.load(std::memory_order_acquire);
        helperAsleep.store(1);
        if (full_tail - pubHead.load() == capacity &&
            !stopRequested.load()) {
            helperWake.wait(ticket, std::memory_order_acquire);
        }
        helperAsleep.store(0, std::memory_order_relaxed);
    }
}

} // namespace workload
} // namespace soefair
