#include "harness/system.hh"

#include <algorithm>

#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace harness
{

System::System(const MachineConfig &config,
               const std::vector<ThreadSpec> &specs)
    : root("system"), cfg(config)
{
    soefair_assert(!specs.empty(), "system needs at least one thread");

    hier = std::make_unique<mem::Hierarchy>(cfg.mem, eventQueue, &root);
    coreInst = std::make_unique<cpu::Core>(cfg.core, *hier, &root);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        workload::InstSource *feed = nullptr;
        if (!specs[i].tracePath.empty()) {
            sources.push_back(
                std::make_unique<workload::TraceReplaySource>(
                    specs[i].tracePath));
            feed = sources.back().get();
        } else {
            auto gen = std::make_unique<workload::WorkloadGenerator>(
                specs[i].profile, ThreadID(i), specs[i].seed);
            readAheads.push_back(
                std::make_unique<workload::ReadAhead>(*gen));
            sources.push_back(std::move(gen));
            feed = readAheads.back().get();
        }
        streams.push_back(std::make_unique<workload::InstStream>(*feed));
        coreInst->addThread(streams.back().get());
    }
}

System::~System()
{
    stopReadAhead();
}

void
System::stopReadAhead()
{
    for (auto &ra : readAheads)
        ra->stop();
}

workload::InstSource &
System::source(ThreadID tid)
{
    soefair_assert(tid >= 0 && std::size_t(tid) < sources.size(),
                   "source() bad tid");
    stopReadAhead();
    return *sources[std::size_t(tid)];
}

workload::WorkloadGenerator &
System::generator(ThreadID tid)
{
    auto *gen = dynamic_cast<workload::WorkloadGenerator *>(
        &source(tid));
    if (!gen)
        fatal("thread ", tid, " is trace-driven; it has no generator");
    return *gen;
}

void
System::start(cpu::SwitchController *controller)
{
    soefair_assert(!started, "System::start called twice");
    started = true;
    coreInst->setController(controller);
    coreInst->start(0, currentTick);
}

void
System::step(std::uint64_t n)
{
    soefair_assert(started, "System::step before start");
    for (auto &ra : readAheads)
        ra->start();
    const Tick end = currentTick + n;
    while (currentTick < end) {
        ++currentTick;
        eventQueue.runUntil(currentTick);
        const bool progress = coreInst->tick(currentTick);
        if (progress || !fastForward || currentTick >= end)
            continue;

        // Quiescent cycle: nothing in the machine can change state
        // before the earliest wake tick (next event, instruction
        // completion, front-end restart, sample boundary, quota
        // expiry). Jump over the stall run, crediting the per-cycle
        // stall counters the skipped ticks would have incremented.
        const Tick wake = std::min(eventQueue.nextEventTick(),
                                   coreInst->nextWakeTick(currentTick));
        SOE_AUDIT(wake > currentTick,
                  "fast-forward wake tick ", wake,
                  " not in the future of ", currentTick);
        if (wake <= currentTick + 1)
            continue;
        const Tick target = std::min(wake - 1, end);
        const std::uint64_t skipped = target - currentTick;
        if (skipped == 0)
            continue;
        // The contract the golden tests pin down: a jump never
        // crosses a scheduled event (the engine's own audit covers
        // sample boundaries), so everything observable still happens
        // at its cycle-exact tick.
        SOE_AUDIT(target < eventQueue.nextEventTick(),
                  "fast-forward jumped past an event at ",
                  eventQueue.nextEventTick());
        coreInst->creditSkippedCycles(currentTick, skipped);
        currentTick = target;
        ++ffJumps;
        ffCycles += skipped;
    }
}

void
System::warmCaches(std::uint64_t instrs_per_thread)
{
    soefair_assert(!started,
                   "warmCaches must run before System::start");
    // No helper has started yet (step() starts them), so the
    // generators are read directly.
    constexpr std::uint64_t chunk = 4096;
    std::vector<std::uint64_t> remaining(sources.size(),
                                         instrs_per_thread);
    bool any = true;
    while (any) {
        any = false;
        for (std::size_t t = 0; t < sources.size(); ++t) {
            const std::uint64_t n = std::min(chunk, remaining[t]);
            remaining[t] -= n;
            if (remaining[t] > 0)
                any = true;
            for (std::uint64_t i = 0; i < n; ++i) {
                const isa::MicroOp op = sources[t]->next();
                hier->warmFetch(ThreadID(t), op.pc);
                if (op.isLoad())
                    hier->warmData(ThreadID(t), op.memAddr, false);
                else if (op.isStore())
                    hier->warmData(ThreadID(t), op.memAddr, true);
                else if (op.isBranch()) {
                    // Warm the (shared) predictor exactly as the
                    // pipeline would train it.
                    auto &bp = coreInst->branchPredictor();
                    bp.update(op, bp.predict(op));
                }
            }
        }
    }
}

} // namespace harness
} // namespace soefair
