#include "layers.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "mem/hierarchy.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "stats/stats.hh"
#include "workload/generator.hh"

namespace perfbench
{

using namespace soefair;
using harness::System;

int
SpanLog::open(const std::string &name, int parent,
              const std::string &cell)
{
    spans.push_back({name, nowNs(), 0, parent, cell});
    return int(spans.size()) - 1;
}

std::int64_t
clockOverheadNs()
{
    std::vector<std::int64_t> d(2001);
    for (auto &x : d) {
        const std::int64_t a = nowNs();
        x = nowNs() - a;
    }
    std::nth_element(d.begin(), d.begin() + 1000, d.end());
    return d[1000];
}

namespace
{

/**
 * Times every call into the wrapped SOE engine. The decorator only
 * forwards, so the simulation is unchanged; a sample hook on the
 * engine marks the onCycle() calls that close a delta window (where
 * the estimator, guard, Eq. 9 and deficit update run), and those
 * become `soe.window` spans under the current step span.
 */
class TimedController : public cpu::SwitchController
{
  public:
    TimedController(soe::SoeEngine &inner, LayerTotals &totals,
                    SpanLog &log, const std::string &cell)
        : engine(inner), tot(totals), spans(log), cellId(cell)
    {
        engine.setSampleHook(
            [this](const soe::SampleWindowRecord &) {
                windowClosed = true;
            });
    }
    TimedController(const TimedController &) = delete;
    TimedController &operator=(const TimedController &) = delete;

    int stepSpan = -1;

    ThreadID
    onHeadStall(ThreadID tid, InstSeqNum seq, Tick now,
                Tick stall_resolve, bool is_l2_miss) override
    {
        const std::int64_t t0 = nowNs();
        const ThreadID r = engine.onHeadStall(tid, seq, now,
                                              stall_resolve, is_l2_miss);
        record(t0);
        return r;
    }

    bool
    onRetire(ThreadID tid, Tick now) override
    {
        const std::int64_t t0 = nowNs();
        const bool r = engine.onRetire(tid, now);
        record(t0);
        return r;
    }

    bool
    onCycle(ThreadID tid, Tick now) override
    {
        windowClosed = false;
        const std::int64_t t0 = nowNs();
        const bool r = engine.onCycle(tid, now);
        const std::int64_t t1 = record(t0);
        if (windowClosed)
            spans.add({"soe.window", t0, t1, stepSpan, cellId});
        return r;
    }

    bool
    onPause(ThreadID tid, Tick now) override
    {
        const std::int64_t t0 = nowNs();
        const bool r = engine.onPause(tid, now);
        record(t0);
        return r;
    }

    ThreadID
    pickNextForced(ThreadID tid, Tick now) override
    {
        const std::int64_t t0 = nowNs();
        const ThreadID r = engine.pickNextForced(tid, now);
        record(t0);
        return r;
    }

    void
    onSwitchOut(ThreadID tid, Tick now,
                cpu::SwitchReason reason) override
    {
        const std::int64_t t0 = nowNs();
        engine.onSwitchOut(tid, now, reason);
        record(t0);
    }

    void
    onSwitchIn(ThreadID tid, Tick now) override
    {
        const std::int64_t t0 = nowNs();
        engine.onSwitchIn(tid, now);
        record(t0);
    }

    Tick
    nextWakeTick(ThreadID tid, Tick now) const override
    {
        const std::int64_t t0 = nowNs();
        const Tick r = engine.nextWakeTick(tid, now);
        record(t0);
        return r;
    }

  private:
    std::int64_t
    record(std::int64_t t0) const
    {
        const std::int64_t t1 = nowNs();
        const std::int64_t d = t1 - t0;
        tot.soeCalls++;
        tot.soeNs += d;
        tot.soeHist[std::size_t(
            std::clamp<std::int64_t>(d, 0, 4095))]++;
        return t1;
    }

    soe::SoeEngine &engine;
    LayerTotals &tot;
    SpanLog &spans;
    std::string cellId;
    bool windowClosed = false;
};

/** Runner's stepUntilRetired, as one `system.step` span. */
bool
stepUntilRetired(System &sys, const std::vector<std::uint64_t> &targets,
                 std::uint64_t max_cycles, std::uint64_t chunk,
                 TimedController &ctl, SpanLog &log, int parent,
                 const std::string &cell)
{
    const int span = log.open("system.step", parent, cell);
    ctl.stepSpan = span;
    const Tick limit = sys.now() + max_cycles;
    bool done = false;
    while (!done && sys.now() < limit) {
        sys.step(std::min<std::uint64_t>(chunk, limit - sys.now()));
        done = true;
        for (std::size_t t = 0; t < targets.size(); ++t) {
            if (sys.core().retired(ThreadID(t)) < targets[t]) {
                done = false;
                break;
            }
        }
    }
    log.close(span);
    return done;
}

void
addStats(const System &sys, LayerTotals &tot)
{
    std::ostringstream os;
    sys.dumpStats(os);
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name;
        double value = 0.0;
        if (ls >> name >> value)
            tot.stats[name] += value;
    }
}

/**
 * Replay each thread's instruction stream, as many instructions as
 * the run generated, through a fresh generator (workload layer) and
 * a fresh hierarchy plus event queue (memory layer), interleaving
 * threads in chunks as System::warmCaches does.
 */
void
replayLayers(const harness::MachineConfig &mc,
             const std::vector<harness::ThreadSpec> &specs,
             const std::vector<std::uint64_t> &generated,
             const std::string &cell, SpanLog &log, int parent,
             LayerTotals &tot)
{
    const int span = log.open("replay", parent, cell);
    EventQueue eq;
    statistics::Group root("replay");
    mem::Hierarchy hier(mc.mem, eq, &root);
    std::vector<std::unique_ptr<workload::WorkloadGenerator>> gens;
    for (std::size_t t = 0; t < specs.size(); ++t) {
        gens.push_back(std::make_unique<workload::WorkloadGenerator>(
            specs[t].profile, ThreadID(t), specs[t].seed));
    }
    std::vector<std::uint64_t> remaining = generated;
    std::vector<Addr> lastLine(specs.size(), ~Addr(0));
    std::vector<isa::MicroOp> buf;
    constexpr std::uint64_t chunk = 1 << 16;
    Tick tick = 0;
    bool any = true;
    while (any) {
        any = false;
        for (std::size_t t = 0; t < specs.size(); ++t) {
            const std::uint64_t n = std::min(chunk, remaining[t]);
            if (n == 0)
                continue;
            remaining[t] -= n;
            any = true;
            buf.resize(n);
            const ThreadID tid = ThreadID(t);

            const std::int64_t t0 = nowNs();
            for (auto &op : buf)
                op = gens[t]->next();
            const std::int64_t t1 = nowNs();
            std::uint64_t fetches = 0;
            for (const auto &op : buf) {
                ++tick;
                const Addr line = op.pc >> 6;
                if (line != lastLine[t]) {
                    lastLine[t] = line;
                    eq.runUntil(tick);
                    hier.fetch(tid, op.pc, tick);
                    ++fetches;
                }
            }
            const std::int64_t t2 = nowNs();
            std::uint64_t accesses = 0;
            for (const auto &op : buf) {
                ++tick;
                if (!op.isLoad() && !op.isStore())
                    continue;
                eq.runUntil(tick);
                if (op.isLoad())
                    hier.load(tid, op.memAddr, tick);
                else
                    hier.store(tid, op.memAddr, tick);
                ++accesses;
            }
            const std::int64_t t3 = nowNs();
            tot.replayOps += n;
            tot.replayGenNs += t1 - t0;
            tot.replayFetches += fetches;
            tot.replayFetchNs += t2 - t1;
            tot.replayAccesses += accesses;
            tot.replayAccessNs += t3 - t2;
        }
    }
    log.close(span);
}

std::vector<std::uint64_t>
generatedCounts(System &sys)
{
    std::vector<std::uint64_t> out;
    for (unsigned t = 0; t < sys.numThreads(); ++t)
        out.push_back(sys.generator(ThreadID(t)).generated());
    return out;
}

std::uint64_t
sum(const std::vector<std::uint64_t> &v)
{
    std::uint64_t s = 0;
    for (auto x : v)
        s += x;
    return s;
}

} // namespace

harness::SoeRunResult
tracedRunSoe(const harness::MachineConfig &mc,
             const std::vector<harness::ThreadSpec> &specs,
             soe::SchedulingPolicy &policy, const harness::RunConfig &rc,
             const std::string &cell, SpanLog &log, LayerTotals &tot)
{
    mc.validate();
    const int cellSpan = log.open("cell", -1, cell);

    int s = log.open("system.construct", cellSpan, cell);
    System sys(mc, specs);
    log.close(s);
    sys.setFastForward(rc.fastForward);
    s = log.open("system.warm", cellSpan, cell);
    sys.warmCaches(rc.warmupInstrs);
    log.close(s);
    const std::vector<std::uint64_t> genWarm = generatedCounts(sys);

    soe::SoeEngine engine(mc.soe, policy, unsigned(specs.size()),
                          &sys.stats());
    TimedController ctl(engine, tot, log, cell);
    harness::SoeRunResult res;
    sys.start(&ctl);

    std::vector<std::uint64_t> warmTargets(specs.size(),
                                           rc.timingWarmInstrs);
    if (!stepUntilRetired(sys, warmTargets, rc.maxCycles, 256, ctl,
                          log, cellSpan, cell)) {
        warn("SOE timing warmup hit the cycle cap; results cover a "
             "partial warmup");
    }

    engine.finalize(sys.now());
    const Tick startTick = sys.now();
    std::vector<std::uint64_t> startInstrs(specs.size());
    std::vector<std::uint64_t> startMisses(specs.size());
    std::vector<Tick> startRunCycles(specs.size());
    for (std::size_t t = 0; t < specs.size(); ++t) {
        const auto &c = engine.context(ThreadID(t));
        startInstrs[t] = c.totals.instrs;
        startMisses[t] = c.totals.misses;
        startRunCycles[t] = c.totals.cycles;
    }
    const std::uint64_t startSwMiss = sys.core().switchesMiss.value();
    const std::uint64_t startSwForced =
        sys.core().switchesForced.value();
    const std::uint64_t startSwQuota = sys.core().switchesQuota.value();

    std::vector<std::uint64_t> targets(specs.size());
    for (std::size_t t = 0; t < specs.size(); ++t)
        targets[t] = sys.core().retired(ThreadID(t)) + rc.measureInstrs;

    res.timedOut = !stepUntilRetired(sys, targets, rc.maxCycles, 256,
                                     ctl, log, cellSpan, cell);
    engine.finalize(sys.now());

    res.cycles = sys.now() - startTick;
    res.threads.resize(specs.size());
    std::uint64_t totalInstrs = 0;
    for (std::size_t t = 0; t < specs.size(); ++t) {
        const auto &c = engine.context(ThreadID(t));
        auto &out = res.threads[t];
        out.instrs = c.totals.instrs - startInstrs[t];
        out.misses = c.totals.misses - startMisses[t];
        out.runCycles = c.totals.cycles - startRunCycles[t];
        out.ipc = double(out.instrs) / double(res.cycles);
        totalInstrs += out.instrs;
    }
    res.ipcTotal = double(totalInstrs) / double(res.cycles);
    res.switchesMiss = sys.core().switchesMiss.value() - startSwMiss;
    res.switchesForced =
        sys.core().switchesForced.value() - startSwForced;
    res.switchesQuota = sys.core().switchesQuota.value() - startSwQuota;

    const std::vector<std::uint64_t> genEnd = generatedCounts(sys);
    tot.cycles += sys.now();
    tot.ffCycles += sys.fastForwardCycles();
    tot.stepGenerated += sum(genEnd) - sum(genWarm);
    addStats(sys, tot);
    replayLayers(mc, specs, genEnd, cell, log, cellSpan, tot);
    log.close(cellSpan);
    return res;
}

harness::StRunResult
tracedRunSingleThread(const harness::MachineConfig &mc,
                      const harness::ThreadSpec &spec,
                      const harness::RunConfig &rc,
                      const std::string &cell, SpanLog &log,
                      LayerTotals &tot)
{
    mc.validate();
    const int cellSpan = log.open("cell", -1, cell);

    int s = log.open("system.construct", cellSpan, cell);
    System sys(mc, {spec});
    log.close(s);
    sys.setFastForward(rc.fastForward);
    s = log.open("system.warm", cellSpan, cell);
    sys.warmCaches(rc.warmupInstrs);
    log.close(s);
    const std::vector<std::uint64_t> genWarm = generatedCounts(sys);

    soe::MissOnlyPolicy policy;
    soe::SoeEngine engine(mc.soe, policy, 1, &sys.stats());
    TimedController ctl(engine, tot, log, cell);
    sys.start(&ctl);

    if (!stepUntilRetired(sys, {rc.timingWarmInstrs}, rc.maxCycles,
                          256, ctl, log, cellSpan, cell)) {
        fatal("single-thread timing warmup hit the cycle cap for '",
              spec.profile.name, "'");
    }

    engine.finalize(sys.now());
    const Tick startTick = sys.now();
    const std::uint64_t startInstrs = sys.core().retired(0);
    const std::uint64_t startMisses = engine.context(0).totals.misses;

    harness::StRunResult res;
    const std::uint64_t target = startInstrs + rc.measureInstrs;
    if (!stepUntilRetired(sys, {target}, rc.maxCycles, 200, ctl, log,
                          cellSpan, cell)) {
        fatal("single-thread run hit the cycle cap for '",
              spec.profile.name, "'");
    }

    engine.finalize(sys.now());
    res.cycles = sys.now() - startTick;
    res.instrs = sys.core().retired(0) - startInstrs;
    res.misses = engine.context(0).totals.misses - startMisses;
    res.ipc = double(res.instrs) / double(res.cycles);
    res.ipm = double(res.instrs) /
        double(std::max<std::uint64_t>(res.misses, 1));
    const double perMissCycles = double(res.cycles) /
        double(std::max<std::uint64_t>(res.misses, 1));
    res.cpm = std::max(1.0, perMissCycles - mc.soe.missLatency);

    const std::vector<std::uint64_t> genEnd = generatedCounts(sys);
    tot.cycles += sys.now();
    tot.ffCycles += sys.fastForwardCycles();
    tot.stepGenerated += sum(genEnd) - sum(genWarm);
    addStats(sys, tot);
    replayLayers(mc, {spec}, genEnd, cell, log, cellSpan, tot);
    log.close(cellSpan);
    return res;
}

} // namespace perfbench
