#include "cpu/fetch.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

FetchUnit::FetchUnit(const FetchConfig &config,
                     mem::Hierarchy &hierarchy,
                     BranchPredictor &branch_predictor,
                     statistics::Group *stats_parent)
    : statsGroup("fetch", stats_parent),
      fetched(&statsGroup, "fetched", "micro-ops fetched"),
      icacheStallCycles(&statsGroup, "icacheStallCycles",
                        "cycles fetch waited on the L1I"),
      branchStallCycles(&statsGroup, "branchStallCycles",
                        "cycles fetch waited on mispredicted branches"),
      cfg(config),
      hier(hierarchy),
      bpred(branch_predictor),
      buffer(config.bufferEntries)
{
    soefair_assert(cfg.width > 0, "fetch width must be positive");
    soefair_assert(cfg.bufferEntries >= cfg.width,
                   "fetch buffer smaller than fetch width");
}

void
FetchUnit::addThread(workload::InstStream *stream)
{
    streams.push_back(stream);
}

void
FetchUnit::activate(ThreadID tid, Tick resume_tick)
{
    soefair_assert(tid >= 0 && std::size_t(tid) < streams.size(),
                   "activating unknown thread ", tid);
    active = tid;
    fetchReadyTick = resume_tick;
    stallBranchSeq = 0;
    lastFetchLine = ~Addr(0);
    buffer.clear();
}

bool
FetchUnit::tick(Tick now)
{
    if (active == invalidThreadId)
        return false;
    if (stallBranchSeq != 0) {
        ++branchStallCycles;
        return false;
    }
    if (now < fetchReadyTick) {
        ++icacheStallCycles;
        return false;
    }

    workload::InstStream &stream = *streams[std::size_t(active)];
    const unsigned l1iHitLat = hier.config().l1i.hitLatency;
    bool progress = false;

    for (unsigned n = 0; n < cfg.width; ++n) {
        if (buffer.full())
            break;

        const isa::MicroOp &next = stream.peek();
        const Addr line = mem::lineAddr(next.pc);
        if (line != lastFetchLine) {
            // Any hierarchy access counts as progress: it mutates
            // cache state and statistics even when it is refused.
            progress = true;
            auto res = hier.fetch(active, next.pc, now);
            if (res.retry)
                break; // L1I port blocked; try next cycle
            lastFetchLine = line;
            if (res.completion > now + l1iHitLat) {
                // Instruction-cache miss: fetch resumes when the
                // line arrives.
                fetchReadyTick = res.completion;
                break;
            }
        }

        const isa::MicroOp &op = stream.fetchNext();
        ++fetched;
        progress = true;

        DynInst &inst = buffer.emplaceBack();
        inst.op = op;
        inst.tid = active;
        inst.dispatchReadyTick = now + cfg.frontDepth;

        bool stopGroup = false;
        if (op.isBranch()) {
            inst.pred = bpred.predict(op);
            const bool followable =
                (!inst.pred.taken && !op.taken) ||
                (inst.pred.taken && op.taken &&
                 inst.pred.targetKnown && inst.pred.target == op.target);
            inst.mispredicted = !followable;
            if (inst.mispredicted) {
                // Model wrong-path fetch: stop until resolution.
                stallBranchSeq = op.seqNum;
                stopGroup = true;
            } else if (op.taken) {
                // Fetch groups do not cross taken branches.
                stopGroup = true;
                lastFetchLine = ~Addr(0);
            }
        }

        if (stopGroup)
            break;
    }
    return progress;
}

Tick
FetchUnit::nextWakeTick(Tick now) const
{
    if (active == invalidThreadId)
        return maxTick;
    Tick wake = maxTick;
    if (!buffer.empty() && buffer.front().dispatchReadyTick > now)
        wake = buffer.front().dispatchReadyTick;
    if (stallBranchSeq != 0)
        return wake;
    if (fetchReadyTick > now)
        wake = std::min(wake, fetchReadyTick);
    return wake;
}

void
FetchUnit::creditSkippedCycles(Tick now, std::uint64_t skipped)
{
    // Mirror of tick()'s stall branches. The skipped ticks all lie
    // strictly before this unit's nextWakeTick(now), so the branch
    // taken at `now` is the branch every skipped tick would take.
    if (active == invalidThreadId)
        return;
    if (stallBranchSeq != 0) {
        branchStallCycles += skipped;
        return;
    }
    if (now < fetchReadyTick)
        icacheStallCycles += skipped;
}

DynInst *
FetchUnit::dispatchable(Tick now)
{
    if (buffer.empty() || buffer.front().dispatchReadyTick > now)
        return nullptr;
    return &buffer.front();
}

void
FetchUnit::popDispatchable()
{
    soefair_assert(!buffer.empty(), "popDispatchable on empty buffer");
    buffer.popFront();
}

void
FetchUnit::branchResolved(InstSeqNum seq, Tick resolve_tick)
{
    if (stallBranchSeq == seq) {
        stallBranchSeq = 0;
        fetchReadyTick = std::max(fetchReadyTick,
                                  resolve_tick + cfg.redirectDelay);
        lastFetchLine = ~Addr(0);
    }
}

void
FetchUnit::squashAll()
{
    buffer.clear();
    stallBranchSeq = 0;
}

} // namespace cpu
} // namespace soefair
