/**
 * @file
 * Front-end branch prediction: gshare direction predictor + BTB.
 *
 * Tables are shared between threads and are not flushed on a thread
 * switch (Section 4.1 of the paper: shared predictor state is kept
 * so performance resumes quickly after a switch; the cost is
 * cross-thread interference, which the paper cites as one reason the
 * estimated single-thread IPC is slightly below the real one).
 *
 * The core is trace-driven and never fetches wrong-path work, so the
 * predictor's job is to decide *whether* the front end would have
 * followed the correct path: a direction mismatch, or a taken branch
 * whose target the BTB cannot produce, is a mispredict and the front
 * end stalls until the branch resolves.
 */

#ifndef SOEFAIR_CPU_BRANCH_PREDICTOR_HH
#define SOEFAIR_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "isa/micro_op.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace cpu
{

struct BranchPredictorConfig
{
    /** gshare pattern-history table entries (2-bit counters). */
    unsigned phtEntries = 16 * 1024;
    /** Global-history bits folded into the PHT index. */
    unsigned historyBits = 12;
    /** BTB entries. */
    unsigned btbEntries = 4096;
    unsigned btbAssoc = 4;
};

class BranchPredictor
{
  public:
    BranchPredictor(const BranchPredictorConfig &config,
                    statistics::Group *stats_parent);

    struct Prediction
    {
        bool taken = false;
        bool targetKnown = false;
        Addr target = 0;
    };

    /** Predict a fetched branch. Does not touch history. */
    Prediction predict(const isa::MicroOp &op) const;

    /**
     * Train on the resolved outcome and update the (non-speculative)
     * global history. @return true if the prediction at fetch
     * matched direction and, for taken branches, target.
     */
    bool update(const isa::MicroOp &op, const Prediction &pred);

    const BranchPredictorConfig &config() const { return cfg; }

    statistics::Group statsGroup;
    statistics::Counter lookups;
    statistics::Counter mispredicts;
    statistics::Counter btbMisses;

  private:
    std::size_t phtIndex(Addr pc) const;

    struct BtbEntry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lruStamp = 0;
    };

    const BtbEntry *btbLookup(Addr pc) const;
    void btbInsert(Addr pc, Addr target);

    BranchPredictorConfig cfg;
    std::vector<std::uint8_t> pht; // 2-bit saturating counters
    std::vector<BtbEntry> btb;
    std::uint64_t history = 0;
    std::uint64_t lruCounter = 0;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_BRANCH_PREDICTOR_HH
