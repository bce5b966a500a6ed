/**
 * @file
 * Pipelined front-side bus.
 *
 * The bus serializes line transfers between the L2 and memory: each
 * transfer occupies the bus for a fixed number of cycles, and a
 * request issued while the bus is busy waits for the earliest free
 * slot. This is where co-running threads' memory traffic contends.
 */

// detlint: conc-optin — the bus is where co-running hardware
// threads contend; its members are tagged with the one OS thread
// that owns them (CONC-001, see src/sim/annotations.hh).

#ifndef SOEFAIR_MEM_BUS_HH
#define SOEFAIR_MEM_BUS_HH

#include "sim/annotations.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace mem
{

class Bus
{
  public:
    Bus(unsigned occupancy_cycles, statistics::Group *stats_parent);

    /**
     * Acquire the bus for one transfer at or after `when`.
     * @return Tick at which the transfer completes.
     */
    Tick acquire(Tick when);

    /** Tick at which the bus next becomes free. */
    Tick nextFree() const { return busFree; }

    unsigned occupancy() const { return occCycles; }

    statistics::Group statsGroup SOE_THREAD_OWNED(sim);
    statistics::Counter transfers SOE_THREAD_OWNED(sim);
    statistics::Counter queuedCycles SOE_THREAD_OWNED(sim);

  private:
    unsigned occCycles SOE_THREAD_OWNED(sim) = 0;
    Tick busFree SOE_THREAD_OWNED(sim) = 0;
};

} // namespace mem
} // namespace soefair

#endif // SOEFAIR_MEM_BUS_HH
