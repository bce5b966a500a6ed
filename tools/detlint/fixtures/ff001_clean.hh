// Clean twin of ff001_bad.hh: the ticking component publishes its
// wake horizon, so fast-forward can jump quiescent spans safely.
#ifndef DETLINT_FIXTURE_FF001_CLEAN_HH
#define DETLINT_FIXTURE_FF001_CLEAN_HH

#include "sim/types.hh"

namespace soefair
{

class DripCounter
{
  public:
    void tick(Tick now);

    /** Earliest tick at which tick() must run again. */
    Tick nextWakeTick() const;

  private:
    Tick drips = 0;
};

struct DripSnapshot
{
    Tick total = 0;
};

} // namespace soefair

#endif // DETLINT_FIXTURE_FF001_CLEAN_HH
