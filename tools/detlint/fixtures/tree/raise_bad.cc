// ERR-002 tree fixture: raiseError<E> naming a class that
// src/sim/errors.hh never declared — the failure would carry no
// exit code the sweep worker can classify.
#include "sim/errors.hh"

namespace soefair
{

void
checkQuota(int used, int limit)
{
    if (used > limit)
        raiseError<MythicalError>("no such class"); // BAD
    if (used < 0)
        raiseError<InputError>("negative usage");
}

} // namespace soefair
