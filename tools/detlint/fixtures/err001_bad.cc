// ERR-001 fixture: process exits and throws that bypass the
// SimError exit-code taxonomy. Each one would produce an exit code
// the sweep worker cannot classify.
#include <cstdlib>
#include <exception>

namespace soefair
{

int
checkedDivide(int num, int den)
{
    if (den == 0)
        exit(2); // BAD: naked exit
    if (num < 0)
        abort(); // BAD: naked abort
    if (num == 1)
        throw "positive"; // BAD: raw throw outside the taxonomy
    if (num == 2)
        std::terminate(); // BAD: std::terminate
    return num / den;
}

} // namespace soefair
