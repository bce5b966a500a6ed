/**
 * @file
 * The precision codec: every floating-point value that feeds a
 * deterministic artifact (queued payloads, CSV cells, job labels,
 * the stats dump, progress lines that tests grep) is formatted here,
 * and only here.
 *
 * Why a codec instead of `os << value`: stream-state precision is
 * set far from where values are printed, so one added `setprecision`
 * upstream silently changes campaign fingerprints and golden CSV
 * bytes. These helpers are locale-free (the simulator never calls
 * setlocale; DET-001 enforces that) and independent of any stream
 * state, so the byte format of emitted floats is pinned at the call
 * site. detlint's STAT-001 rule rejects raw float streaming in
 * payload/CSV-feeding code and points here.
 *
 * Tiers:
 *  - full(): 17 significant digits ("%.17g") — round-trips every
 *    double exactly. Queued payloads, sweep caches, campaign keys:
 *    anything that is parsed back or fingerprinted.
 *  - csv():  6 significant digits ("%.6g", the historical ostream
 *    default) — CSV cells, job labels, progress lines. Matches what
 *    a default-constructed ostream printed before the codec existed,
 *    so golden outputs are byte-identical.
 *  - stat(): the stats-dump column format (same "%.6g" digits; a
 *    separate entry point so dump format can evolve independently).
 */

#ifndef SOEFAIR_STATS_STATFMT_HH
#define SOEFAIR_STATS_STATFMT_HH

#include <string>

namespace soefair
{
namespace statistics
{
namespace statfmt
{

/** "%.17g": exact round-trip encoding for payloads/fingerprints. */
std::string full(double v);

/** "%.6g": CSV cells, labels and progress lines (the historical
 *  default-precision ostream format, byte-for-byte). */
std::string csv(double v);

/** Stats-dump value column (currently the csv() format). */
std::string stat(double v);

} // namespace statfmt
} // namespace statistics
} // namespace soefair

#endif // SOEFAIR_STATS_STATFMT_HH
