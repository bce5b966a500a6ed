/**
 * @file
 * Shared helpers for the flat-JSONL durable formats (the service
 * job queue and the campaign manifest).
 *
 * Every line is one flat JSON object of "key":"string" /
 * "key":integer members. CRC-guarded lines carry the checksum as
 * their *last* member:
 *
 *   {"op":"enqueue","job":"st:gcc:1","crc":123456789}
 *
 * where the crc value is crc32 of the line with the crc member
 * removed (i.e. of `{"op":"enqueue","job":"st:gcc:1"}`). That keeps
 * the guarded text self-delimiting without escaping games: writers
 * build the line, call jsonlSealLine(), and append; readers call
 * jsonlVerifyLine() before parsing.
 */

#ifndef SOEFAIR_HARNESS_JSONL_HH
#define SOEFAIR_HARNESS_JSONL_HH

#include <map>
#include <string>

namespace soefair
{
namespace harness
{

/**
 * Parse one flat JSON object line into string fields. Only the flat
 * subset the durable formats emit is accepted. Returns false on
 * anything else (the caller decides whether that is a torn tail or
 * corruption).
 */
bool jsonlParseLine(const std::string &line,
                    std::map<std::string, std::string> &out);

/** Escape a string for embedding in a flat JSON line. */
std::string jsonlEscape(const std::string &s);

/**
 * Seal a line `{"a":...}` by inserting a trailing `"crc"` member:
 * returns `{"a":...,"crc":N}` with N = crc32 of the input line.
 * The input must be a `{...}` object with no trailing whitespace.
 */
std::string jsonlSealLine(const std::string &line);

/**
 * Verify a sealed line: recompute the checksum of the line with the
 * trailing `"crc"` member removed and compare. Returns false when
 * the member is absent, unparsable or mismatched.
 */
bool jsonlVerifyLine(const std::string &line);

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_JSONL_HH
