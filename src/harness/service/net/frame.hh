/**
 * @file
 * Framed wire protocol for the sweep-service gateway.
 *
 * Every message on the wire is one frame:
 *
 *   sfw1 <len>\n{"t":"...",...,"crc":N}\n
 *
 *  - `sfw1` is the magic + protocol version (bumped together: a
 *    frame's version is checked before anything else is parsed);
 *  - `<len>` is the decimal byte count of the payload line
 *    (excluding its trailing newline), bounded by frameMaxPayload
 *    so a corrupt length can never make a reader allocate or wait
 *    for gigabytes;
 *  - the payload is a flat JSONL object sealed with the same CRC-32
 *    scheme the durable queue uses (harness/jsonl.hh), so a
 *    bit flipped in flight is a detected ProtocolError, never a
 *    silently different message.
 *
 * FrameReader is an incremental decoder over a byte stream: feed()
 * whatever recv(2) returned, then next() yields complete verified
 * messages. Anything malformed — bad magic, oversized length,
 * missing terminator, checksum mismatch, unparsable payload — puts
 * the reader into a sticky error state; the connection is garbage
 * from that byte on and must be dropped (the retrying client treats
 * that exactly like a lost connection and reconnects).
 *
 * Per-message deadline: a receiver that saw the *start* of a frame
 * bounds how long it waits for the rest (the gateway closes
 * connections whose partial frame is older than its frame deadline;
 * the client applies its request timeout). A truncating or stalling
 * link therefore cannot hold a peer forever.
 */

#ifndef SOEFAIR_HARNESS_SERVICE_NET_FRAME_HH
#define SOEFAIR_HARNESS_SERVICE_NET_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace soefair
{
namespace harness
{
namespace service
{
namespace net
{

/** Wire protocol version; also part of the frame magic. */
constexpr int protocolVersion = 1;

/** Frame magic ("soefair wire v1"). */
constexpr const char *frameMagic = "sfw1";

/** Upper bound on one payload line (8 MiB): larger lengths are a
 *  protocol error, not an allocation. */
constexpr std::size_t frameMaxPayload = 8u * 1024 * 1024;

/** Upper bound on the frame header ("sfw1 <len>\n"). */
constexpr std::size_t frameMaxHeader = 16;

/**
 * Encode one frame: seal `bare_line` (a flat `{...}` JSON object,
 * see jsonlSealLine) and wrap it in the length-prefixed header.
 */
std::string frameEncode(const std::string &bare_line);

/** One decoded message: the parsed fields of the payload object
 *  (string and integer members, integers as decimal strings). */
using NetMessage = std::map<std::string, std::string>;

/** Fetch a field or "" when absent. */
std::string netField(const NetMessage &msg, const char *name);

class FrameReader
{
  public:
    enum class Status
    {
        NeedMore, ///< no complete frame buffered yet
        Message,  ///< a verified message was produced
        Corrupt,  ///< stream is garbage (sticky; drop the peer)
    };

    /** Append raw bytes received from the peer. */
    void feed(const char *data, std::size_t n);
    void feed(const std::string &data) { feed(data.data(), data.size()); }

    /**
     * Try to decode the next message. On Corrupt, `detail()`
     * explains what broke; the reader stays Corrupt forever (a
     * byte stream with a framing error has no recoverable
     * resynchronization point).
     */
    Status next(NetMessage &out);

    /** Human-readable reason for Corrupt. */
    const std::string &detail() const { return corruptDetail; }

    /** True while an incomplete frame is buffered (used for the
     *  receiver-side per-message deadline). */
    bool midFrame() const { return !buffer.empty(); }

  private:
    std::string buffer;
    std::string corruptDetail;
    bool corrupt = false;
};

/**
 * Build a flat JSON object line from alternating key/value string
 * pairs, escaping values; `rawFields` entries are appended verbatim
 * (for integer members). Tiny helper so call sites stay readable.
 */
class NetMessageBuilder
{
  public:
    explicit NetMessageBuilder(const std::string &type);

    NetMessageBuilder &str(const char *key, const std::string &val);
    NetMessageBuilder &num(const char *key, std::uint64_t val);

    /** The bare (unsealed) object line. */
    std::string line() const;
    /** The full encoded frame. */
    std::string frame() const;

  private:
    std::string body;
};

} // namespace net
} // namespace service
} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SERVICE_NET_FRAME_HH
