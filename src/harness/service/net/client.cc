#include "harness/service/net/client.hh"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "harness/job_exit.hh"
#include "sim/errors.hh"
#include "stats/statfmt.hh"

namespace soefair
{
namespace harness
{
namespace service
{
namespace net
{

namespace
{

void
sleepSeconds(double s)
{
    struct timespec ts;
    ts.tv_sec = long(s);
    ts.tv_nsec = long((s - double(ts.tv_sec)) * 1e9);
    while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

std::uint64_t
parseU64(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 10);
}

} // namespace

GatewayClient::GatewayClient(const ClientConfig &config)
    : cfg(config), rng(config.seed)
{
}

void
GatewayClient::backoffSleep(unsigned attempt, unsigned server_ms,
                            const std::string &why)
{
    double delay = std::min(
        cfg.backoffMaxSeconds,
        backoffSeconds(cfg.backoffBaseSeconds, attempt));
    // Jitter in [0.5, 1.0) of the schedule: concurrent clients
    // decorrelate instead of stampeding in lockstep.
    delay *= 0.5 + rng.real() * 0.5;
    delay = std::max(delay, double(server_ms) / 1000.0);
    ++totalRetries;
    if (cfg.progress) {
        *cfg.progress << "[client] retry in "
                      << statistics::statfmt::csv(delay) << "s ("
                      << why << ")" << std::endl;
    }
    sleepSeconds(delay);
}

GatewayClient::Session
GatewayClient::openSession(std::string *mode)
{
    Session s;
    s.sock = connectTo(NetAddress::parse(cfg.server),
                       cfg.connectTimeoutSeconds,
                       cfg.ioTimeoutSeconds);
    if (!s.sock.sendAll(
            NetMessageBuilder("hello")
                .num("v", std::uint64_t(protocolVersion))
                .str("tenant", cfg.tenant)
                .frame()))
        raiseError<ConnectionLost>("client: hello send failed");
    const NetMessage reply = recvMessage(s);
    const std::string type = netField(reply, "t");
    if (type == "error")
        raiseReplyError(reply);
    if (type != "welcome" ||
        netField(reply, "v") != std::to_string(protocolVersion)) {
        raiseError<ProtocolError>(
            "client: bad welcome from ", cfg.server, " (got '",
            type, "' v'", netField(reply, "v"), "')");
    }
    if (mode)
        *mode = netField(reply, "mode");
    return s;
}

NetMessage
GatewayClient::recvMessage(Session &s)
{
    for (;;) {
        NetMessage msg;
        switch (s.reader.next(msg)) {
          case FrameReader::Status::Message:
            return msg;
          case FrameReader::Status::Corrupt:
            // A mangled stream is indistinguishable from a lost
            // one: reconnect and resume.
            raiseError<ConnectionLost>(
                "client: corrupt stream from ", cfg.server, ": ",
                s.reader.detail());
          case FrameReader::Status::NeedMore:
            break;
        }
        bool eof = false;
        const std::string chunk = s.sock.recvSome(4096, eof);
        if (eof) {
            raiseError<ConnectionLost>(
                "client: connection closed by ", cfg.server);
        }
        if (chunk.empty()) {
            raiseError<ConnectionLost>(
                "client: request timeout after ",
                cfg.ioTimeoutSeconds, "s waiting on ", cfg.server);
        }
        s.reader.feed(chunk);
    }
}

void
GatewayClient::raiseReplyError(const NetMessage &msg)
{
    const std::string cls = netField(msg, "class");
    const std::string detail = netField(msg, "detail");
    if (cls == "quota")
        raiseError<QuotaExceeded>("gateway refused: ", detail);
    raiseError<ProtocolError>("gateway error (", cls, "): ",
                              detail);
}

SubmitReceipt
GatewayClient::submit(const CampaignManifest &m)
{
    const SweepCampaign campaign = campaignFromManifest(m);
    const std::string key = campaign.journalKey();
    const std::size_t total = campaign.jobs().size();

    NetMessageBuilder req("submit");
    req.str("key", key);
    for (const auto &kv : manifestToFields(m))
        req.str(kv.first.c_str(), kv.second);
    const std::string frame = req.frame();

    unsigned connFails = 0;
    unsigned deferrals = 0;
    unsigned opRetries = 0;
    for (;;) {
        try {
            std::string mode;
            Session s = openSession(&mode);
            if (mode != "rw") {
                // Read-only gateway: backpressure, not an error.
                if (++deferrals > cfg.retryLaterBudget) {
                    raiseError<ConnectionLost>(
                        "client: gateway stayed read-only after ",
                        deferrals, " attempts");
                }
                ++opRetries;
                backoffSleep(deferrals, 0, "gateway read-only");
                continue;
            }
            if (!s.sock.sendAll(frame)) {
                raiseError<ConnectionLost>(
                    "client: submit send failed");
            }
            const NetMessage reply = recvMessage(s);
            connFails = 0;
            const std::string type = netField(reply, "t");
            if (type == "accepted") {
                SubmitReceipt r;
                r.key = key;
                r.added = unsigned(parseU64(
                    netField(reply, "added")));
                r.duplicates = unsigned(parseU64(
                    netField(reply, "dup")));
                r.total = unsigned(parseU64(
                    netField(reply, "total")));
                r.retries = opRetries;
                if (cfg.progress) {
                    *cfg.progress << "[client] accepted " << key
                                  << " (" << r.added << " added, "
                                  << r.duplicates
                                  << " already queued, " << total
                                  << " total)" << std::endl;
                }
                return r;
            }
            if (type == "retry_later") {
                const std::string reason =
                    netField(reply, "reason");
                if (++deferrals > cfg.retryLaterBudget) {
                    if (reason == "quota") {
                        raiseError<QuotaExceeded>(
                            "client: still over quota after ",
                            deferrals, " attempts");
                    }
                    raiseError<ConnectionLost>(
                        "client: gateway kept deferring (",
                        reason, ") after ", deferrals,
                        " attempts");
                }
                ++opRetries;
                backoffSleep(
                    deferrals,
                    unsigned(parseU64(
                        netField(reply, "backoff_ms"))),
                    "server backpressure: " + reason);
                continue;
            }
            if (type == "error")
                raiseReplyError(reply);
            raiseError<ProtocolError>(
                "client: unexpected reply '", type,
                "' to submit");
        } catch (const ConnectionLost &e) {
            if (++connFails >= cfg.maxAttempts)
                throw;
            ++opRetries;
            backoffSleep(connFails, 0, e.what());
        }
    }
}

CampaignResult
GatewayClient::watch(
    const CampaignManifest &m,
    std::function<void(std::size_t, const JobOutcome &)> on_cell)
{
    const SweepCampaign campaign = campaignFromManifest(m);
    const std::string key = campaign.journalKey();
    std::vector<std::string> ids;
    for (const auto &job : campaign.jobs())
        ids.push_back(job.id);

    std::vector<JobOutcome> outcomes(ids.size());
    std::size_t next = 0;
    unsigned connFails = 0;
    bool done = ids.empty();
    while (!done) {
        try {
            Session s = openSession(nullptr);
            if (!s.sock.sendAll(NetMessageBuilder("watch")
                                    .str("key", key)
                                    .num("from", next)
                                    .frame())) {
                raiseError<ConnectionLost>(
                    "client: watch send failed");
            }
            for (;;) {
                const NetMessage msg = recvMessage(s);
                connFails = 0;
                const std::string type = netField(msg, "t");
                if (type == "hb")
                    continue;
                if (type == "cell") {
                    const std::size_t i =
                        std::size_t(parseU64(netField(msg, "i")));
                    if (i < next)
                        continue; // duplicated frame; already have it
                    if (i != next || i >= ids.size() ||
                        netField(msg, "job") != ids[i]) {
                        raiseError<ProtocolError>(
                            "client: stream out of order (cell ",
                            i, " '", netField(msg, "job"),
                            "', expected ", next, " '",
                            next < ids.size() ? ids[next] : "-",
                            "')");
                    }
                    JobOutcome &o = outcomes[i];
                    o.id = ids[i];
                    o.done = netField(msg, "ok") == "1";
                    o.attempts = unsigned(
                        parseU64(netField(msg, "attempts")));
                    if (o.done) {
                        o.payload = netField(msg, "payload");
                    } else {
                        o.failClass = netField(msg, "class");
                        o.detail = netField(msg, "detail");
                    }
                    if (on_cell)
                        on_cell(i, o);
                    if (cfg.progress) {
                        *cfg.progress
                            << "[client] cell " << i + 1 << "/"
                            << ids.size() << " " << o.id << ": "
                            << (o.done ? "done" : o.failClass)
                            << std::endl;
                    }
                    ++next;
                    continue;
                }
                if (type == "end") {
                    if (parseU64(netField(msg, "total")) !=
                            ids.size() ||
                        next != ids.size()) {
                        raiseError<ProtocolError>(
                            "client: stream ended at ", next,
                            " of ", ids.size(), " cells");
                    }
                    done = true;
                    break;
                }
                if (type == "error")
                    raiseReplyError(msg);
                raiseError<ProtocolError>(
                    "client: unexpected stream message '", type,
                    "'");
            }
        } catch (const ConnectionLost &e) {
            if (++connFails >= cfg.maxAttempts)
                throw;
            backoffSleep(connFails, 0,
                         std::string(e.what()) + "; resuming at " +
                             std::to_string(next));
        }
    }
    return campaign.aggregate(outcomes);
}

CampaignManifest
GatewayClient::fetchManifest(const std::string &key)
{
    unsigned connFails = 0;
    for (;;) {
        try {
            Session s = openSession(nullptr);
            if (!s.sock.sendAll(NetMessageBuilder("manifest")
                                    .str("key", key)
                                    .frame())) {
                raiseError<ConnectionLost>(
                    "client: manifest send failed");
            }
            const NetMessage reply = recvMessage(s);
            const std::string type = netField(reply, "t");
            if (type == "error")
                raiseReplyError(reply);
            if (type != "campaign") {
                raiseError<ProtocolError>(
                    "client: unexpected reply '", type,
                    "' to manifest request");
            }
            return manifestFromFields(
                reply, "campaign reply for '" + key + "'");
        } catch (const ConnectionLost &e) {
            if (++connFails >= cfg.maxAttempts)
                throw;
            backoffSleep(connFails, 0, e.what());
        }
    }
}

NetMessage
GatewayClient::status()
{
    unsigned connFails = 0;
    for (;;) {
        try {
            Session s = openSession(nullptr);
            if (!s.sock.sendAll(
                    NetMessageBuilder("status").frame())) {
                raiseError<ConnectionLost>(
                    "client: status send failed");
            }
            const NetMessage reply = recvMessage(s);
            if (netField(reply, "t") == "error")
                raiseReplyError(reply);
            return reply;
        } catch (const ConnectionLost &e) {
            if (++connFails >= cfg.maxAttempts)
                throw;
            backoffSleep(connFails, 0, e.what());
        }
    }
}

} // namespace net
} // namespace service
} // namespace harness
} // namespace soefair
