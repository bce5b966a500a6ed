/**
 * @file
 * Adversarial tests for the flat-JSONL escape/seal/verify helpers
 * that every durable format builds on (queue, cache, manifest):
 * embedded newlines and quotes, NUL bytes, invalid UTF-8, records
 * past a mebibyte, payloads that contain the seal marker themselves,
 * and corruption/truncation detection.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/jsonl.hh"

using namespace soefair::harness;

namespace
{

using Fields = std::map<std::string, std::string>;

/** Escape `val`, embed it as the only member, and parse it back. */
std::string
roundTrip(const std::string &val)
{
    const std::string line = "{\"v\":\"" + jsonlEscape(val) + "\"}";
    Fields f;
    EXPECT_TRUE(jsonlParseLine(line, f)) << "line: " << line;
    return f["v"];
}

} // namespace

TEST(Jsonl, EscapeRoundTripsQuotesBackslashesAndControls)
{
    const std::string vals[] = {
        "plain",
        "with \"quotes\" inside",
        "back\\slash and \\\" mix",
        "line\none\nline two\n",
        "tab\tseparated\tfields",
        "\n\t\"\\",
        "",
    };
    for (const auto &v : vals)
        EXPECT_EQ(roundTrip(v), v);
}

TEST(Jsonl, NulBytesRoundTripVerbatim)
{
    const std::string nul("a\0b\0\0c", 6);
    ASSERT_EQ(nul.size(), 6u);
    EXPECT_EQ(roundTrip(nul), nul);

    // A sealed line with embedded NULs still verifies: the helpers
    // are binary-safe, not UTF-8 validators.
    const std::string line = "{\"v\":\"" + jsonlEscape(nul) + "\"}";
    EXPECT_TRUE(jsonlVerifyLine(jsonlSealLine(line)));
}

TEST(Jsonl, InvalidUtf8RoundTripsVerbatim)
{
    // Lone continuation byte, overlong-ish lead bytes, 0xFF/0xFE —
    // none of these are valid UTF-8; all must pass through intact.
    const std::string bad = "\x80\xc0\x28\xf8\xff\xfe ok";
    EXPECT_EQ(roundTrip(bad), bad);
    const std::string line = "{\"v\":\"" + jsonlEscape(bad) + "\"}";
    const std::string sealed = jsonlSealLine(line);
    EXPECT_TRUE(jsonlVerifyLine(sealed));
    Fields f;
    ASSERT_TRUE(jsonlParseLine(sealed, f));
    EXPECT_EQ(f["v"], bad);
}

TEST(Jsonl, RecordsOverOneMebibyteSealAndVerify)
{
    std::string big(1100 * 1024, 'x');
    // Sprinkle in escapables so the escaped form differs in size.
    for (std::size_t i = 0; i < big.size(); i += 4096)
        big[i] = (i / 4096) % 2 ? '"' : '\n';
    const std::string line = "{\"v\":\"" + jsonlEscape(big) + "\"}";
    ASSERT_GT(line.size(), 1024u * 1024u);
    const std::string sealed = jsonlSealLine(line);
    EXPECT_TRUE(jsonlVerifyLine(sealed));
    Fields f;
    ASSERT_TRUE(jsonlParseLine(sealed, f));
    EXPECT_EQ(f["v"], big);
}

TEST(Jsonl, SealMarkerInsidePayloadDoesNotConfuseVerify)
{
    // An adversarial value that *contains* the seal marker. After
    // escaping, its quotes are \" so it can never collide with the
    // real trailing member — and verify uses the *last* marker
    // occurrence anyway.
    const std::string evil = "x\",\"crc\":123}";
    const std::string line =
        "{\"v\":\"" + jsonlEscape(evil) + "\"}";
    const std::string sealed = jsonlSealLine(line);
    EXPECT_TRUE(jsonlVerifyLine(sealed));
    Fields f;
    ASSERT_TRUE(jsonlParseLine(sealed, f));
    EXPECT_EQ(f["v"], evil);
}

TEST(Jsonl, CorruptionAndTruncationAreDetected)
{
    const std::string line =
        "{\"op\":\"enqueue\",\"job\":\"st:gcc:1\",\"seed\":42}";
    const std::string sealed = jsonlSealLine(line);
    ASSERT_TRUE(jsonlVerifyLine(sealed));

    // Flip every byte in turn: no single-byte flip may verify.
    for (std::size_t i = 0; i < sealed.size(); ++i) {
        std::string bad = sealed;
        bad[i] = char(bad[i] ^ 0x40);
        EXPECT_FALSE(jsonlVerifyLine(bad)) << "flipped byte " << i;
    }
    // Torn tails (any strict prefix) never verify.
    for (std::size_t n = 0; n < sealed.size(); ++n) {
        EXPECT_FALSE(jsonlVerifyLine(sealed.substr(0, n)))
            << "prefix of " << n << " bytes";
    }
    // An unsealed line is not a sealed line.
    EXPECT_FALSE(jsonlVerifyLine(line));
}

TEST(Jsonl, ParseRejectsNonFlatAndMalformedInput)
{
    Fields f;
    EXPECT_FALSE(jsonlParseLine("", f));
    EXPECT_FALSE(jsonlParseLine("not json", f));
    EXPECT_FALSE(jsonlParseLine("{\"a\":\"unterminated", f));
    EXPECT_FALSE(jsonlParseLine("{\"a\":}", f));
    EXPECT_FALSE(jsonlParseLine("{\"a\":\"b\"", f));
    EXPECT_FALSE(jsonlParseLine("{\"a\":\"b\"} trailing", f));
    // Unknown escape sequences are rejected, not guessed at.
    EXPECT_FALSE(jsonlParseLine("{\"a\":\"\\x41\"}", f));
    // The flat subset has no nested objects or arrays.
    EXPECT_FALSE(jsonlParseLine("{\"a\":{\"b\":1}}", f));
    EXPECT_FALSE(jsonlParseLine("{\"a\":[1,2]}", f));

    // The empty object and integer members are accepted.
    EXPECT_TRUE(jsonlParseLine("{}", f));
    EXPECT_TRUE(f.empty());
    ASSERT_TRUE(jsonlParseLine("{\"n\":-7,\"s\":\"v\"}", f));
    EXPECT_EQ(f["n"], "-7");
    EXPECT_EQ(f["s"], "v");
}

TEST(Jsonl, SealedEmptyObjectRoundTrips)
{
    const std::string sealed = jsonlSealLine("{}");
    EXPECT_TRUE(jsonlVerifyLine(sealed));
    Fields f;
    ASSERT_TRUE(jsonlParseLine(sealed, f));
    EXPECT_EQ(f.size(), 1u);
    EXPECT_EQ(f.count("crc"), 1u);
}
