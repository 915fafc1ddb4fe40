/**
 * @file
 * The observability layer, verified end to end: stat-registry
 * registration/lookup/pattern-matching and JSON round-trip, automatic
 * unregistration when SimObjects die, Chrome-trace JSON
 * well-formedness with monotonic timestamps, and pcap captures whose
 * every frame re-parses with verified checksums — for both the QPIP
 * (IPv6, incl. fragments) and sockets (IPv4) fabrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "apps/pingpong.hh"
#include "apps/testbed.hh"
#include "apps/ttcp.hh"
#include "engine_stats.hh"
#include "golden.hh"
#include "inet/ip_frag.hh"
#include "inet/ipv4.hh"
#include "inet/ipv6.hh"
#include "inet/tcp_conn.hh"
#include "inet/tcp_header.hh"
#include "inet/udp.hh"
#include "net/link.hh"
#include "net/pcap.hh"
#include "sim/simulation.hh"
#include "sim/stat_registry.hh"
#include "sim/trace.hh"

using namespace qpip;

// ---------------------------------------------------------------------
// Minimal JSON parser: enough to validate and inspect the registry
// dump and the Chrome trace (objects, arrays, strings, numbers,
// bools, null; \uXXXX escapes consumed, not decoded).
// ---------------------------------------------------------------------

namespace {

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    const JsonValue *
    field(const std::string &key) const
    {
        auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    std::optional<JsonValue>
    parse()
    {
        auto v = parseValue();
        skipWs();
        if (!v || pos_ != text_.size())
            return std::nullopt;
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return std::nullopt;
                char e = text_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return std::nullopt;
                    for (int i = 0; i < 4; ++i) {
                        if (!std::isxdigit(static_cast<unsigned char>(
                                text_[pos_ + i])))
                            return std::nullopt;
                    }
                    pos_ += 4;
                    out += '?';
                    break;
                  }
                  default: return std::nullopt;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return std::nullopt; // raw control char: invalid
            } else {
                out += c;
            }
        }
        return std::nullopt;
    }

    std::optional<JsonValue>
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size())
            return std::nullopt;
        JsonValue v;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            v.kind = JsonValue::Kind::Object;
            skipWs();
            if (consume('}'))
                return v;
            while (true) {
                auto key = parseString();
                if (!key || !consume(':'))
                    return std::nullopt;
                auto val = parseValue();
                if (!val)
                    return std::nullopt;
                v.obj.emplace(std::move(*key), std::move(*val));
                if (consume(','))
                    continue;
                if (consume('}'))
                    return v;
                return std::nullopt;
            }
        }
        if (c == '[') {
            ++pos_;
            v.kind = JsonValue::Kind::Array;
            skipWs();
            if (consume(']'))
                return v;
            while (true) {
                auto val = parseValue();
                if (!val)
                    return std::nullopt;
                v.arr.push_back(std::move(*val));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return v;
                return std::nullopt;
            }
        }
        if (c == '"') {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            v.kind = JsonValue::Kind::String;
            v.str = std::move(*s);
            return v;
        }
        if (literal("true")) {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (literal("false")) {
            v.kind = JsonValue::Kind::Bool;
            return v;
        }
        if (literal("null"))
            return v;
        // Number.
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        v.number = std::strtod(start, &end);
        if (end == start)
            return std::nullopt;
        pos_ += static_cast<std::size_t>(end - start);
        v.kind = JsonValue::Kind::Number;
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

std::optional<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

// ---------------------------------------------------------------------
// Minimal pcap reader for verifying PcapWriter output.
// ---------------------------------------------------------------------

struct PcapFrame
{
    std::uint32_t tsSec = 0;
    std::uint32_t tsUsec = 0;
    std::uint32_t origLen = 0;
    std::vector<std::uint8_t> data;
};

struct PcapFile
{
    std::uint32_t magic = 0;
    std::uint16_t major = 0, minor = 0;
    std::uint32_t snaplen = 0;
    std::uint32_t linktype = 0;
    std::vector<PcapFrame> frames;
};

std::uint32_t
le32(const std::vector<std::uint8_t> &b, std::size_t at)
{
    return static_cast<std::uint32_t>(b[at]) |
           (static_cast<std::uint32_t>(b[at + 1]) << 8) |
           (static_cast<std::uint32_t>(b[at + 2]) << 16) |
           (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint16_t
le16(const std::vector<std::uint8_t> &b, std::size_t at)
{
    return static_cast<std::uint16_t>(
        b[at] | (static_cast<std::uint16_t>(b[at + 1]) << 8));
}

std::optional<PcapFile>
parsePcap(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < net::pcapFileHeaderBytes)
        return std::nullopt;
    PcapFile f;
    f.magic = le32(bytes, 0);
    f.major = le16(bytes, 4);
    f.minor = le16(bytes, 6);
    f.snaplen = le32(bytes, 16);
    f.linktype = le32(bytes, 20);
    std::size_t at = net::pcapFileHeaderBytes;
    while (at < bytes.size()) {
        if (at + net::pcapRecordHeaderBytes > bytes.size())
            return std::nullopt; // truncated record header
        PcapFrame fr;
        fr.tsSec = le32(bytes, at);
        fr.tsUsec = le32(bytes, at + 4);
        const std::uint32_t incl = le32(bytes, at + 8);
        fr.origLen = le32(bytes, at + 12);
        at += net::pcapRecordHeaderBytes;
        if (at + incl > bytes.size())
            return std::nullopt; // truncated frame
        fr.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                       bytes.begin() +
                           static_cast<std::ptrdiff_t>(at + incl));
        at += incl;
        f.frames.push_back(std::move(fr));
    }
    return f;
}

/**
 * Re-parse every captured frame: IP header (checksum-verified for
 * v4), v6 fragments through a reassembler, and the TCP/UDP checksum
 * of every complete datagram. @return number of verified transport
 * segments, or -1 on any parse/checksum failure.
 */
int
verifyCapturedFrames(const PcapFile &pcap)
{
    inet::Ipv6Reassembler reass;
    int verified = 0;
    sim::Tick fakeNow = 0;
    for (const auto &frame : pcap.frames) {
        if (frame.data.empty())
            return -1;
        const int version = frame.data[0] >> 4;
        std::optional<inet::IpDatagram> dgram;
        if (version == 4) {
            inet::IpDatagram d;
            if (!inet::parseIpv4(frame.data, d))
                return -1;
            dgram = std::move(d);
        } else if (version == 6) {
            inet::Ipv6Packet v6;
            if (!inet::parseIpv6(frame.data, v6))
                return -1;
            dgram = reass.offer(v6, fakeNow++);
            if (!dgram)
                continue; // partial fragment; completes later
        } else {
            return -1;
        }
        inet::TcpHeader tcp;
        inet::UdpHeader udp;
        std::span<const std::uint8_t> payload;
        if (dgram->proto == inet::IpProto::Tcp) {
            if (!inet::parseTcp(dgram->src, dgram->dst, dgram->payload,
                                tcp, payload))
                return -1;
        } else if (dgram->proto == inet::IpProto::Udp) {
            if (!inet::parseUdp(dgram->src, dgram->dst, dgram->payload,
                                udp, payload))
                return -1;
        } else {
            return -1;
        }
        ++verified;
    }
    return verified;
}

} // namespace

// ---------------------------------------------------------------------
// Stat registry
// ---------------------------------------------------------------------

TEST(StatRegistry, RegisterLookupRemove)
{
    sim::StatRegistry reg;
    sim::Counter c;
    sim::SampleStat s;
    sim::Histogram h(0.0, 10.0, 5);
    c.inc(42);
    s.sample(1.5);
    s.sample(2.5);
    h.sample(3.0);

    // Full paths through unprefixed groups; the latency stat has its
    // own group so it can be unregistered alone.
    sim::StatGroup nic, lat;
    nic.init(reg, "");
    lat.init(reg, "");
    nic.add("node0.nic.pkts", c);
    lat.add("node0.nic.lat", s);
    nic.add("node0.nic.sizes", h);
    EXPECT_EQ(reg.size(), 3u);

    ASSERT_NE(reg.counter("node0.nic.pkts"), nullptr);
    EXPECT_EQ(reg.counter("node0.nic.pkts")->value(), 42u);
    EXPECT_EQ(reg.counterValue("node0.nic.pkts"), 42u);
    // qpip-lint: stat-path-ok(deliberately unregistered: the test asserts the 0 fallback for absent paths)
    EXPECT_EQ(reg.counterValue("absent.path"), 0u);

    ASSERT_NE(reg.sample("node0.nic.lat"), nullptr);
    EXPECT_DOUBLE_EQ(reg.sample("node0.nic.lat")->mean(), 2.0);
    ASSERT_NE(reg.histogram("node0.nic.sizes"), nullptr);

    // Kind-checked lookups reject the wrong kind.
    EXPECT_EQ(reg.counter("node0.nic.lat"), nullptr);
    EXPECT_EQ(reg.sample("node0.nic.pkts"), nullptr);
    EXPECT_EQ(reg.histogram("node0.nic.pkts"), nullptr);

    lat.clear();
    EXPECT_FALSE(reg.contains("node0.nic.lat"));
    EXPECT_EQ(reg.size(), 2u);
}

TEST(StatRegistry, PatternMatching)
{
    using sim::statPatternMatch;
    EXPECT_TRUE(statPatternMatch("*", "a.b.c"));
    EXPECT_TRUE(statPatternMatch("a.*.c", "a.b.c"));
    EXPECT_TRUE(statPatternMatch("a.*", "a.b.c"));
    EXPECT_TRUE(statPatternMatch("*.c", "a.b.c"));
    EXPECT_TRUE(statPatternMatch("a.?.c", "a.b.c"));
    EXPECT_FALSE(statPatternMatch("a.?.c", "a.bb.c"));
    EXPECT_FALSE(statPatternMatch("a.b", "a.b.c"));
    EXPECT_TRUE(statPatternMatch("*Drops*", "host0.nic.queueDrops"));
    EXPECT_FALSE(statPatternMatch("*Drops", "host0.nic.dropsTotal"));
    // '*' can match across multiple segments and backtrack.
    EXPECT_TRUE(statPatternMatch("a*b*c", "axxbyybzzc"));
    EXPECT_FALSE(statPatternMatch("a*b*c", "axxbyyb"));

    sim::Counter c1, c2, c3;
    sim::StatRegistry reg;
    sim::StatGroup g;
    g.init(reg, "");
    g.add("host0.nic.tx", c1);
    g.add("host0.nic.rx", c2);
    g.add("host1.nic.tx", c3);
    EXPECT_EQ(reg.match("*.tx").size(), 2u);
    EXPECT_EQ(reg.match("host0.*").size(), 2u);
    EXPECT_EQ(reg.match("*").size(), 3u);
    EXPECT_TRUE(reg.match("none.*").empty());
}

TEST(StatRegistry, JsonDumpRoundTrips)
{
    sim::StatRegistry reg;
    sim::Counter c;
    sim::SampleStat s;
    c.inc(7);
    s.sample(0.5);
    s.sample(1.5);
    s.sample(4.0);
    sim::StatGroup g;
    g.init(reg, "x");
    g.add("count", c);
    g.add("lat", s);

    auto parsed = parseJson(reg.jsonDump());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->kind, JsonValue::Kind::Object);
    ASSERT_EQ(parsed->obj.size(), 2u);

    const JsonValue *count = parsed->field("x.count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->field("kind")->str, "counter");
    EXPECT_DOUBLE_EQ(count->field("value")->number, 7.0);

    const JsonValue *lat = parsed->field("x.lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->field("kind")->str, "sample");
    EXPECT_DOUBLE_EQ(lat->field("count")->number, 3.0);
    EXPECT_DOUBLE_EQ(lat->field("mean")->number, 2.0);
    EXPECT_DOUBLE_EQ(lat->field("min")->number, 0.5);
    EXPECT_DOUBLE_EQ(lat->field("max")->number, 4.0);

    // Pattern-restricted dump only includes matching paths.
    auto partial = parseJson(reg.jsonDump("*.count"));
    ASSERT_TRUE(partial.has_value());
    EXPECT_EQ(partial->obj.size(), 1u);
}

TEST(StatRegistry, SimObjectsAutoRegisterAndUnregister)
{
    sim::Simulation sim;
    EXPECT_EQ(sim.stats().size(), 0u);
    {
        net::Link link(sim, "lnk", net::gigabitEthernetLink());
        EXPECT_TRUE(sim.stats().contains("lnk.side0.packetsSent"));
        EXPECT_TRUE(sim.stats().contains("lnk.side1.faultDrops"));
        // Eight counters per direction.
        EXPECT_EQ(sim.stats().size(), 16u);
    }
    // Destruction unregisters every path the link owned.
    EXPECT_EQ(sim.stats().size(), 0u);
    EXPECT_FALSE(sim.stats().contains("lnk.side0.packetsSent"));
}

TEST(StatRegistry, FullTestbedPublishesHierarchy)
{
    apps::QpipTestbed bed(2);
    auto &stats = bed.sim().stats();
    // Firmware stages, doorbells, links and switch all registered.
    EXPECT_TRUE(stats.contains("host0.qnic.fw.stage.getWr"));
    EXPECT_TRUE(stats.contains("host0.qnic.fw.busyTicks"));
    EXPECT_TRUE(stats.contains("host0.qnic.doorbells.rings"));
    EXPECT_TRUE(stats.contains("host1.qnic.reass.fragmentsIn"));
    EXPECT_TRUE(stats.contains("fabric.link0.side0.packetsSent"));
    EXPECT_TRUE(stats.contains("fabric.switch.forwarded"));
    // Every firmware stage path is enumerable by pattern.
    EXPECT_EQ(stats.match("host0.qnic.fw.stage.*").size(),
              nic::numFwStages);

    // The whole dump parses as JSON.
    auto parsed = parseJson(stats.jsonDump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->obj.size(), stats.size());
}

TEST(StatRegistry, PerConnectionTcpStatsAppearOnConnect)
{
    apps::QpipTestbed bed(2);
    auto res = apps::runQpipTcpPingPong(bed, 4);
    ASSERT_TRUE(res.completed);
    auto &stats = bed.sim().stats();
    // Client QP 1 on host 0, accepted QP on host 1.
    auto client = stats.match("host0.qnic.qp*.tcp.segsOut");
    auto server = stats.match("host1.qnic.qp*.tcp.segsOut");
    ASSERT_EQ(client.size(), 1u);
    ASSERT_EQ(server.size(), 1u);
    EXPECT_GT(stats.counterValue(client[0]), 0u);
    EXPECT_GT(stats.counterValue(server[0]), 0u);
}

// A connection's counters are published through one shared table;
// the dump must be the one their leaf-by-leaf registration gives,
// interleaved with a parent group's leaves around the table's key.
TEST(StatRegistry, TcpStatsTableDumpsLikeLeafByLeaf)
{
    sim::StatRegistry viaTable, viaLeaves;
    inet::TcpStats stats;
    sim::Counter *counters[] = {
        &stats.segsOut,      &stats.segsIn,        &stats.bytesOut,
        &stats.bytesIn,      &stats.retransmits,   &stats.fastRetransmits,
        &stats.timeouts,     &stats.dupAcksIn,     &stats.oooSegments,
        &stats.oooDropped,   &stats.hdrPredicted,  &stats.msgRefused,
        &stats.persistProbes, &stats.badSegments};
    for (std::size_t i = 0; i < std::size(counters); ++i)
        counters[i]->inc(100 + i);
    sim::Counter before, dotted, after;
    before.inc(1);
    dotted.inc(2);
    after.inc(3);

    sim::StatGroup parentT, parentL;
    for (auto [reg, parent] : {std::pair{&viaTable, &parentT},
                               std::pair{&viaLeaves, &parentL}}) {
        parent->init(*reg, "host0");
        parent->add("tcp", before);
        parent->add("tcp.conn0.retransmitsX", dotted);
        parent->add("zz", after);
    }
    stats.registerIn(viaTable, "host0.tcp.conn0");
    sim::StatGroup g;
    g.init(viaLeaves, "host0.tcp.conn0");
    g.add("segsOut", stats.segsOut);
    g.add("segsIn", stats.segsIn);
    g.add("bytesOut", stats.bytesOut);
    g.add("bytesIn", stats.bytesIn);
    g.add("retransmits", stats.retransmits);
    g.add("fastRetransmits", stats.fastRetransmits);
    g.add("timeouts", stats.timeouts);
    g.add("dupAcksIn", stats.dupAcksIn);
    g.add("oooSegments", stats.oooSegments);
    g.add("oooDropped", stats.oooDropped);
    g.add("hdrPredicted", stats.hdrPredicted);
    g.add("msgRefused", stats.msgRefused);
    g.add("persistProbes", stats.persistProbes);
    g.add("badSegments", stats.badSegments);

    EXPECT_TRUE(stats.registered());
    EXPECT_EQ(viaTable.size(), 17u);
    EXPECT_EQ(viaTable.jsonDump(), viaLeaves.jsonDump());
    EXPECT_EQ(viaTable.match(), viaLeaves.match());
    EXPECT_EQ(viaTable.counter("host0.tcp.conn0.badSegments"),
              &stats.badSegments);
    EXPECT_EQ(viaTable.counterValue("host0.tcp.conn0.segsIn"), 101u);
    EXPECT_EQ(viaTable.sample("host0.tcp.conn0.segsIn"), nullptr);

    // Re-registering moves every path.
    stats.registerIn(viaTable, "host1.tcp.conn0");
    EXPECT_FALSE(viaTable.contains("host0.tcp.conn0.segsIn"));
    EXPECT_EQ(viaTable.counter("host1.tcp.conn0.segsIn"), &stats.segsIn);
    EXPECT_EQ(viaTable.size(), 17u);
}

// Connections come and go; every registration they made goes with
// them, and the registry is back to its baseline after each round.
TEST(StatRegistry, ConnectionChurnReturnsToBaseline)
{
    constexpr std::size_t conns = 16;
    apps::SocketsTestbed bed(2, apps::SocketsFabric::GigabitEthernet);
    auto &sim = bed.sim();
    const std::size_t baseline = sim.stats().size();
    const auto cfg = bed.tcpConfig();
    bed.host(1).stack().tcpListen(
        7, cfg, [](std::shared_ptr<host::TcpSocket> sock) {
            sock->recv(64, [sock](std::vector<std::uint8_t> d) {
                if (d.empty())
                    sock->close();
            });
        });
    for (std::uint16_t round = 0; round < 4; ++round) {
        SCOPED_TRACE(round);
        std::vector<std::shared_ptr<host::TcpSocket>> clients;
        for (std::uint16_t k = 0; k < conns; ++k) {
            clients.push_back(bed.host(0).stack().tcpConnect(
                bed.addr(0, static_cast<std::uint16_t>(
                                30000 + round * conns + k)),
                bed.addr(1, 7), cfg, nullptr));
        }
        sim.runUntilCondition(
            [&] {
                return sim.stats().match("*.tcp.*.segsOut").size() ==
                       2 * conns;
            },
            sim.now() + sim::oneSec);
        ASSERT_EQ(sim.stats().match("*.tcp.*.segsOut").size(), 2 * conns);
        ASSERT_EQ(sim.stats().size(), baseline + 2 * conns * 14);
        for (const auto &c : clients)
            c->close();
        clients.clear();
        sim.runUntilCondition(
            [&] { return sim.stats().size() == baseline; },
            sim.now() + 10 * sim::oneSec);
        ASSERT_EQ(sim.stats().size(), baseline);
        EXPECT_TRUE(sim.stats().match("*.tcp.*").empty());
    }
}

// Whole-dump byte pins: the path order, the selection and the number
// formatting of jsonDump() must not drift. Each dump is read where
// its harness returned, at its FlowRun's stop tick, so the
// partitioned dual-star dump, less its parallel.* entries, is the
// unpartitioned run's.
TEST(StatRegistry, JsonDumpMatchesRecordedBytes)
{
    {
        apps::QpipTestbed bed(2);
        ASSERT_TRUE(apps::runQpipTcpPingPong(bed, 4).completed);
        test::expectMatchesGolden(bed.sim().stats().jsonDump(),
                                  "stats_qpip_pingpong.json");
    }
    const auto dual_star_dump = [](int threads) {
        apps::SocketsTestbed bed(4, apps::SocketsFabric::GigabitEthernet,
                                 1, host::HostCostModel{},
                                 apps::FabricTopology::DualStar);
        if (threads > 0)
            bed.enableParallel(threads);
        const auto r = apps::runSocketsTtcpPairs(
            bed, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 16 * 1024);
        EXPECT_TRUE(r.completed);
        return bed.sim().stats().jsonDump();
    };
    const std::string partitioned = dual_star_dump(2);
    test::expectMatchesGolden(partitioned,
                              "stats_ttcp_pairs_dualstar_t2.json");
    EXPECT_EQ(test::withoutEngineStats(partitioned),
              test::withoutEngineStats(dual_star_dump(0)));
}

namespace {

/** One registration of the flat reference model. */
struct RefEntry
{
    const sim::Counter *counter = nullptr;
    const sim::SampleStat *sample = nullptr;
    const sim::Histogram *histogram = nullptr;
    /** Registering group's slot. */
    int owner = -1;
};

using RefModel = std::map<std::string, RefEntry>;

/** jsonDump(pattern) of @p ref, built one entry at a time. */
std::string
refJsonDump(const RefModel &ref, const std::string &pattern)
{
    std::string out = "{";
    for (const auto &[path, e] : ref) {
        if (!sim::statPatternMatch(pattern, path))
            continue;
        // A one-entry dump has no order to get wrong: "{<entry>\n}".
        sim::StatRegistry one;
        sim::StatGroup g;
        g.init(one, "");
        if (e.counter != nullptr)
            g.add(path, *e.counter);
        else if (e.sample != nullptr)
            g.add(path, *e.sample);
        else
            g.add(path, *e.histogram);
        const std::string single = one.jsonDump();
        if (out.size() > 1)
            out += ",";
        out += single.substr(1, single.size() - 3);
    }
    out += out.size() > 1 ? "\n}" : "}";
    return out;
}

/** A stats struct published through shared leaf tables. */
struct TableStats
{
    sim::Counter x;
    sim::SampleStat b;
    sim::Histogram c{0.0, 8.0, 4};
    sim::Counter a;
};

/** One leaf of each kind. */
const sim::StatTable<TableStats> &
wideTable()
{
    static const sim::StatTable<TableStats> table = [] {
        sim::StatTable<TableStats> t;
        t.add("x", &TableStats::x);
        t.add("c", &TableStats::c);
        t.add("b", &TableStats::b);
        return t;
    }();
    return table;
}

/** A leaf that sorts first under its key. */
const sim::StatTable<TableStats> &
narrowTable()
{
    static const sim::StatTable<TableStats> table = [] {
        sim::StatTable<TableStats> t;
        t.add("a", &TableStats::a);
        return t;
    }();
    return table;
}

} // namespace

// The per-group registry against a flat map of full paths: random
// registration and group teardown over nested prefixes ("", "a",
// "a.b", "a.b.c"), dotted leaves that land in another group's
// directory, siblings that sort around the '.' separator ("a.b-c",
// "a.b+c" next to "a.b"), and groups bound to shared leaf tables
// under the same keys as per-leaf groups and their dotted leaves.
TEST(StatRegistry, MatchesFlatReferenceModel)
{
    const std::vector<std::string> prefixes = {
        "", "a", "a.b", "a.b-c", "a.b+c", "a.b.c", "ab", "b"};
    const std::vector<std::string> leaves = {
        "x", "c", "b", "c.x", "b.c", "b.c.x", "b-c.x", "y.z", "a"};
    const std::vector<std::string> patterns = {
        "*", "a.*", "*.x", "a.b?c.*", "a.b*", "a.b.c*", "x", "?"};
    const auto join = [](const std::string &p, const std::string &l) {
        return p.empty() ? l : p + "." + l;
    };
    std::vector<std::string> paths;
    for (const auto &p : prefixes) {
        for (const auto &l : leaves)
            paths.push_back(join(p, l));
    }
    paths.push_back("absent");
    paths.push_back("a.");

    constexpr int steps = 1500;
    std::vector<sim::Counter> counters(steps);
    std::vector<sim::SampleStat> samples(steps);
    std::vector<sim::Histogram> histograms;
    histograms.reserve(steps);
    for (int i = 0; i < steps; ++i) {
        counters[i].inc(static_cast<std::uint64_t>(i));
        samples[i].sample(0.25 * i);
        histograms.emplace_back(0.0, 8.0, 4);
        histograms[i].sample(static_cast<double>(i % 10));
    }

    sim::StatRegistry reg;
    RefModel ref;
    constexpr int numGroups = 10;
    std::vector<std::unique_ptr<sim::StatGroup>> groups;
    std::vector<std::string> groupPrefix(numGroups);
    std::vector<bool> tableBound(numGroups);
    int tableBinds = 0;
    std::vector<std::unique_ptr<TableStats>> tableStats;
    for (int g = 0; g < numGroups; ++g) {
        groups.push_back(std::make_unique<sim::StatGroup>());
        tableStats.push_back(std::make_unique<TableStats>());
        TableStats &t = *tableStats.back();
        t.x.inc(10'000 + g);
        t.a.inc(20'000 + g);
        t.b.sample(g);
        t.c.sample(g % 8);
    }
    const auto tableEntries = [&](int g,
                                  const sim::StatTable<TableStats> &table) {
        TableStats &t = *tableStats[g];
        std::map<std::string, RefEntry> out;
        for (const auto &leaf : table.leaves()) {
            RefEntry e;
            e.owner = g;
            if (leaf.name == "x")
                e.counter = &t.x;
            else if (leaf.name == "a")
                e.counter = &t.a;
            else if (leaf.name == "b")
                e.sample = &t.b;
            else
                e.histogram = &t.c;
            out[join(groupPrefix[g], leaf.name)] = e;
        }
        return out;
    };

    std::mt19937 rng(2024);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    for (int i = 0; i < steps; ++i) {
        SCOPED_TRACE(i);
        const int g = static_cast<int>(pick(numGroups));
        const std::size_t op = pick(100);
        RefEntry e;
        switch (pick(3)) {
          case 0: e.counter = &counters[i]; break;
          case 1: e.sample = &samples[i]; break;
          default: e.histogram = &histograms[i]; break;
        }
        const auto addTo = [&e](auto &target, const std::string &name) {
            if (e.counter != nullptr)
                target.add(name, *e.counter);
            else if (e.sample != nullptr)
                target.add(name, *e.sample);
            else
                target.add(name, *e.histogram);
        };
        if (!groups[g]->bound()) {
            groupPrefix[g] = prefixes[pick(prefixes.size())];
            const std::size_t how = pick(4);
            const auto &table = how == 0 ? wideTable() : narrowTable();
            const auto entries = tableEntries(g, table);
            tableBound[g] = how < 2 &&
                            std::none_of(entries.begin(), entries.end(),
                                         [&ref](const auto &kv) {
                                             return ref.contains(kv.first);
                                         });
            if (tableBound[g]) {
                groups[g]->init(reg, groupPrefix[g], table, *tableStats[g]);
                ref.insert(entries.begin(), entries.end());
                ++tableBinds;
            } else {
                groups[g]->init(reg, groupPrefix[g]);
            }
            EXPECT_EQ(groups[g]->prefix(), groupPrefix[g]);
        } else if (op < 75 && tableBound[g]) {
            // A table-bound group takes no adds.
        } else if (op < 75) {
            const std::string &leaf = leaves[pick(leaves.size())];
            const std::string path = join(groupPrefix[g], leaf);
            if (!ref.contains(path)) {
                addTo(*groups[g], leaf);
                e.owner = g;
                ref[path] = e;
            }
        } else {
            groups[g]->clear();
            std::erase_if(ref, [g](const auto &kv) {
                return kv.second.owner == g;
            });
        }

        ASSERT_EQ(reg.size(), ref.size());
        for (const auto &pattern : patterns) {
            std::vector<std::string> want;
            for (const auto &[path, entry] : ref) {
                if (sim::statPatternMatch(pattern, path))
                    want.push_back(path);
            }
            ASSERT_EQ(reg.match(pattern), want) << pattern;
        }
        for (const char *pattern : {"*", "a.b*", "*.x"}) {
            ASSERT_EQ(reg.jsonDump(pattern), refJsonDump(ref, pattern))
                << pattern;
        }
        for (const auto &path : paths) {
            const auto it = ref.find(path);
            const RefEntry want = it != ref.end() ? it->second : RefEntry{};
            ASSERT_EQ(reg.contains(path), it != ref.end()) << path;
            ASSERT_EQ(reg.counter(path), want.counter) << path;
            ASSERT_EQ(reg.sample(path), want.sample) << path;
            ASSERT_EQ(reg.histogram(path), want.histogram) << path;
        }
    }
    EXPECT_GE(tableBinds, 20);
}

// Every way two registrations can name one path panics at the second.

TEST(StatRegistryDeathTest, SameLeafTwiceInOneGroupPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Counter c1, c2;
    EXPECT_DEATH(
        {
            sim::StatRegistry reg;
            sim::StatGroup g;
            g.init(reg, "a");
            g.add("x", c1);
            // qpip-lint: stat-path-ok(the duplicate under test)
            g.add("x", c2);
        },
        "duplicate stat path 'a.x'");
}

TEST(StatRegistryDeathTest, SameLeafInTwoGroupsOfOnePrefixPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Counter c1, c2;
    EXPECT_DEATH(
        {
            sim::StatRegistry reg;
            sim::StatGroup g1;
            sim::StatGroup g2;
            g1.init(reg, "a");
            g1.add("x", c1);
            g2.init(reg, "a");
            g2.add("x", c2);
        },
        "duplicate stat path 'a.x'");
}

TEST(StatRegistryDeathTest, DottedLeafAgainstChildGroupLeafPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Counter c1, c2;
    EXPECT_DEATH(
        {
            sim::StatRegistry reg;
            sim::StatGroup child;
            sim::StatGroup parent;
            child.init(reg, "a.b");
            child.add("c", c1);
            parent.init(reg, "a");
            parent.add("b.c", c2);
        },
        "duplicate stat path 'a.b.c'");
}

TEST(StatRegistryDeathTest, ChildGroupLeafAgainstDottedLeafPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Counter c1, c2;
    EXPECT_DEATH(
        {
            sim::StatRegistry reg;
            sim::StatGroup parent;
            sim::StatGroup child;
            parent.init(reg, "a");
            parent.add("b.c", c1);
            child.init(reg, "a.b");
            child.add("c", c2);
        },
        "duplicate stat path 'a.b.c'");
}

TEST(StatRegistryDeathTest, TableLeafAgainstSiblingGroupLeafPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Counter c;
    EXPECT_DEATH(
        {
            sim::StatRegistry reg;
            sim::StatGroup sibling;
            sibling.init(reg, "a.tcp");
            sibling.add("segsIn", c);
            inet::TcpStats stats;
            stats.registerIn(reg, "a.tcp");
        },
        "duplicate stat path 'a.tcp.segsIn'");
    // A table leaf against a parent group's dotted leaf.
    EXPECT_DEATH(
        {
            sim::StatRegistry reg;
            sim::StatGroup parent;
            parent.init(reg, "a");
            parent.add("tcp.segsIn", c);
            inet::TcpStats stats;
            stats.registerIn(reg, "a.tcp");
        },
        "duplicate stat path 'a.tcp.segsIn'");
}

TEST(StatRegistryDeathTest, DottedTableLeafPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            sim::StatRegistry reg;
            sim::StatTable<TableStats> t;
            t.add("x.y", &TableStats::x);
            TableStats stats;
            sim::StatGroup g;
            g.init(reg, "a", t, stats);
        },
        "table leaf 'x.y' has a dot");
}

TEST(StatRegistryDeathTest, AddToTableBoundGroupPanics)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Counter c;
    EXPECT_DEATH(
        {
            sim::StatRegistry reg;
            TableStats stats;
            sim::StatGroup g;
            g.init(reg, "a", narrowTable(), stats);
            g.add("extra", c);
        },
        "bound to a table");
}

// ---------------------------------------------------------------------
// Event tracing
// ---------------------------------------------------------------------

TEST(Trace, JsonWellFormedWithMonotonicTimestamps)
{
    apps::QpipTestbed bed(2);
    bed.sim().tracer().enable();
    auto res = apps::runQpipTcpPingPong(bed, 8);
    ASSERT_TRUE(res.completed);
    ASSERT_GT(bed.sim().tracer().numEvents(), 0u);

    auto parsed = parseJson(bed.sim().tracer().json());
    ASSERT_TRUE(parsed.has_value());
    const JsonValue *events = parsed->field("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    double last_ts = -1.0;
    std::size_t spans = 0, instants = 0, meta = 0;
    for (const auto &e : events->arr) {
        ASSERT_EQ(e.kind, JsonValue::Kind::Object);
        const JsonValue *ph = e.field("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "M") {
            ++meta;
            continue;
        }
        const JsonValue *ts = e.field("ts");
        ASSERT_NE(ts, nullptr);
        EXPECT_GE(ts->number, last_ts);
        last_ts = ts->number;
        if (ph->str == "X") {
            ++spans;
            ASSERT_NE(e.field("dur"), nullptr);
        } else if (ph->str == "i") {
            ++instants;
        } else {
            FAIL() << "unexpected event phase " << ph->str;
        }
        ASSERT_NE(e.field("name"), nullptr);
    }
    // Firmware + link spans, TCP transition instants, track names.
    EXPECT_GT(spans, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_GT(meta, 0u);
    EXPECT_EQ(spans + instants, bed.sim().tracer().numEvents());
}

TEST(Trace, TcpTransitionsFollowHandshakeOrder)
{
    apps::QpipTestbed bed(2);
    bed.sim().tracer().enable();
    auto res = apps::runQpipTcpPingPong(bed, 2);
    ASSERT_TRUE(res.completed);

    const std::string json = bed.sim().tracer().json();
    // Active open, passive open, and both Established transitions.
    const auto syn_sent = json.find("Closed->SynSent");
    const auto syn_rcvd = json.find("Closed->SynRcvd");
    const auto est_active = json.find("SynSent->Established");
    const auto est_passive = json.find("SynRcvd->Established");
    EXPECT_NE(syn_sent, std::string::npos);
    EXPECT_NE(syn_rcvd, std::string::npos);
    EXPECT_NE(est_active, std::string::npos);
    EXPECT_NE(est_passive, std::string::npos);
    // Output is time-sorted: opens precede their Established events.
    EXPECT_LT(syn_sent, est_active);
    EXPECT_LT(syn_rcvd, est_passive);
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    apps::QpipTestbed bed(2);
    ASSERT_FALSE(bed.sim().tracer().enabled());
    auto res = apps::runQpipTcpPingPong(bed, 2);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(bed.sim().tracer().numEvents(), 0u);
}

// ---------------------------------------------------------------------
// Pcap capture
// ---------------------------------------------------------------------

TEST(Pcap, QpipCaptureReparsesWithValidChecksums)
{
    apps::QpipTestbed bed(2);
    net::PcapWriter pcap;
    net::tapLink(bed.fabric().linkFor(0), pcap);
    net::tapLink(bed.fabric().linkFor(1), pcap);

    auto res = apps::runQpipTcpPingPong(bed, 8);
    ASSERT_TRUE(res.completed);
    ASSERT_GT(pcap.frames(), 0u);

    auto parsed = parsePcap(pcap.bytes());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->magic, 0xa1b2c3d4u);
    EXPECT_EQ(parsed->major, 2u);
    EXPECT_EQ(parsed->minor, 4u);
    EXPECT_EQ(parsed->linktype, net::pcapLinktypeRaw);
    EXPECT_EQ(parsed->frames.size(), pcap.frames());

    // Every frame is genuine IPv6+TCP wire bytes with good checksums.
    const int verified = verifyCapturedFrames(*parsed);
    ASSERT_GT(verified, 0);
    // Both taps saw the whole exchange: at least one segment per
    // ping-pong hop.
    EXPECT_GE(static_cast<std::size_t>(verified), 16u);

    // Timestamps never run backwards.
    std::uint64_t last = 0;
    for (const auto &f : parsed->frames) {
        const std::uint64_t us =
            static_cast<std::uint64_t>(f.tsSec) * 1000000u + f.tsUsec;
        EXPECT_GE(us, last);
        last = us;
        EXPECT_EQ(f.data.size(), f.origLen);
    }
}

TEST(Pcap, QpipFragmentedFramesReassembleFromCapture)
{
    // MTU far below the 16 KB message segment: every data segment
    // crosses the wire as IPv6 fragments, which the in-test
    // reassembler must stitch back together from capture bytes alone.
    apps::QpipTestbed bed(2, 1500);
    net::PcapWriter pcap;
    net::tapLink(bed.fabric().linkFor(0), pcap);
    net::tapLink(bed.fabric().linkFor(1), pcap);

    auto res = apps::runQpipTcpPingPong(bed, 4, 4096);
    ASSERT_TRUE(res.completed);

    auto parsed = parsePcap(pcap.bytes());
    ASSERT_TRUE(parsed.has_value());
    bool saw_fragment = false;
    for (const auto &f : parsed->frames) {
        inet::Ipv6Packet v6;
        ASSERT_TRUE(inet::parseIpv6(f.data, v6));
        saw_fragment = saw_fragment || v6.frag.has_value();
    }
    ASSERT_TRUE(saw_fragment);
    EXPECT_GT(verifyCapturedFrames(*parsed), 0);
}

TEST(Pcap, SocketsIpv4CaptureReparsesWithValidChecksums)
{
    apps::SocketsTestbed bed(2, apps::SocketsFabric::GigabitEthernet);
    net::PcapWriter pcap;
    net::tapLink(bed.fabric().linkFor(0), pcap);
    net::tapLink(bed.fabric().linkFor(1), pcap);

    auto res = apps::runSocketsTtcp(bed, 64 * 1024);
    ASSERT_TRUE(res.completed);
    ASSERT_GT(pcap.frames(), 0u);

    auto parsed = parsePcap(pcap.bytes());
    ASSERT_TRUE(parsed.has_value());
    // All frames are IPv4 on this fabric.
    for (const auto &f : parsed->frames) {
        ASSERT_FALSE(f.data.empty());
        EXPECT_EQ(f.data[0] >> 4, 4);
    }
    EXPECT_GT(verifyCapturedFrames(*parsed), 0);
}

TEST(Pcap, CaptureIncludesFramesTheFaultInjectorDrops)
{
    // The tap sits after fault injection but before the drop branch:
    // a capture of a lossy wire shows every frame that occupied it.
    sim::Simulation sim;
    net::Link link(sim, "lossy", net::gigabitEthernetLink());
    struct NullSink : net::NetReceiver
    {
        void onPacket(net::PacketPtr) override {}
    } sink;
    link.attach(1, sink);
    link.faultConfig().dropProb = 1.0;

    net::PcapWriter pcap;
    net::tapLink(link, pcap);
    auto pkt = net::makePacket();
    inet::IpDatagram d;
    d.src = *inet::InetAddr::parse("10.0.0.1");
    d.dst = *inet::InetAddr::parse("10.0.0.2");
    d.proto = inet::IpProto::Udp;
    d.payload = {1, 2, 3, 4, 5, 6, 7, 8};
    pkt->proto = net::NetProto::Ipv4;
    pkt->data = inet::serializeIpv4(d, 1);
    link.send(0, pkt);
    sim.run();

    EXPECT_EQ(link.counters(0).faultDrops.value(), 1u);
    EXPECT_EQ(pcap.frames(), 1u);
}
