/**
 * @file
 * Unit tests for the inet building blocks: Internet checksum,
 * addresses, IPv4/IPv6 headers, IPv6 fragmentation/reassembly, UDP
 * and TCP header serialization, RTT estimation and the reassembly
 * queue.
 */

#include <gtest/gtest.h>

#include "inet/checksum.hh"
#include "inet/inet_addr.hh"
#include "inet/ip_frag.hh"
#include "inet/ipv4.hh"
#include "inet/ipv6.hh"
#include "inet/pcb_table.hh"
#include "inet/rtt_estimator.hh"
#include "inet/tcp_header.hh"
#include "inet/tcp_reass.hh"
#include "inet/udp.hh"

using namespace qpip;
using namespace qpip::inet;

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

TEST(Checksum, Rfc1071ReferenceVector)
{
    // Example from RFC 1071 section 3.
    const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                                 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(internetChecksum(data), 0xffff - 0xddf2);
}

TEST(Checksum, OddLengthAndVerify)
{
    const std::uint8_t data[] = {0x01, 0x02, 0x03};
    auto c = internetChecksum(data);
    // Appending the checksum makes the whole thing verify.
    std::vector<std::uint8_t> with(data, data + 3);
    with.push_back(0); // pad to align the checksum on a word
    with.push_back(static_cast<std::uint8_t>(c >> 8));
    with.push_back(static_cast<std::uint8_t>(c));
    // Folded sum of data+checksum is 0xffff only when aligned; here
    // just check determinism and non-zero.
    EXPECT_NE(c, 0);
    EXPECT_EQ(c, internetChecksum(data));
}

TEST(Checksum, AccumulatorMatchesOneShot)
{
    std::vector<std::uint8_t> data(257);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    ChecksumAccumulator acc;
    acc.add(std::span(data).subspan(0, 100));
    acc.add(std::span(data).subspan(100, 57));
    acc.add(std::span(data).subspan(157));
    EXPECT_EQ(acc.finish(), internetChecksum(data));
}

// ---------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------

TEST(InetAddr, ParsesAndFormatsV4)
{
    auto a = Ipv4Addr::parse("10.0.0.1");
    ASSERT_TRUE(a);
    EXPECT_EQ(a->value, 0x0a000001u);
    EXPECT_EQ(a->toString(), "10.0.0.1");
    EXPECT_FALSE(Ipv4Addr::parse("10.0.0"));
    EXPECT_FALSE(Ipv4Addr::parse("10.0.0.256"));
    EXPECT_FALSE(Ipv4Addr::parse("ten.0.0.1"));
}

TEST(InetAddr, ParsesAndFormatsV6)
{
    auto a = Ipv6Addr::parse("fd00::2");
    ASSERT_TRUE(a);
    EXPECT_EQ(a->bytes[0], 0xfd);
    EXPECT_EQ(a->bytes[15], 0x02);
    EXPECT_EQ(a->toString(), "fd00::2");

    auto b = Ipv6Addr::parse("2001:db8:0:0:1:0:0:1");
    ASSERT_TRUE(b);
    EXPECT_EQ(b->toString(), "2001:db8::1:0:0:1");

    auto all_zero = Ipv6Addr::parse("::");
    ASSERT_TRUE(all_zero);
    EXPECT_EQ(all_zero->toString(), "::");

    EXPECT_FALSE(Ipv6Addr::parse("1::2::3"));
    EXPECT_FALSE(Ipv6Addr::parse("12345::1"));
}

TEST(InetAddr, FamilyAgnosticWrapper)
{
    auto v4 = InetAddr::parse("192.168.1.5");
    auto v6 = InetAddr::parse("fd00::1");
    ASSERT_TRUE(v4 && v6);
    EXPECT_FALSE(v4->isV6());
    EXPECT_TRUE(v6->isV6());
    EXPECT_NE(*v4, *v6);
    SockAddr sa{*v6, 7};
    EXPECT_EQ(sa.toString(), "[fd00::1]:7");
}

// ---------------------------------------------------------------------
// PCB table (four-tuple demux)
// ---------------------------------------------------------------------

TEST(PcbTable, OneFieldApartResolvesToItsOwnConnection)
{
    const SockAddr v4a{*InetAddr::parse("10.0.0.1"), 5000};
    const SockAddr v4b{*InetAddr::parse("10.0.0.2"), 6000};
    const SockAddr v6a{*InetAddr::parse("fd00::1"), 5000};
    const SockAddr v6b{*InetAddr::parse("fd00::2"), 6000};

    // Each base tuple plus every variant that differs from it in one
    // field: either port, either address's family, or one byte of
    // either address.
    std::vector<FourTuple> tuples;
    for (const FourTuple &base : {FourTuple{v4a, v4b},
                                  FourTuple{v6a, v6b}}) {
        tuples.push_back(base);
        for (SockAddr FourTuple::*side :
             {&FourTuple::local, &FourTuple::remote}) {
            FourTuple t = base;
            ++(t.*side).port;
            tuples.push_back(t);
            t = base;
            InetAddr &a = (t.*side).addr;
            a.family = a.isV6() ? Family::V4 : Family::V6;
            tuples.push_back(t);
            if (base.local.addr.isV6()) {
                for (std::size_t b = 0; b < 16; ++b) {
                    t = base;
                    (t.*side).addr.v6.bytes[b] ^= 0x01;
                    tuples.push_back(t);
                }
            } else {
                for (int b = 0; b < 4; ++b) {
                    t = base;
                    (t.*side).addr.v4.value ^= 1u << (8 * b);
                    tuples.push_back(t);
                }
            }
        }
    }
    std::vector<int> conns(tuples.size());
    for (std::size_t i = 0; i < tuples.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            ASSERT_NE(tuples[i], tuples[j]) << i << " vs " << j;

    PcbTable<int> table;
    for (std::size_t i = 0; i < tuples.size(); ++i)
        table.insertConn(tuples[i], &conns[i]);
    for (std::size_t i = 0; i < tuples.size(); ++i)
        EXPECT_EQ(table.lookupConn(tuples[i]), &conns[i]) << i;

    // Erase every other tuple: those now miss, the rest still resolve.
    for (std::size_t i = 0; i < tuples.size(); i += 2)
        table.eraseConn(tuples[i]);
    for (std::size_t i = 0; i < tuples.size(); ++i)
        EXPECT_EQ(table.lookupConn(tuples[i]),
                  i % 2 == 0 ? nullptr : &conns[i])
            << i;
}

// ---------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------

namespace {

IpDatagram
v4Datagram(std::size_t payload_len)
{
    IpDatagram d;
    d.src = *InetAddr::parse("10.0.0.1");
    d.dst = *InetAddr::parse("10.0.0.2");
    d.proto = IpProto::Tcp;
    d.payload.assign(payload_len, 0x42);
    return d;
}

IpDatagram
v6Datagram(std::size_t payload_len)
{
    IpDatagram d;
    d.src = *InetAddr::parse("fd00::1");
    d.dst = *InetAddr::parse("fd00::2");
    d.proto = IpProto::Tcp;
    d.payload.resize(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i)
        d.payload[i] = static_cast<std::uint8_t>(i);
    return d;
}

} // namespace

TEST(Ipv4, RoundTrip)
{
    auto d = v4Datagram(100);
    auto wire = serializeIpv4(d, 77);
    EXPECT_EQ(wire.size(), ipv4HeaderBytes + 100);

    IpDatagram out;
    ASSERT_TRUE(parseIpv4(wire, out));
    EXPECT_EQ(out.src, d.src);
    EXPECT_EQ(out.dst, d.dst);
    EXPECT_EQ(out.proto, IpProto::Tcp);
    EXPECT_EQ(out.payload, d.payload);
}

TEST(Ipv4, RejectsCorruptHeader)
{
    auto wire = serializeIpv4(v4Datagram(50), 1);
    wire[12] ^= 0xff; // flip a source-address byte
    IpDatagram out;
    EXPECT_FALSE(parseIpv4(wire, out));
}

TEST(Ipv4, RejectsTruncated)
{
    auto wire = serializeIpv4(v4Datagram(50), 1);
    wire.resize(10);
    IpDatagram out;
    EXPECT_FALSE(parseIpv4(wire, out));
}

// ---------------------------------------------------------------------
// IPv6 + fragmentation
// ---------------------------------------------------------------------

TEST(Ipv6, RoundTripAtomic)
{
    auto d = v6Datagram(200);
    auto wire = serializeIpv6(d);
    EXPECT_EQ(wire.size(), ipv6HeaderBytes + 200);
    Ipv6Packet out;
    ASSERT_TRUE(parseIpv6(wire, out));
    EXPECT_FALSE(out.frag.has_value());
    EXPECT_EQ(out.src, d.src);
    EXPECT_EQ(out.dst, d.dst);
    EXPECT_EQ(out.payload, d.payload);
}

TEST(Ipv6, FragmentsToMtuAndReassembles)
{
    auto d = v6Datagram(16384);
    FrameList frames;
    fragmentIpv6(d, 1500, 42, frames);
    EXPECT_GT(frames.size(), 10u);
    for (const auto &f : frames)
        EXPECT_LE(f.size(), 1500u);

    Ipv6Reassembler reass;
    std::optional<IpDatagram> got;
    for (const auto &f : frames) {
        Ipv6Packet pkt;
        ASSERT_TRUE(parseIpv6(f, pkt));
        ASSERT_TRUE(pkt.frag.has_value());
        EXPECT_EQ(pkt.frag->ident, 42u);
        auto r = reass.offer(pkt, 0);
        if (r)
            got = std::move(r);
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, d.payload);
    EXPECT_EQ(got->proto, IpProto::Tcp);
    EXPECT_EQ(reass.pending(), 0u);
}

TEST(Ipv6, ReassemblesOutOfOrderFragments)
{
    auto d = v6Datagram(5000);
    FrameList frames;
    fragmentIpv6(d, 1500, 7, frames);
    std::reverse(frames.begin(), frames.end());
    Ipv6Reassembler reass;
    std::optional<IpDatagram> got;
    for (const auto &f : frames) {
        Ipv6Packet pkt;
        ASSERT_TRUE(parseIpv6(f, pkt));
        auto r = reass.offer(pkt, 0);
        if (r)
            got = std::move(r);
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, d.payload);
}

TEST(Ipv6, DuplicateFragmentsAreHarmless)
{
    auto d = v6Datagram(4000);
    FrameList frames;
    fragmentIpv6(d, 1500, 9, frames);
    Ipv6Reassembler reass;
    std::optional<IpDatagram> got;
    for (int round = 0; round < 2 && !got; ++round) {
        for (const auto &f : frames) {
            Ipv6Packet pkt;
            ASSERT_TRUE(parseIpv6(f, pkt));
            auto r = reass.offer(pkt, 0);
            if (r) {
                got = std::move(r);
                break;
            }
        }
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, d.payload);
}

TEST(Ipv6, PartialDatagramExpires)
{
    auto d = v6Datagram(4000);
    FrameList frames;
    fragmentIpv6(d, 1500, 11, frames);
    Ipv6Reassembler reass(100); // 100-tick timeout
    Ipv6Packet pkt;
    ASSERT_TRUE(parseIpv6(frames[0], pkt));
    EXPECT_FALSE(reass.offer(pkt, 0).has_value());
    EXPECT_EQ(reass.pending(), 1u);
    reass.expire(1000);
    EXPECT_EQ(reass.pending(), 0u);
    EXPECT_EQ(reass.expired.value(), 1u);
}

TEST(Ipv6, NoFragmentationWhenItFits)
{
    auto d = v6Datagram(1000);
    FrameList frames;
    fragmentIpv6(d, 1500, 1, frames);
    EXPECT_EQ(frames.size(), 1u);
    Ipv6Packet pkt;
    ASSERT_TRUE(parseIpv6(frames[0], pkt));
    EXPECT_FALSE(pkt.frag.has_value());
}

// ---------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------

TEST(Udp, RoundTripWithChecksum)
{
    auto src = *InetAddr::parse("fd00::1");
    auto dst = *InetAddr::parse("fd00::2");
    std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
    auto wire = serializeUdp(src, dst, 1000, 2000, payload);
    EXPECT_EQ(wire.size(), udpHeaderBytes + payload.size());

    UdpHeader hdr;
    std::span<const std::uint8_t> out;
    ASSERT_TRUE(parseUdp(src, dst, wire, hdr, out));
    EXPECT_EQ(hdr.srcPort, 1000);
    EXPECT_EQ(hdr.dstPort, 2000);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), payload.begin()));
}

TEST(Udp, DetectsCorruption)
{
    auto src = *InetAddr::parse("10.0.0.1");
    auto dst = *InetAddr::parse("10.0.0.2");
    std::vector<std::uint8_t> payload(64, 0x77);
    auto wire = serializeUdp(src, dst, 5, 6, payload);
    wire[12] ^= 0x01;
    UdpHeader hdr;
    std::span<const std::uint8_t> out;
    EXPECT_FALSE(parseUdp(src, dst, wire, hdr, out));
}

TEST(Udp, DetectsWrongPseudoHeader)
{
    auto src = *InetAddr::parse("10.0.0.1");
    auto dst = *InetAddr::parse("10.0.0.2");
    auto other = *InetAddr::parse("10.0.0.9");
    auto wire = serializeUdp(src, dst, 5, 6, std::vector<std::uint8_t>{1});
    UdpHeader hdr;
    std::span<const std::uint8_t> out;
    EXPECT_FALSE(parseUdp(src, other, wire, hdr, out));
}

// ---------------------------------------------------------------------
// TCP header
// ---------------------------------------------------------------------

TEST(TcpHeader, RoundTripWithOptions)
{
    auto src = *InetAddr::parse("fd00::1");
    auto dst = *InetAddr::parse("fd00::2");
    TcpHeader hdr;
    hdr.srcPort = 4000;
    hdr.dstPort = 80;
    hdr.seq = 0xdeadbeef;
    hdr.ack = 0x01020304;
    hdr.flags = tcpflags::syn | tcpflags::ack;
    hdr.wnd = 8192;
    hdr.mss = 16384;
    hdr.wscale = 8;
    hdr.timestamps = TcpTimestamps{123456, 654321};

    std::vector<std::uint8_t> payload{9, 8, 7};
    auto wire = serializeTcp(src, dst, hdr, payload);

    TcpHeader out;
    std::span<const std::uint8_t> out_payload;
    ASSERT_TRUE(parseTcp(src, dst, wire, out, out_payload));
    EXPECT_EQ(out.srcPort, 4000);
    EXPECT_EQ(out.dstPort, 80);
    EXPECT_EQ(out.seq, 0xdeadbeefu);
    EXPECT_EQ(out.ack, 0x01020304u);
    EXPECT_TRUE(out.has(tcpflags::syn));
    EXPECT_TRUE(out.has(tcpflags::ack));
    ASSERT_TRUE(out.mss);
    EXPECT_EQ(*out.mss, 16384);
    ASSERT_TRUE(out.wscale);
    EXPECT_EQ(*out.wscale, 8);
    ASSERT_TRUE(out.timestamps);
    EXPECT_EQ(out.timestamps->value, 123456u);
    EXPECT_EQ(out.timestamps->echo, 654321u);
    EXPECT_EQ(out_payload.size(), 3u);
}

TEST(TcpHeader, NoOptionsIsTwentyBytes)
{
    TcpHeader hdr;
    EXPECT_EQ(hdr.headerBytes(), tcpMinHeaderBytes);
    auto src = *InetAddr::parse("10.0.0.1");
    auto dst = *InetAddr::parse("10.0.0.2");
    auto wire = serializeTcp(src, dst, hdr, {});
    EXPECT_EQ(wire.size(), tcpMinHeaderBytes);
}

TEST(TcpHeader, ChecksumCatchesPayloadCorruption)
{
    auto src = *InetAddr::parse("10.0.0.1");
    auto dst = *InetAddr::parse("10.0.0.2");
    TcpHeader hdr;
    std::vector<std::uint8_t> payload(100, 0x11);
    auto wire = serializeTcp(src, dst, hdr, payload);
    wire[wire.size() - 1] ^= 0x80;
    TcpHeader out;
    std::span<const std::uint8_t> p;
    EXPECT_FALSE(parseTcp(src, dst, wire, out, p));
}

TEST(TcpHeader, SequenceArithmeticWraps)
{
    EXPECT_TRUE(seqLt(0xfffffff0u, 0x10u));
    EXPECT_TRUE(seqGt(0x10u, 0xfffffff0u));
    EXPECT_TRUE(seqLe(5u, 5u));
    EXPECT_TRUE(seqGe(5u, 5u));
    EXPECT_FALSE(seqLt(5u, 5u));
}

// ---------------------------------------------------------------------
// RTT estimator
// ---------------------------------------------------------------------

TEST(RttEstimator, FirstSampleInitializes)
{
    RttEstimator rtt(sim::oneMs, 60 * sim::oneSec);
    EXPECT_FALSE(rtt.hasSample());
    EXPECT_EQ(rtt.rto(), sim::oneSec); // RFC 6298 initial
    rtt.sample(100 * sim::oneUs);
    EXPECT_TRUE(rtt.hasSample());
    EXPECT_EQ(rtt.srtt(), 100 * sim::oneUs);
    EXPECT_EQ(rtt.rttvar(), 50 * sim::oneUs);
}

TEST(RttEstimator, ConvergesToStableRtt)
{
    RttEstimator rtt(sim::oneMs, 60 * sim::oneSec);
    for (int i = 0; i < 100; ++i)
        rtt.sample(200 * sim::oneUs);
    EXPECT_NEAR(static_cast<double>(rtt.srtt()),
                static_cast<double>(200 * sim::oneUs),
                static_cast<double>(sim::oneUs));
    // Variance decays toward zero; RTO approaches srtt plus the
    // RFC 6298 minimum variance term (1 ms).
    EXPECT_LE(rtt.rto(), sim::oneMs + 210 * sim::oneUs);
    EXPECT_GE(rtt.rto(), sim::oneMs);
}

TEST(RttEstimator, BackoffDoublesAndResets)
{
    RttEstimator rtt(100 * sim::oneMs, 60 * sim::oneSec);
    rtt.sample(10 * sim::oneMs);
    const auto base = rtt.rto();
    rtt.backoff();
    EXPECT_EQ(rtt.rto(), 2 * base);
    rtt.backoff();
    EXPECT_EQ(rtt.rto(), 4 * base);
    rtt.resetBackoff();
    EXPECT_EQ(rtt.rto(), base);
}

TEST(RttEstimator, RtoSaturatesAtMax)
{
    RttEstimator rtt(100 * sim::oneMs, sim::oneSec);
    rtt.sample(500 * sim::oneMs);
    for (int i = 0; i < 20; ++i)
        rtt.backoff();
    EXPECT_EQ(rtt.rto(), sim::oneSec);
}

// ---------------------------------------------------------------------
// TCP reassembly queue
// ---------------------------------------------------------------------

namespace {

std::vector<std::uint8_t>
bytesOf(std::initializer_list<int> vals)
{
    std::vector<std::uint8_t> v;
    for (int x : vals)
        v.push_back(static_cast<std::uint8_t>(x));
    return v;
}

} // namespace

TEST(TcpReassembly, HoldsGapThenDrains)
{
    TcpReassembly q;
    std::vector<std::uint8_t> out;
    q.insert(10, bytesOf({10, 11, 12}), 0);
    EXPECT_EQ(q.extract(0, out), 0u);
    q.insert(0, bytesOf({0, 1, 2, 3, 4}), 0);
    EXPECT_EQ(q.extract(0, out), 5u);
    // Still a gap 5..10.
    q.insert(5, bytesOf({5, 6, 7, 8, 9}), 5);
    EXPECT_EQ(q.extract(5, out), 8u);
    EXPECT_EQ(out.size(), 13u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i);
    EXPECT_TRUE(q.empty());
}

TEST(TcpReassembly, OverlapKeepsFirstCopy)
{
    TcpReassembly q;
    q.insert(4, bytesOf({104, 105, 106}), 0);
    q.insert(2, bytesOf({2, 3, 4, 5, 6, 7}), 0);
    q.insert(0, bytesOf({0, 1}), 0);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(q.extract(0, out), 8u);
    EXPECT_EQ(out, bytesOf({0, 1, 2, 3, 104, 105, 106, 7}));
}

TEST(TcpReassembly, TrimsAlreadyDelivered)
{
    TcpReassembly q;
    q.insert(0, bytesOf({90, 91, 5, 6}), 2); // first 2 stale
    std::vector<std::uint8_t> out;
    EXPECT_EQ(q.extract(2, out), 2u);
    EXPECT_EQ(out, bytesOf({5, 6}));
}
