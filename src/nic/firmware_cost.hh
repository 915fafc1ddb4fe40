/**
 * @file
 * LANai 9 firmware cost model. Stage costs are expressed in cycles of
 * the 133 MHz NIC processor and default to values derived from the
 * paper's measured occupancy breakdown (Tables 2 and 3):
 *
 *   transmit: doorbell 1 us, schedule 2 us, get WR 5.5 us, get data
 *   4.5 us (1-byte message; larger messages add DMA time), TCP hdr
 *   5 us, IP hdr 1 us, send 1 us, update 1.5 us;
 *   receive: doorbell 1 us, media 1 us, IP parse 1.5 us, TCP parse
 *   7 us (data) / 14 us (ACK — the RTT-estimator multiplies are
 *   software on a multiply-less LANai), get WR 5.5 us, put data
 *   4.5 us, update 1.5 us (data) / 9 us (ACK: WR + QP state).
 *
 * The hardware-assist booleans are the knobs the paper's section 5.2
 * names as the key acceleration targets: lightweight doorbells, IP
 * checksums, connection demultiplexing and "advanced mathematical
 * functions" (the multiplier). The ablation bench sweeps them.
 */

#pragma once

#include <cstdint>

#include "sim/types.hh"

namespace qpip::nic {

/** All firmware processing costs, in 133 MHz LANai cycles. */
struct FirmwareCostModel
{
    std::uint64_t freqHz = 133'000'000;

    /** Convert microseconds at the LANai clock to cycles. */
    static constexpr sim::Cycles
    us(double u)
    {
        return static_cast<sim::Cycles>(u * 133.0);
    }

    // --- transmit path (Table 2) -------------------------------------
    sim::Cycles doorbellProcess = us(1.0);
    /**
     * Each WR beyond the first announced by one batch doorbell
     * record (a chained post, or records folded by the coalescing
     * window): the doorbell FSM pays the full doorbellProcess once
     * per record and only this increment per extra WR. Singleton
     * records never pay it, so legacy configs are unaffected.
     */
    sim::Cycles doorbellPerWr = us(0.2);
    sim::Cycles schedule = us(2.0);
    sim::Cycles getWr = us(5.5);
    /** Fixed part of Get Data; the payload DMA itself adds to it. */
    sim::Cycles getDataFixed = us(2.0);
    sim::Cycles buildTcpHdr = us(5.0);
    sim::Cycles buildUdpHdr = us(1.5);
    sim::Cycles buildIpHdr = us(1.0);
    /** Per extra IPv6 fragment beyond the first (header + engine). */
    sim::Cycles perFragmentTx = us(12.0);
    sim::Cycles mediaSend = us(1.0);
    sim::Cycles updateTxData = us(1.5);
    sim::Cycles updateTxAck = us(1.5);

    // --- receive path (Table 3) --------------------------------------
    sim::Cycles mediaRcv = us(1.0);
    sim::Cycles ipParse = us(1.5);
    /** Per extra received fragment (parse + reassembly bookkeeping). */
    sim::Cycles perFragmentRx = us(17.0);
    sim::Cycles tcpParseData = us(7.0);
    /** Extra on a pure ACK without hwMultiply: RTT estimator math. */
    sim::Cycles tcpParseAckExtra = us(7.0);
    sim::Cycles udpParse = us(2.0);
    /** Fixed part of Put Data; payload DMA adds to it. */
    sim::Cycles putDataFixed = us(2.0);
    sim::Cycles updateRxData = us(1.5);
    sim::Cycles updateRxAck = us(9.0);

    // --- one-sided RDMA engine ---------------------------------------
    /** Build the RETH-style framing header on the requester. */
    sim::Cycles rdmaHeaderBuild = us(1.5);
    /** Parse the framing header and dispatch on the opcode. */
    sim::Cycles rdmaParse = us(1.5);
    /** Firmware-generated response (WriteAck / ReadResp) assembly. */
    sim::Cycles rdmaRespBuild = us(2.0);

    // --- reliable-datagram (RUD) shim --------------------------------
    /** Stamp seq + piggybacked ack onto an outgoing datagram. */
    sim::Cycles rudHeaderBuild = us(1.0);
    /** Parse the seq/ack framing and locate the peer record. */
    sim::Cycles rudParse = us(1.5);
    /** Retire acked sends: walk the unacked window, complete WRs. */
    sim::Cycles rudAckProcess = us(2.0);
    /** Assemble a standalone cumulative ack datagram. */
    sim::Cycles rudAckBuild = us(1.0);

    // --- QP context cache (LANai SRAM as a finite resource) ----------
    /**
     * Fetch a QP context absent from NIC SRAM: DMA the state block
     * from host memory and rebuild the demux entry.
     */
    sim::Cycles qpCtxFetch = us(6.0);
    /** Write back an evicted context to host memory. */
    sim::Cycles qpCtxWriteback = us(3.0);

    // --- management FSM ----------------------------------------------
    sim::Cycles mgmtCommand = us(8.0);
    sim::Cycles timerService = us(1.0);

    /** SRAM staging/buffer management per payload byte on each path. */
    double touchPerByte = 1.27;

    // --- hardware assists ---------------------------------------------
    /** DMA engine computes IP checksums on transmit (LANai 9 can). */
    bool hwChecksumTx = true;
    /**
     * Receive-side hardware checksum. The real LANai 9 cannot
     * (the paper's "artifact of the Myrinet hardware"); the paper's
     * headline figures emulate it, and also report the firmware
     * fallback. When false, the firmware pays fwChecksumPerByte.
     */
    bool hwChecksumRx = true;
    double fwChecksumPerByte = 2.75;
    /** Fixed per-packet setup of the firmware checksum loop. */
    sim::Cycles fwChecksumFixed = us(1.0);
    /** Hardware multiplier (absent on LANai 9). */
    bool hwMultiply = false;
    /** Hardware doorbell FIFO (present on LANai 9). */
    bool hwDoorbell = true;
    /** Doorbell cost multiplier when hwDoorbell is off. */
    double swDoorbellFactor = 4.0;
    /** Hardware connection demux (CAM); halves parse fixed costs. */
    bool hwDemux = false;
};

/** The prototype exactly as measured (firmware rx checksum). */
inline FirmwareCostModel
lanai9FirmwareCosts()
{
    FirmwareCostModel m;
    m.hwChecksumRx = false;
    return m;
}

/** The paper's headline config: emulated hardware rx checksum. */
inline FirmwareCostModel
lanai9EmulatedHwChecksum()
{
    return FirmwareCostModel{};
}

/**
 * "Infiniband-grade" hardware support per section 5.2: checksums,
 * demux, multiplier and doorbells all in hardware, protocol engines
 * an order of magnitude faster than the 133 MHz software loop.
 */
inline FirmwareCostModel
infinibandGradeCosts()
{
    FirmwareCostModel m;
    m.hwChecksumRx = true;
    m.hwMultiply = true;
    m.hwDemux = true;
    m.touchPerByte = 0.0;
    m.doorbellProcess = FirmwareCostModel::us(0.2);
    m.doorbellPerWr = FirmwareCostModel::us(0.05);
    m.schedule = FirmwareCostModel::us(0.2);
    m.getWr = FirmwareCostModel::us(0.8);
    m.getDataFixed = FirmwareCostModel::us(0.4);
    m.buildTcpHdr = FirmwareCostModel::us(0.5);
    m.buildUdpHdr = FirmwareCostModel::us(0.3);
    m.buildIpHdr = FirmwareCostModel::us(0.2);
    m.perFragmentTx = FirmwareCostModel::us(1.0);
    m.mediaSend = FirmwareCostModel::us(0.2);
    m.updateTxData = FirmwareCostModel::us(0.3);
    m.updateTxAck = FirmwareCostModel::us(0.3);
    m.mediaRcv = FirmwareCostModel::us(0.2);
    m.ipParse = FirmwareCostModel::us(0.3);
    m.perFragmentRx = FirmwareCostModel::us(1.0);
    m.tcpParseData = FirmwareCostModel::us(0.8);
    m.tcpParseAckExtra = 0;
    m.udpParse = FirmwareCostModel::us(0.4);
    m.putDataFixed = FirmwareCostModel::us(0.4);
    m.updateRxData = FirmwareCostModel::us(0.3);
    m.updateRxAck = FirmwareCostModel::us(0.5);
    m.mgmtCommand = FirmwareCostModel::us(2.0);
    m.rdmaHeaderBuild = FirmwareCostModel::us(0.3);
    m.rdmaParse = FirmwareCostModel::us(0.3);
    m.rdmaRespBuild = FirmwareCostModel::us(0.4);
    m.rudHeaderBuild = FirmwareCostModel::us(0.2);
    m.rudParse = FirmwareCostModel::us(0.3);
    m.rudAckProcess = FirmwareCostModel::us(0.4);
    m.rudAckBuild = FirmwareCostModel::us(0.2);
    m.qpCtxFetch = FirmwareCostModel::us(1.5);
    m.qpCtxWriteback = FirmwareCostModel::us(0.8);
    return m;
}

} // namespace qpip::nic
