/**
 * @file
 * The per-service-type tail of the QPIP datapath. QpipNic owns the
 * stages every QP type shares — doorbell intake, the scheduler, WR
 * fetch, payload staging DMA, delivery into posted WRs and the
 * completion path — and hands off at the points where the service
 * types diverge: wire framing of an outgoing message, demux of an
 * incoming datagram, port binding, receive-WR replenish and QP
 * teardown. One engine instance per type per NIC; engines are
 * stateless: all state lives in the QpContext, including the RUD
 * per-peer reliability records, which model host memory outside the
 * context block the NIC caches.
 *
 * Engines execute inside the firmware's execution context: they
 * charge LanaiProcessor stages exactly where the pre-split monolith
 * did, so the RC/UD paths are stage-by-stage timing-identical to it.
 */

#pragma once

#include "nic/qpip_nic.hh"

namespace qpip::nic {

class TransportEngine
{
  public:
    // Engines are friends of QpipNic; re-export the nested context
    // type so member signatures and bodies can name it directly.
    using QpContext = QpipNic::QpContext;

    explicit TransportEngine(QpipNic &nic) : nic_(nic) {}
    virtual ~TransportEngine() = default;

    TransportEngine(const TransportEngine &) = delete;
    TransportEngine &operator=(const TransportEngine &) = delete;

    /**
     * Scheduler/transmit FSM tail: frame and emit one send WR whose
     * payload @p data is already staged in NIC SRAM (Get Data has
     * been charged). Runs at the firmware's completion of that stage.
     */
    virtual void transmit(QpipNic::QpContext &qp, SendWr wr,
                          std::vector<std::uint8_t> data) = 0;

    /**
     * A UDP datagram demuxed to @p qp's bound port (datagram
     * services only; the connected service receives via TcpObserver).
     */
    virtual void datagramDeliver(QpipNic::QpContext &qp,
                                 std::vector<std::uint8_t> &&msg,
                                 const inet::SockAddr &from);

    /** bindLocal bound @p qp to qp.local (install port demux). */
    virtual void bound(QpipNic::QpContext &qp);

    /** destroyQp is tearing down a bound @p qp (remove port demux). */
    virtual void unbound(QpipNic::QpContext &qp);

    /**
     * Posted receive WRs grew (the QP's own ring or its attached
     * SRQ): anything the engine held back for want of a WR may land
     * now.
     */
    virtual void recvReplenished(QpipNic::QpContext &qp);

    /**
     * The least SRQ postedBytes at which recvReplenished(@p qp) can
     * act, or SrqContext::neverWakes. Engines whose answer changes
     * call QpipNic::rekeySrqWake() so the SRQ's wake index follows.
     */
    virtual std::uint64_t replenishThreshold(
        const QpipNic::QpContext &qp) const;

    /**
     * @p qp is flushing (destroy / reset / close): surface engine-
     * held WRs as @p status completions and drop transient state.
     */
    virtual void flushed(QpipNic::QpContext &qp, WcStatus status);

  protected:
    QpipNic &nic_;
};

} // namespace qpip::nic
