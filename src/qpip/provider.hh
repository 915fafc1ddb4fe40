/**
 * @file
 * Provider: the verbs library's device handle. It pairs a host (whose
 * CPU pays the thin user-level costs of posting and polling) with a
 * QPIP NIC (where all protocol processing lives), and exposes the
 * management operations the paper routes through the kernel driver
 * and the NIC's management FSM.
 */

#pragma once

#include <memory>
#include <span>

#include "host/host.hh"
#include "nic/qpip_nic.hh"

namespace qpip::verbs {

class CompletionQueue;
class MemoryRegion;
class QueuePair;
class SharedReceiveQueue;
struct QpAttrs;

/**
 * Host-side verbs costs (cycles at the host clock). Calibrated so
 * that PostSend + Poll for a 1-byte message costs ~1386 cycles
 * (2.5 us at 550 MHz) — the paper's Table 1 QPIP row.
 */
struct VerbsCostModel
{
    sim::Cycles postSend = 900;
    sim::Cycles postRecv = 650;
    /**
     * Per-WR cost inside a chained postSendList/postRecvList: the
     * descriptor write without the per-call doorbell and fencing
     * overhead the singleton verbs pay. Only the chained verbs charge
     * these, so legacy call sites are unaffected.
     */
    sim::Cycles postSendChained = 180;
    sim::Cycles postRecvChained = 130;
    sim::Cycles pollCq = 486;
    /** Empty poll: spinning on a cache-resident CQ. */
    sim::Cycles pollCqEmpty = 60;
    /** Arming a CQ event and blocking (kernel transition). */
    sim::Cycles waitSetup = 1400;
    /** Event delivery: interrupt + wakeup when armed. */
    sim::Cycles waitWakeup = 3200;
    sim::Cycles registerMr = 5200;
};

/**
 * The device/provider handle.
 */
class Provider
{
  public:
    Provider(host::Host &host, nic::QpipNic &nic,
             VerbsCostModel costs = VerbsCostModel{});

    host::Host &host() { return host_; }
    nic::QpipNic &nic() { return nic_; }
    const VerbsCostModel &costs() const { return costs_; }

    /**
     * Register @p memory for DMA. The returned region must not
     * outlive the memory. Remote one-sided access is off unless the
     * corresponding @p access rights are granted at registration.
     */
    std::shared_ptr<MemoryRegion>
    registerMemory(std::span<std::uint8_t> memory,
                   nic::MrAccess access = nic::accessLocal);

    std::shared_ptr<CompletionQueue> createCq(std::size_t cap = 4096);

    /** Create a shared receive queue. */
    std::shared_ptr<SharedReceiveQueue>
    createSrq(std::size_t max_wr = 4096);

    /**
     * Create a QP with its send and receive channels bound to the
     * given CQs (which may be the same object).
     */
    std::shared_ptr<QueuePair>
    createQp(nic::QpType type, std::shared_ptr<CompletionQueue> scq,
             std::shared_ptr<CompletionQueue> rcq,
             std::size_t max_send_wr = 512,
             std::size_t max_recv_wr = 512);

    /** Create a QP with full attributes (SRQ, RDMA window). */
    std::shared_ptr<QueuePair>
    createQp(nic::QpType type, std::shared_ptr<CompletionQueue> scq,
             std::shared_ptr<CompletionQueue> rcq, QpAttrs attrs);

    /**
     * Teardown: drop the callback of every armed Wait() on the NIC's
     * CQs. Such a callback usually holds a QP bound to the CQ, so the
     * two would otherwise keep each other alive forever. Call with
     * the simulation stopped, while the NICs still exist.
     */
    void dropCallbacks();

  private:
    host::Host &host_;
    nic::QpipNic &nic_;
    VerbsCostModel costs_;
};

} // namespace qpip::verbs
