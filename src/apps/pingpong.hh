/**
 * @file
 * Application-to-application round-trip benchmark (Figure 3): one
 * small message bounced between two processes, timed at user level.
 * Sockets variants run over the host stack; QPIP variants post WRs
 * and spin-poll the CQ (the prototype's low-latency completion path).
 * The same echo exchanges measure Table 1's host overhead.
 */

#pragma once

#include "apps/testbed.hh"

namespace qpip::apps {

/** Result of a ping-pong run. */
struct PingPongResult
{
    /** Mean round-trip time over the measured iterations. */
    double rttUs = 0.0;
    std::size_t iterations = 0;
    bool completed = false;
};

/** TCP ping-pong over the sockets stack (client = host 0). */
PingPongResult runSocketTcpPingPong(SocketsTestbed &bed,
                                    std::size_t iterations,
                                    std::size_t msg_bytes = 1,
                                    std::size_t warmup = 8);

/** UDP ping-pong over the sockets stack. */
PingPongResult runSocketUdpPingPong(SocketsTestbed &bed,
                                    std::size_t iterations,
                                    std::size_t msg_bytes = 1,
                                    std::size_t warmup = 8);

/** Reliable (TCP) QP ping-pong over QPIP. */
PingPongResult runQpipTcpPingPong(QpipTestbed &bed,
                                  std::size_t iterations,
                                  std::size_t msg_bytes = 1,
                                  std::size_t warmup = 8);

/** Unreliable (UDP) QP ping-pong over QPIP. */
PingPongResult runQpipUdpPingPong(QpipTestbed &bed,
                                  std::size_t iterations,
                                  std::size_t msg_bytes = 1,
                                  std::size_t warmup = 8);

/** Table 1, host-based IP: host 0's CPU cost of loopback messages. */
struct LoopbackOverhead
{
    /** Host CPU time (us) per 1-byte message. */
    double usPerMsg = 0;
    /** Host CPU time of all measured messages. */
    sim::Tick busy = 0;
};

/**
 * Table 1, host-based IP: host CPU time per 1-byte TCP message,
 * measured as the paper does, by 256 round trips through host 0's
 * loopback interface after 8 warm-up rounds. Each message crosses the
 * send path and the receive path once.
 */
LoopbackOverhead hostLoopbackOverhead(SocketsTestbed &bed);

/**
 * Table 1, QPIP: host CPU time (us) of one PostSend plus one
 * successful Poll of a 1-byte message on a reliable QP, timed
 * directly around the calls over 256 round trips to an echo on host 1.
 */
double qpipPostPollOverheadUs(QpipTestbed &bed);

} // namespace qpip::apps
