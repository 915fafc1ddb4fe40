/**
 * @file
 * The ttcp-style throughput benchmark (Figure 4): a bulk transfer in
 * fixed-size chunks with TCP_NODELAY, reporting sustained MB/s and
 * the CPU utilization of both ends. QPIP mode posts 16 KB messages
 * through a deep WR pipeline and reaps completions with a periodic
 * poll, so the host does almost no work.
 */

#pragma once

#include <vector>

#include "apps/testbed.hh"

namespace qpip::apps {

/** Result of one ttcp run, the same serial or partitioned. */
struct TtcpResult
{
    /** Payload over [sender's connect, receiver's last byte]. */
    double mbPerSec = 0.0;
    /** Sender CPU over its own window, connect to last write done. */
    double txCpuUtil = 0.0;
    /** Receiver CPU over its own window, accept to last byte. */
    double rxCpuUtil = 0.0;
    double elapsedMs = 0.0;
    bool completed = false;
};

/** Bulk TCP, host 0 -> host 1: the one-pair runSocketsTtcpPairs. */
TtcpResult runSocketsTtcp(SocketsTestbed &bed, std::size_t total_bytes,
                          std::size_t chunk_bytes = 16384);

/**
 * Bulk reliable-QP transfer over QPIP, host 0 -> host 1, posted from
 * the connect callback. A QPIP write is done when its send completes.
 * @param pipeline_depth outstanding WRs kept posted on each side.
 * @param poll_interval completion-reaper period.
 */
TtcpResult runQpipTtcp(QpipTestbed &bed, std::size_t total_bytes,
                       std::size_t chunk_bytes = 16384,
                       std::size_t pipeline_depth = 64,
                       sim::Tick poll_interval = 200 * sim::oneUs);

/** One directed transfer of a multi-pair run. */
struct TtcpPair
{
    std::size_t src = 0;
    std::size_t dst = 1;
};

/** Result of a multi-pair run. */
struct MultiTtcpResult
{
    /** Sum of all pairs' payload over the common elapsed window. */
    double aggMbPerSec = 0.0;
    /**
     * The window: from the first completed pair's start (its connect
     * callback) to the last one's completion.
     */
    sim::Tick elapsedTicks = 0;
    std::size_t pairsCompleted = 0;
    bool completed = false;
};

/** Every ordered pair (i, j), i != j, over @p n_hosts hosts. */
std::vector<TtcpPair> allPairs(std::size_t n_hosts);

/**
 * All-to-all traffic as @p n_shifts shift permutations: for shift s in
 * [1, n_shifts], every host i sends to (i + s) mod n. With
 * n_shifts = n-1 this is the full all-to-all (== allPairs reordered);
 * smaller values sample it while still loading every host's NIC in
 * both directions — the tractable datacenter-scale sweep workload.
 * @pre n_shifts < n_hosts.
 */
std::vector<TtcpPair> uniformShiftPairs(std::size_t n_hosts,
                                        std::size_t n_shifts);

/**
 * Incast: every host except @p dst sends to @p dst, the classic
 * fan-in burst that congests the destination's last-hop link.
 */
std::vector<TtcpPair> incastPairs(std::size_t n_hosts,
                                  std::size_t dst);

/**
 * Run concurrent bulk TCP transfers for every pair in @p pairs
 * (pair k listens on port 5001+k and connects from port 30000+k).
 * Each pair starts sending from its own connect callback. The
 * scale-out ttcp workload: with a multi-switch fabric and a
 * parallel-enabled testbed this is the engine's headline sweep, and
 * the result is the same serial or partitioned at any thread count.
 */
MultiTtcpResult
runSocketsTtcpPairs(SocketsTestbed &bed,
                    const std::vector<TtcpPair> &pairs,
                    std::size_t bytes_per_pair,
                    std::size_t chunk_bytes = 16384);

} // namespace qpip::apps
