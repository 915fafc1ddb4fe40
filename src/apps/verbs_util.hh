/**
 * @file
 * Small verbs-side helpers shared by the applications: a spin-polling
 * completion reaper (lowest latency, burns the CPU while waiting, as
 * user-level benchmarks do) and a periodic reaper (near-zero CPU,
 * used by the throughput apps so the host stays <1% utilized as in
 * Figure 4).
 */

#pragma once

#include <functional>

#include "qpip/qpip.hh"

namespace qpip::apps {

/**
 * Poll @p cq until a completion appears, then invoke @p cb with it.
 * Each empty poll charges the host CPU and retries as soon as the CPU
 * frees up — a faithful user-level spin.
 *
 * Empty polls are not run one event each. When a poll finds the CQ
 * empty, the loop parks on the host CPU (host::CpuModel::park): the
 * CPU charges the empty polls it owes whenever it is charged, run on
 * or read, and the next push into @p cq schedules only the poll that
 * sees the entry. Simulated time, CPU accounting and event order are
 * those of the poll-per-event loop; only the executed-event count is
 * lower. One spin loop per CQ at a time.
 */
void spinPoll(verbs::Provider &prov, verbs::CompletionQueue &cq,
              std::function<void(verbs::Completion)> cb);

/**
 * Like spinPoll, but re-arms itself after every completion: @p cb is
 * invoked for each completion, forever (or until the simulation
 * stops running events).
 */
void spinLoop(verbs::Provider &prov, verbs::CompletionQueue &cq,
              std::function<void(verbs::Completion)> cb);

/**
 * Blocking completion loop: Wait() for each completion (interrupt
 * path, negligible CPU) and invoke @p cb, forever.
 */
void waitLoop(verbs::CompletionQueue &cq,
              std::function<void(verbs::Completion)> cb);

/**
 * Call @p drain every @p interval until it returns false. Each tick
 * charges only the poll cost, so a deep-pipelined transfer runs with
 * negligible host CPU.
 */
void periodicReaper(verbs::Provider &prov, sim::Tick interval,
                    std::function<bool()> drain);

} // namespace qpip::apps
