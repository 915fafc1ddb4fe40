/**
 * @file
 * A deterministic conservative parallel discrete-event engine.
 *
 * The simulation is sharded into Partitions (see partition.hh), each
 * owning a private event queue and RNG stream. Partition i belongs to
 * worker i mod T (T = thread count; worker 0 is the calling thread)
 * for the engine's whole life. Execution proceeds in barrier epochs.
 * The coordinator's serial barrier does three things:
 *
 *   1. hand every batch posted last epoch to its destination, folding
 *      the batch's first tick into the destination's next tick;
 *   2. compute per-partition horizons from per-edge lookaheads (see
 *      below) — each partition gets its own bound instead of the
 *      whole fabric marching at the pace of its slowest link;
 *   3. build one visit list per worker, holding only its partitions
 *      with runnable work or inbound mail.
 *
 * Then every worker, in parallel, visits its list: for each partition
 * it injects the handed-over batches, runs the partition to its
 * horizon, sorts its outgoing batches and reports its next tick.
 *
 * Per-edge horizons. Every mailbox edge e = (q -> p) declares a
 * lookahead L_e: a lower bound on the delivery latency of anything
 * posted through it. At each barrier the engine computes, for every
 * partition q, a conservative floor B_q on the earliest tick at which
 * q can execute *any* event this epoch or later:
 *
 *     B_q = min(next_q, min over incoming e=(r->q) of B_r + L_e)
 *
 * — a shortest-path relaxation (all L_e >= 1, so the fixpoint exists
 * and rounds of edge relaxation over the partition graph reach it in
 * at most P-1 passes; fabric graphs are shallow, so two or three
 * suffice in practice). The epoch horizon of
 * p is then H_p = min over incoming e=(q->p) of B_q + L_e. Any
 * message q posts is sent by an event executing at t >= B_q and
 * arrives at t + L_e >= H_p, so injecting it at the next barrier is
 * causally exact, not an approximation; Mailbox::post asserts this
 * against the destination's horizon. Note the floor must be B_q, not
 * next_q: a neighbor stalled behind *its own* slow neighbor can
 * receive an injection below its next event and wake earlier than
 * next_q, which is exactly the multi-hop chain the relaxation
 * accounts for. Progress: the partition holding the global minimum
 * next tick N has B = N and H >= N + min L_e > N, so every epoch
 * executes at least one event.
 *
 * Each partition's horizon is kept monotone across epochs (max with
 * its previous value). The per-epoch bound alone can dip — a
 * neighbor's floor drops when an injection wakes it below its old
 * next-event tick — but a bound once proven covers every future post
 * too (the floors it was computed from remain lower bounds forever),
 * so the running maximum is still causally exact, and it is the
 * furthest the destination's clock can have reached. Mailbox::post
 * asserts against this monotone frontier; each epoch runs a partition
 * to min(frontier, run deadline).
 *
 * Batched posts. During an epoch each mailbox accumulates posts in a
 * post buffer (no synchronization: only the source's owner touches
 * it), and the owner sorts each outgoing batch before it reports. The
 * barrier swaps each posted buffer into the mailbox's handed-over
 * slot, and the destination's owner k-way-merges its inbound batches
 * into its queue at the start of its next visit — the same (tick,
 * priority, seq, srcId) order, restricted to one destination, as a
 * global sort. Injection precedes the destination's events of the
 * epoch, so mail takes the same place in its queue whichever thread
 * count runs it.
 *
 * Idle clocks. A partition with no runnable work and no mail is not
 * visited, so its clock stays where its last visit left it; when a
 * run call returns, every partition's clock advances to its last
 * epoch bound, which is where anything scheduled into it from
 * outside a run must land at or beyond.
 *
 * Determinism: each partition's queue preserves the serial
 * (when, priority, seq) total order; injection order into a queue is
 * fixed by the merge above and happens at the same point relative to
 * the queue's own events; horizons are computed from queue state
 * alone; RNG streams are per-partition. None of that depends on the
 * number of worker threads or on which worker owns a partition, so an
 * N-thread run is bit-identical to a 1-thread run of the same
 * partitioning. (A partitioned run may differ from the unpartitioned
 * serial schedule — per-partition RNG/seq streams — which is why
 * `threads=1` without an engine remains the default and untouched
 * code path.)
 *
 * This is the one place in the tree allowed to use threading
 * primitives (see qpip-lint rule T1): all protocol code stays
 * single-threaded by construction, executing inside exactly one
 * partition per epoch. An atomic epoch counter (release) starts the
 * workers and an atomic busy count (acquire) ends the epoch; those
 * two edges order every cross-epoch access to queues, mailboxes and
 * visit lists.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/partition.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace qpip::sim {

class ParallelEngine
{
  public:
    /**
     * Install the engine on @p sim (Simulation::run* delegate here
     * until destruction). @p threads is the worker count: 1 executes
     * partitions inline on the calling thread.
     */
    ParallelEngine(Simulation &sim, int threads);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Create a partition. RNG stream derives from sim seed + id. */
    Partition &addPartition(const std::string &name);

    std::size_t numPartitions() const { return parts_.size(); }
    Partition &partition(std::size_t i) { return *parts_.at(i); }
    Partition *findPartition(const std::string &name);

    /** Find-or-create the src->dst mailbox. */
    Mailbox &mailbox(Partition &src, Partition &dst);

    /**
     * Bind every registered SimObject whose name is @p prefix or
     * starts with "@p prefix." to partition @p p (its queue and RNG).
     */
    void assignByPrefix(const std::string &prefix, Partition &p);

    /**
     * Set the global default edge lookahead: the minimum
     * cross-partition delivery latency. Edges with a tighter bound
     * declare their own via Mailbox::setLookahead. @pre l >= 1 tick.
     */
    void setLookahead(Tick l);
    Tick lookahead() const { return lookahead_; }

    /**
     * Register a hook run at the end of every run*() call, after the
     * final barrier — e.g. folding per-direction link shadow counters
     * into the public ones. Hooks must be idempotent across calls
     * (fold-and-reset).
     */
    void addFoldHook(std::function<void()> fold);

    int threads() const { return threads_; }

    /** Conservative global frontier of the latest epoch. */
    Tick now() const { return now_; }

    /** Total events executed across all partitions. */
    std::uint64_t executed() const;

    /** Barrier epochs run so far (diagnostics/tests). */
    std::uint64_t epochs() const { return statEpochs_.value(); }

    /** Run until all partitions drain. @return events executed. */
    std::uint64_t run() { return runUntil(maxTick); }

    /** Run until an absolute tick. @return events executed. */
    std::uint64_t runUntil(Tick until);

    /**
     * Run until @p pred() holds — checked at every epoch barrier, the
     * parallel analogue of "after every event" — or @p deadline.
     */
    bool runUntilCondition(const std::function<bool()> &pred,
                           Tick deadline = maxTick);

    /** Discard pending events in every partition (teardown). */
    void clearAll();

    /**
     * Join the worker pool (idempotent; the destructor calls it).
     * Owners whose model objects hold event handles into partition
     * queues call this first in teardown, so the single-threaded
     * destruction of those objects still sees live queues. Later run
     * calls still work: the calling thread visits every worker's
     * partitions itself.
     */
    void park();

  private:
    /** One partition visit: set by the barrier, reported by the owner. */
    struct Visit
    {
        std::uint32_t id;
        /** Had runnable work below runTo (vs. mail only). */
        bool runnable;
        /** Left posts in its outgoing mailboxes (owner-set). */
        bool posted;
        /** Run bound: min(frontier, run deadline). */
        Tick runTo;
        /** The partition's next due tick after the visit (owner-set). */
        Tick next;
        /** Events the visit executed (owner-set). */
        std::uint64_t events;
    };

    /** Cursor into one mailbox's handed-over batch (inbox merge). */
    struct RunCursor
    {
        Mailbox *mb;
        std::size_t idx;
    };

    /** One worker's share of an epoch. */
    struct Worker
    {
        std::vector<Visit> visits;
        std::vector<RunCursor> merge;
    };

    /**
     * Start a run call: resolve lookaheads, flatten the edge graph,
     * re-read every partition's next tick and pick up batches posted
     * outside an epoch.
     */
    void beginRun();
    /**
     * The serial barrier plus one parallel epoch. @return false,
     * with any handed-over mail injected, once nothing is due
     * before @p until.
     */
    bool epoch(Tick until);
    /** Barrier step 1: hand posted batches to their destinations. */
    void handOff();
    /**
     * Barrier steps 2-3: per-partition horizons (relaxation floors +
     * incoming-edge minima) and visit lists; count stalls.
     * @return the min run bound (the epoch's global frontier).
     */
    Tick prepareEpoch(Tick until);
    void runEpoch();
    /** Read the owners' reports back into the barrier's state. */
    void finishEpoch();
    /** Visit every partition on @p w's list (see the file comment). */
    void runShare(Worker &w);
    /** Merge @p p's handed-over batches into its queue. */
    static void inject(Partition &p, std::vector<RunCursor> &merge);
    /**
     * As a run call returns: advance every clock to its last epoch
     * bound, min(frontier, @p until) (a no-op if no epoch ran).
     */
    void advanceIdleClocks(Tick until);
    void workerLoop(std::size_t w);
    void foldAll();

    Simulation &sim_;
    int threads_;
    Tick lookahead_ = maxTick;
    Tick now_ = 0;
    std::vector<std::unique_ptr<Partition>> parts_;
    std::vector<std::unique_ptr<Mailbox>> mail_;
    std::vector<std::function<void()>> foldHooks_;

    // Barrier state, indexed by partition id (coordinator-owned).
    /** Monotone frontiers; Partition::epochHorizon() reads these. */
    std::vector<Tick> horizon_;
    std::vector<Tick> nextTick_;
    std::vector<Tick> floor_;
    /** Per-partition incoming-edge horizon bound (phase-2 scratch). */
    std::vector<Tick> hbound_;
    /** Got a handed-over batch this barrier. */
    std::vector<std::uint8_t> hasMail_;
    /** Partitions whose outgoing mailboxes hold posts. */
    std::vector<std::uint32_t> posted_;
    /** Did this run call execute an epoch (idle clocks to advance)? */
    bool ranEpoch_ = false;
    /**
     * The partition graph flattened for the per-epoch relaxation
     * passes (rebuilt from mail_ at the start of every run).
     */
    struct FlatEdge
    {
        std::uint32_t src;
        std::uint32_t dst;
        Tick lookahead;
    };
    std::vector<FlatEdge> edges_;

    // Scaling observability (registered as "parallel.*"; all values
    // derive from the deterministic schedule, so they are identical
    // for any thread count).
    StatGroup statGroup_;
    Counter statEpochs_;
    Counter statMailboxPosts_;
    Counter statBatchedPosts_;
    Counter statHorizonStalls_;
    SampleStat statEpochEventsMax_;
    SampleStat statEpochEventsMin_;

    // Worker pool: workers_[0] is the calling thread's share, pool_
    // runs the rest. A worker spins briefly on epoch_ and then parks
    // on cvStart_; the coordinator spins on busy_ and then parks on
    // cvDone_. m_ only guards the parking.
    std::vector<Worker> workers_;
    std::vector<std::thread> pool_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::size_t> busy_{0};
    /** Written before the epoch_ bump that tells the pool to exit. */
    bool stop_ = false;
    std::mutex m_;
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
};

} // namespace qpip::sim
