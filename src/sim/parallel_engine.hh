/**
 * @file
 * A deterministic conservative parallel discrete-event engine: the
 * one run loop of every Simulation.
 *
 * The simulation is sharded into Partitions (see partition.hh), each
 * owning a private event queue. Partition i belongs to worker i mod T
 * (T = thread count; worker 0 is the calling thread) for the engine's
 * whole life. Execution proceeds in barrier epochs.
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
 * horizon and reports its next event tick.
 *
 * Per-edge horizons. Every mailbox edge e = (q -> p) declares a
 * lookahead L_e when it is created (mailbox()): a lower bound on the
 * delivery latency of anything posted through it. There is no
 * engine-wide default. At each barrier the engine computes, for every
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
 * Batched posts. During an epoch each mailbox accumulates keyed posts
 * in a post buffer (no synchronization: only the source's owner
 * touches it), noting the earliest tick. The barrier swaps each posted
 * buffer into the mailbox's handed-over slot, and the destination's
 * owner schedules every message under its own key at the start of its
 * next visit, in whatever order the batches come.
 *
 * Idle clocks. A partition with no runnable work and no mail is not
 * visited, so its clock stays where its last visit left it; when a
 * run call returns, every partition's clock advances to its last
 * epoch bound, which is where anything scheduled into it from
 * outside a run must land at or beyond. Parked spinners (a CPU owing
 * empty polls, see EventQueue::setParked) post no mail and so do not
 * bound epochs: their partition settles them when it next runs, or
 * when a run call returns.
 *
 * Determinism: every event is keyed by the source that scheduled it
 * (EventKey) — a SimObject or a link direction, numbered in
 * construction order — and each source lives in one partition, so its
 * count of schedules advances in the same order as in the serial run.
 * A partition's queue therefore runs the restriction of the serial
 * total order to its own events, and mail adopts its sender's key. An
 * event can only be affected by events of other partitions through
 * mail, which lands at least one lookahead later, at or beyond the
 * destination's horizon, so it is in the queue before anything at
 * its tick runs. Random streams belong to objects, not partitions.
 * So any partitioning, at any thread count, replays the serial
 * schedule: the same event order, ticks, stats and captures. Every
 * counter has one writing partition (a link direction counts only
 * what it sends), so a stat reads the same whichever run mode wrote
 * it, with nothing to gather after a run. The one difference is where a
 * run call returns: runUntilCondition() checks its predicate at
 * barriers, which with more than one partition are epochs, so it
 * returns later than an unpartitioned run; what is simulated does not
 * change. The app harnesses therefore never read there: apps::FlowRun
 * runs on to a stop tick past every partition's epoch bound
 * (net::horizonReach) and reads results at that tick, the same in
 * every run mode.
 *
 * One partition. Every Simulation runs on its engine, which starts
 * with partition 0, where every SimObject starts: an unpartitioned
 * run is that partition alone. It has no edge and so a barrier after
 * every event: run calls step its queue on the calling thread, count
 * no epochs, and Simulation::now() reads its clock even inside an
 * event. Only a split engine refuses tracing, now() inside an epoch
 * and an event pending in a queue its object is not bound to.
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
#include "sim/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace qpip::sim {

class Simulation;

/**
 * The one run loop of a Simulation, which owns it (Simulation::engine).
 */
class ParallelEngine
{
  public:
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /**
     * Set the worker count, once, before a partitioned run: 1 executes
     * partitions inline on the calling thread. Registers the engine's
     * parallel.* stats, which an unpartitioned simulation never does.
     */
    void setThreads(int threads);

    /** Create a partition (with its own event queue). */
    Partition &addPartition(const std::string &name);

    std::size_t numPartitions() const { return parts_.size(); }
    Partition &partition(std::size_t i) { return *parts_.at(i); }
    Partition *findPartition(const std::string &name);

    /**
     * Find-or-create the src->dst mailbox and declare @p lookahead for
     * it (see Mailbox). When the edge already exists, as for parallel
     * trunks between one partition pair, it keeps the minimum of its
     * declarations. @pre lookahead >= 1 tick; src and dst differ.
     */
    Mailbox &mailbox(Partition &src, Partition &dst, Tick lookahead);

    /**
     * Bind every registered SimObject whose name is @p prefix or
     * starts with "@p prefix." to partition @p p (its event queue).
     */
    void assignByPrefix(const std::string &prefix, Partition &p);

    /**
     * With one partition, its queue's clock. With more, the
     * conservative global frontier of the latest epoch, which panics
     * while a partition executes: it is not the running event's tick,
     * and simulated work reads its own object's clock
     * (SimObject::curTick).
     */
    Tick now() const;

    /** Total events executed across all partitions. */
    std::uint64_t executed() const;

    /** Barrier epochs run so far (diagnostics/tests). */
    std::uint64_t epochs() const { return statEpochs_.value(); }

    /** Are partitions executing (on any thread) right now? */
    bool inEpoch() const { return inEpoch_; }

    /** Run until all partitions drain. @return events executed. */
    std::uint64_t run() { return runUntil(maxTick); }

    /** Run until an absolute tick. @return events executed. */
    std::uint64_t runUntil(Tick until);

    /**
     * Run until @p pred() holds or @p deadline. The predicate is
     * checked at every barrier, and a single partition has a barrier
     * after every event.
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
    friend class Simulation;

    /** The engine of @p sim: one partition, one worker. */
    explicit ParallelEngine(Simulation &sim);

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
        /** The partition's next event tick after the visit (owner-set). */
        Tick next;
        /** Events the visit executed (owner-set). */
        std::uint64_t events;
    };

    /** One worker's share of an epoch. */
    struct Worker
    {
        std::vector<Visit> visits;
    };

    /**
     * Start a partitioned run call: refuse tracing and misbound
     * events, flatten the edge graph, re-read every partition's next
     * tick and pick up batches posted outside an epoch.
     */
    void beginRun();
    /**
     * Panic on an event pending in a queue its SimObject is not bound
     * to: one no partition was assigned, or one that moved after it
     * scheduled.
     */
    void checkBindings();
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
    /** Schedule @p p's handed-over batches into its queue. */
    static void inject(Partition &p);
    /**
     * As a run call returns: advance every clock to its last epoch
     * bound, min(frontier, @p until) (a no-op if no epoch ran).
     */
    void advanceIdleClocks(Tick until);
    void workerLoop(std::size_t w);

    Simulation &sim_;
    Tick now_ = 0;
    std::vector<std::unique_ptr<Partition>> parts_;
    std::vector<std::unique_ptr<Mailbox>> mail_;

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
    /** Partitions are executing: written by the coordinator only. */
    bool inEpoch_ = false;
    /** setThreads() was called. */
    bool threadsSet_ = false;
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
