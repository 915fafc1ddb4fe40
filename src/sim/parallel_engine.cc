#include "sim/parallel_engine.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/trace.hh"

namespace qpip::sim {

namespace {

/**
 * Derive a partition's RNG seed from the simulation seed and the
 * partition id: distinct, deterministic streams (Random expands the
 * seed through splitmix64, so nearby values diverge immediately).
 */
std::uint64_t
partitionSeed(std::uint64_t sim_seed, std::uint32_t id)
{
    return sim_seed ^ (0x9E3779B97F4A7C15ULL * (id + 1));
}

/** a + l saturating at maxTick (drained queues sit at maxTick). */
Tick
clampAdd(Tick a, Tick l)
{
    return a >= maxTick - l ? maxTick : a + l;
}

/**
 * Polls of an atomic a waiting thread makes before it parks on its
 * condition variable (about a quarter of a millisecond in all). The
 * first pausePolls only pause: the other side is usually about to
 * finish a barrier. The rest yield the core, so that on a machine with
 * fewer free cores than engine threads a waiter does not hold the CPU
 * the thread it waits for needs.
 */
constexpr int spinPolls = 1 << 10;
constexpr int pausePolls = 1 << 6;

/** Tell the core this is a spin-wait loop. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Wait until @p ready() holds: spin, then park on @p cv. Whoever makes
 * it hold must do so, or notify, under @p m, so a thread between its
 * last check and its wait cannot miss the wake-up.
 */
template <typename Ready>
void
spinThenPark(std::mutex &m, std::condition_variable &cv, Ready ready)
{
    for (int i = 0; i < spinPolls; ++i) {
        if (ready())
            return;
        if (i < pausePolls)
            cpuRelax();
        else
            std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, ready);
}

} // namespace

ParallelEngine::ParallelEngine(Simulation &sim, int threads)
    : sim_(sim), threads_(threads < 1 ? 1 : threads),
      workers_(static_cast<std::size_t>(threads_))
{
    if (sim_.parallelEngine() != nullptr)
        panic("ParallelEngine: simulation already has an engine");
    sim_.engine_ = this;
    statGroup_.init(sim_.stats(), "parallel");
    statGroup_.add("epochs", statEpochs_);
    statGroup_.add("mailboxPosts", statMailboxPosts_);
    statGroup_.add("batchedPosts", statBatchedPosts_);
    statGroup_.add("horizonStalls", statHorizonStalls_);
    statGroup_.add("epochEventsMax", statEpochEventsMax_);
    statGroup_.add("epochEventsMin", statEpochEventsMin_);
    pool_.reserve(workers_.size() - 1);
    for (std::size_t w = 1; w < workers_.size(); ++w)
        pool_.emplace_back([this, w] { workerLoop(w); });
}

void
ParallelEngine::park()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        if (pool_.empty())
            return;
        stop_ = true;
        epoch_.fetch_add(1, std::memory_order_release);
    }
    cvStart_.notify_all();
    for (auto &t : pool_)
        t.join();
    pool_.clear();
}

ParallelEngine::~ParallelEngine()
{
    park();
    sim_.engine_ = nullptr;
}

Partition &
ParallelEngine::addPartition(const std::string &name)
{
    const auto id = static_cast<std::uint32_t>(parts_.size());
    parts_.push_back(std::make_unique<Partition>(
        id, name, partitionSeed(sim_.seed(), id), horizon_));
    horizon_.push_back(0);
    nextTick_.push_back(maxTick);
    floor_.push_back(maxTick);
    hasMail_.push_back(0);
    return *parts_.back();
}

Partition *
ParallelEngine::findPartition(const std::string &name)
{
    for (auto &p : parts_) {
        if (p->name() == name)
            return p.get();
    }
    return nullptr;
}

Mailbox &
ParallelEngine::mailbox(Partition &src, Partition &dst)
{
    for (auto &mb : mail_) {
        if (&mb->src() == &src && &mb->dst() == &dst)
            return *mb;
    }
    mail_.push_back(std::make_unique<Mailbox>(src, dst));
    return *mail_.back();
}

void
ParallelEngine::assignByPrefix(const std::string &prefix, Partition &p)
{
    for (SimObject *obj : sim_.objectsSnapshot()) {
        const std::string &n = obj->name();
        const bool exact = n == prefix;
        const bool child = n.size() > prefix.size() &&
                           n.compare(0, prefix.size(), prefix) == 0 &&
                           n[prefix.size()] == '.';
        if (exact || child)
            obj->bindExecContext(p.eventQueue(), p.rng());
    }
}

void
ParallelEngine::setLookahead(Tick l)
{
    if (l == 0)
        panic("ParallelEngine: lookahead must be at least one tick");
    lookahead_ = l;
}

void
ParallelEngine::addFoldHook(std::function<void()> fold)
{
    foldHooks_.push_back(std::move(fold));
}

std::uint64_t
ParallelEngine::executed() const
{
    std::uint64_t n = 0;
    for (const auto &p : parts_)
        n += p->eventQueue().executed();
    return n;
}

void
ParallelEngine::beginRun()
{
    if (sim_.tracer().enabled()) {
        panic("ParallelEngine: event tracing is unsupported (span "
              "append order would depend on thread interleaving)");
    }
    if (!sim_.eventQueue().empty()) {
        panic("ParallelEngine: events pending on the global queue — "
              "a SimObject was not assigned to any partition");
    }
    // Resolve every edge's effective lookahead: edges that declared
    // their own (link propagation delay) keep it, the rest inherit
    // the global default.
    for (auto &mb : mail_) {
        if (mb->lookahead_ != maxTick)
            continue;
        if (lookahead_ == maxTick) {
            panic("ParallelEngine: cross-partition mailboxes exist "
                  "but no lookahead was set");
        }
        mb->lookahead_ = lookahead_;
    }
    // Flatten the partition graph for the per-epoch relaxation:
    // iterating a contiguous {src, dst, lookahead} array beats
    // chasing Mailbox pointers at the epoch rates the engine
    // sustains.
    edges_.clear();
    edges_.reserve(mail_.size());
    for (const auto &mb : mail_) {
        edges_.push_back(
            FlatEdge{mb->src().id(), mb->dst().id(), mb->lookahead_});
    }
    // Between run calls anything may have scheduled into a partition
    // or posted to a mailbox (the last epoch's posts, a test harness):
    // re-read every queue once here, after which the owners' reports
    // keep nextTick_ current.
    ranEpoch_ = false;
    posted_.clear();
    for (std::size_t i = 0; i < parts_.size(); ++i) {
        Partition &p = *parts_[i];
        nextTick_[i] = p.eq_.nextDueTick();
        if (p.dirtyOut_.empty())
            continue;
        for (Mailbox *mb : p.dirtyOut_)
            mb->sortBatch();
        posted_.push_back(p.id_);
    }
}

void
ParallelEngine::handOff()
{
    std::uint64_t posts = 0;
    std::uint64_t batched = 0;
    for (const std::uint32_t src : posted_) {
        Partition &p = *parts_[src];
        for (Mailbox *mb : p.dirtyOut_) {
            const std::size_t n = mb->msgs_.size();
            posts += n;
            if (n > 1)
                batched += n;
            // The destination's owner emptied handed_ when it
            // injected the previous batch, so the source posts into
            // that buffer next.
            mb->msgs_.swap(mb->handed_);
            const std::uint32_t dst = mb->dst_.id_;
            nextTick_[dst] =
                std::min(nextTick_[dst], mb->handed_.front().when);
            hasMail_[dst] = 1;
            mb->dst_.inbox_.push_back(mb);
        }
        p.dirtyOut_.clear();
    }
    posted_.clear();
    statMailboxPosts_.inc(posts);
    statBatchedPosts_.inc(batched);
}

void
ParallelEngine::inject(Partition &p, std::vector<RunCursor> &merge)
{
    if (p.inbox_.size() == 1) {
        // One inbound edge (the common case): its batch is already
        // the merged order.
        Mailbox *mb = p.inbox_.front();
        for (auto &m : mb->handed_)
            p.eq_.schedule(m.when, std::move(m.fn), m.priority);
        mb->handed_.clear();
        p.inbox_.clear();
        return;
    }
    // K-way merge of the sorted per-edge runs. (tick, priority, seq,
    // srcId) is a strict total order (seq streams are per-source
    // partition), so queue insertion order — and with it the seq
    // numbers the queue assigns — is independent of thread count, and
    // identical to a global sort of every batch in the fabric.
    const auto later = [](const RunCursor &a, const RunCursor &b) {
        const auto &ma = a.mb->handed_[a.idx];
        const auto &mb_ = b.mb->handed_[b.idx];
        if (ma.when != mb_.when)
            return ma.when > mb_.when;
        if (ma.priority != mb_.priority)
            return ma.priority > mb_.priority;
        if (ma.seq != mb_.seq)
            return ma.seq > mb_.seq;
        return a.mb->src().id() > b.mb->src().id();
    };
    merge.clear();
    for (Mailbox *mb : p.inbox_)
        merge.push_back(RunCursor{mb, 0});
    p.inbox_.clear();
    std::make_heap(merge.begin(), merge.end(), later);
    while (!merge.empty()) {
        std::pop_heap(merge.begin(), merge.end(), later);
        RunCursor &cur = merge.back();
        auto &m = cur.mb->handed_[cur.idx];
        p.eq_.schedule(m.when, std::move(m.fn), m.priority);
        if (++cur.idx < cur.mb->handed_.size()) {
            std::push_heap(merge.begin(), merge.end(), later);
        } else {
            cur.mb->handed_.clear();
            merge.pop_back();
        }
    }
}

Tick
ParallelEngine::prepareEpoch(Tick until)
{
    const auto n = static_cast<std::uint32_t>(parts_.size());
    // Phase 1: per-partition floors B_p — a conservative lower bound
    // on the earliest tick p can execute anything from here on,
    // accounting for multi-hop wakeups (see the file comment). All
    // edge lookaheads are >= 1, so the shortest-path fixpoint
    // B_p = min(next_p, min_e B_src+L_e) exists and is unique;
    // rounds of edge relaxation reach it in at most P-1 passes, and
    // on these shallow fabric graphs (diameter <= 4) in two or
    // three — cheaper per epoch than a Dijkstra heap's constant
    // factor at fabric epoch rates.
    floor_ = nextTick_;
    for (bool changed = true; changed;) {
        changed = false;
        for (const FlatEdge &e : edges_) {
            const Tick via = clampAdd(floor_[e.src], e.lookahead);
            if (via < floor_[e.dst]) {
                floor_[e.dst] = via;
                changed = true;
            }
        }
    }
    // Phase 2: per-edge horizons. H_p = min over incoming e=(q->p) of
    // B_q + L_e: nothing can arrive below it, so p may run to it.
    // Partitions with no incoming edges are unthrottled. Each
    // partition's safe frontier is the monotone max of its epoch
    // bounds: the bound can dip when an injection wakes a neighbor
    // below its previous next-event tick, but a bound once proven
    // covers all future posts too, so the frontier never retreats —
    // and the partition's clock, which never passed the old frontier,
    // stays at or below it.
    hbound_.assign(n, until);
    for (const FlatEdge &e : edges_) {
        hbound_[e.dst] = std::min(
            hbound_[e.dst], clampAdd(floor_[e.src], e.lookahead));
    }
    // Phase 3: visit lists. Partition i belongs to worker i mod T;
    // only partitions with runnable work or inbound mail are visited.
    for (Worker &w : workers_)
        w.visits.clear();
    std::uint64_t stalls = 0;
    Tick frontier = until;
    std::size_t owner = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        horizon_[i] = std::max(horizon_[i], hbound_[i]);
        const Tick runTo = std::min(horizon_[i], until);
        frontier = std::min(frontier, runTo);
        const bool runnable = nextTick_[i] < runTo;
        if (!runnable && nextTick_[i] < until)
            ++stalls; // has work, but neighbors are behind
        if (runnable || hasMail_[i] != 0) {
            workers_[owner].visits.push_back(
                Visit{i, runnable, false, runTo, maxTick, 0});
        }
        hasMail_[i] = 0;
        if (++owner == workers_.size())
            owner = 0;
    }
    statHorizonStalls_.inc(stalls);
    return frontier;
}

void
ParallelEngine::runShare(Worker &w)
{
    for (Visit &v : w.visits) {
        Partition &p = *parts_[v.id];
        if (!p.inbox_.empty())
            inject(p, w.merge);
        const std::uint64_t before = p.eq_.executed();
        {
            ExecContextScope scope(&p.ctx_);
            p.eq_.runUntil(v.runTo);
        }
        v.events = p.eq_.executed() - before;
        // Sort the outgoing batches here, in parallel: the
        // destinations' owners then only pay for the merge.
        for (Mailbox *mb : p.dirtyOut_)
            mb->sortBatch();
        v.posted = !p.dirtyOut_.empty();
        v.next = p.eq_.nextDueTick();
    }
}

void
ParallelEngine::workerLoop(std::size_t w)
{
    std::uint64_t seen = 0;
    for (;;) {
        spinThenPark(m_, cvStart_, [&] {
            return epoch_.load(std::memory_order_acquire) != seen;
        });
        ++seen;
        if (stop_)
            return;
        runShare(workers_[w]);
        if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(m_);
            cvDone_.notify_one();
        }
    }
}

void
ParallelEngine::runEpoch()
{
    if (pool_.empty()) {
        // One thread, or the pool was joined: visit every worker's
        // list here, in worker order (any order gives the same
        // result; each partition is on exactly one list).
        for (Worker &w : workers_)
            runShare(w);
        return;
    }
    busy_.store(pool_.size(), std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(m_);
        epoch_.fetch_add(1, std::memory_order_release);
    }
    cvStart_.notify_all();
    runShare(workers_[0]);
    spinThenPark(m_, cvDone_, [this] {
        return busy_.load(std::memory_order_acquire) == 0;
    });
}

void
ParallelEngine::finishEpoch()
{
    statEpochs_.inc();
    bool ran = false;
    std::uint64_t mx = 0;
    std::uint64_t mn = ~std::uint64_t(0);
    for (const Worker &w : workers_) {
        for (const Visit &v : w.visits) {
            nextTick_[v.id] = v.next;
            if (v.posted)
                posted_.push_back(v.id);
            if (!v.runnable)
                continue;
            ran = true;
            mx = std::max(mx, v.events);
            mn = std::min(mn, v.events);
        }
    }
    if (!ran)
        return;
    statEpochEventsMax_.sample(static_cast<double>(mx));
    statEpochEventsMin_.sample(static_cast<double>(mn));
}

bool
ParallelEngine::epoch(Tick until)
{
    handOff();
    Tick next = maxTick;
    for (const Tick t : nextTick_)
        next = std::min(next, t);
    if (next >= until) {
        // No epoch follows in this call: inject what was just handed
        // over now, before anything outside the run can schedule into
        // the same ticks.
        for (std::size_t i = 0; i < parts_.size(); ++i) {
            if (hasMail_[i] == 0)
                continue;
            inject(*parts_[i], workers_[0].merge);
            hasMail_[i] = 0;
        }
        return false;
    }
    now_ = std::max(now_, prepareEpoch(until));
    runEpoch();
    finishEpoch();
    ranEpoch_ = true;
    return true;
}

void
ParallelEngine::advanceIdleClocks(Tick until)
{
    // Partitions skipped by the last epochs still own the time up to
    // their last bound: anything scheduled into them from outside a
    // run must land at or beyond what their neighbors' horizons
    // already assumed.
    if (!ranEpoch_)
        return;
    ranEpoch_ = false;
    for (std::size_t i = 0; i < parts_.size(); ++i)
        parts_[i]->eq_.advanceTo(std::min(horizon_[i], until));
}

void
ParallelEngine::foldAll()
{
    for (auto &fold : foldHooks_)
        fold();
}

std::uint64_t
ParallelEngine::runUntil(Tick until)
{
    beginRun();
    const std::uint64_t before = executed();
    while (epoch(until)) {
    }
    if (until != maxTick) {
        // Mirror EventQueue::runUntil: every partition's clock
        // advances to the stop time (no events can remain below it —
        // the loop above only exits once next >= until).
        for (auto &p : parts_) {
            ExecContextScope scope(&p->ctx_);
            p->eq_.runUntil(until);
        }
        now_ = std::max(now_, until);
    } else {
        advanceIdleClocks(until);
    }
    foldAll();
    return executed() - before;
}

bool
ParallelEngine::runUntilCondition(const std::function<bool()> &pred,
                                  Tick deadline)
{
    beginRun();
    if (pred()) {
        foldAll();
        return true;
    }
    for (;;) {
        if (!epoch(deadline)) {
            advanceIdleClocks(deadline);
            foldAll();
            return pred();
        }
        if (pred()) {
            advanceIdleClocks(deadline);
            foldAll();
            return true;
        }
    }
}

void
ParallelEngine::clearAll()
{
    for (auto &mb : mail_) {
        mb->msgs_.clear();
        mb->handed_.clear();
    }
    for (auto &p : parts_) {
        p->dirtyOut_.clear();
        p->inbox_.clear();
        ExecContextScope scope(&p->execContext());
        p->eventQueue().clear();
    }
    posted_.clear();
    std::fill(hasMail_.begin(), hasMail_.end(), 0);
    sim_.eventQueue().clear();
}

} // namespace qpip::sim
