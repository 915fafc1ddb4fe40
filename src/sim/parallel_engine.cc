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

} // namespace

ParallelEngine::ParallelEngine(Simulation &sim, int threads)
    : sim_(sim), threads_(threads < 1 ? 1 : threads)
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
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 1; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ParallelEngine::park()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    cvStart_.notify_all();
    for (auto &w : workers_) {
        if (w.joinable())
            w.join();
    }
    workers_.clear();
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
        id, name, partitionSeed(sim_.seed(), id)));
    outMail_.emplace_back();
    inMail_.emplace_back();
    nextTick_.push_back(maxTick);
    floor_.push_back(maxTick);
    prevExecuted_.push_back(0);
    lastEpochEvents_.push_back(0);
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
    Mailbox *mb = mail_.back().get();
    outMail_.at(src.id()).push_back(mb);
    inMail_.at(dst.id()).push_back(mb);
    return *mb;
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
ParallelEngine::checkRunnable()
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
}

void
ParallelEngine::injectMail()
{
    merge_.clear();
    std::uint64_t posts = 0;
    std::uint64_t batched = 0;
    // Each partition's dirty list names exactly its out-edges with
    // pending posts (first post marks, the barrier clears), so the
    // barrier visits only posted-to edges instead of every mailbox.
    for (auto &p : parts_) {
        for (Mailbox *mb : p->dirtyOut_) {
            // Normally pre-sorted by the worker that ran the source
            // (an O(n) is_sorted check); sorts here only for batches
            // posted outside an epoch.
            mb->sortBatch();
            posts += mb->msgs_.size();
            if (mb->msgs_.size() > 1)
                batched += mb->msgs_.size();
            merge_.push_back(RunCursor{mb, 0});
        }
        p->dirtyOut_.clear();
    }
    if (merge_.empty())
        return;
    statMailboxPosts_.inc(posts);
    statBatchedPosts_.inc(batched);
    if (merge_.size() == 1) {
        // One non-empty edge (the common case on lightly loaded
        // epochs): its batch is already the merged order.
        Mailbox *mb = merge_.front().mb;
        for (auto &m : mb->msgs_) {
            mb->dst().eventQueue().schedule(m.when, std::move(m.fn),
                                            m.priority);
        }
        mb->msgs_.clear();
        merge_.clear();
        return;
    }
    // K-way merge of the sorted per-edge runs. (tick, priority, seq,
    // srcId) is a strict total order (seq streams are per-source
    // partition), so destination-queue insertion order — and with it
    // the seq numbers the destination assigns — is independent of
    // thread count, and identical to the global sort it replaces.
    const auto later = [](const RunCursor &a, const RunCursor &b) {
        const auto &ma = a.mb->msgs_[a.idx];
        const auto &mb_ = b.mb->msgs_[b.idx];
        if (ma.when != mb_.when)
            return ma.when > mb_.when;
        if (ma.priority != mb_.priority)
            return ma.priority > mb_.priority;
        if (ma.seq != mb_.seq)
            return ma.seq > mb_.seq;
        return a.mb->src().id() > b.mb->src().id();
    };
    std::make_heap(merge_.begin(), merge_.end(), later);
    while (!merge_.empty()) {
        std::pop_heap(merge_.begin(), merge_.end(), later);
        RunCursor &cur = merge_.back();
        auto &m = cur.mb->msgs_[cur.idx];
        cur.mb->dst().eventQueue().schedule(m.when, std::move(m.fn),
                                            m.priority);
        if (++cur.idx < cur.mb->msgs_.size()) {
            std::push_heap(merge_.begin(), merge_.end(), later);
        } else {
            cur.mb->msgs_.clear();
            merge_.pop_back();
        }
    }
}

Tick
ParallelEngine::refreshNextTicks()
{
    Tick next = maxTick;
    for (std::size_t i = 0; i < parts_.size(); ++i) {
        nextTick_[i] = parts_[i]->eventQueue().nextDueTick();
        next = std::min(next, nextTick_[i]);
    }
    return next;
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
    // and the partition's clock (which already reached the old
    // frontier) stays below it.
    hbound_.assign(n, until);
    for (const FlatEdge &e : edges_) {
        hbound_[e.dst] = std::min(
            hbound_[e.dst], clampAdd(floor_[e.src], e.lookahead));
    }
    std::uint64_t stalls = 0;
    claimOrder_.clear();
    Tick frontier = until;
    for (std::uint32_t i = 0; i < n; ++i) {
        Partition &p = *parts_[i];
        p.horizon_ = std::max(p.horizon_, hbound_[i]);
        p.runTo_ = std::min(p.horizon_, until);
        frontier = std::min(frontier, p.runTo_);
        if (nextTick_[i] < p.runTo_) {
            claimOrder_.push_back(i);
        } else {
            if (nextTick_[i] < until)
                ++stalls; // has work, but neighbors are behind
            // Idle partitions still own the time up to their bound:
            // anything scheduled into them from outside a run (test
            // harness posting the next phase's work) must land at or
            // beyond what their neighbors' horizons already assumed.
            p.eq_.advanceTo(p.runTo_);
        }
    }
    statHorizonStalls_.inc(stalls);
    // Phase 3: claim order, heaviest last-epoch partitions first so
    // the long poles start before the stragglers fill in. With one
    // worker the claims run back-to-back, so ordering buys nothing.
    if (threads_ > 1) {
        std::sort(claimOrder_.begin(), claimOrder_.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      if (lastEpochEvents_[a] != lastEpochEvents_[b]) {
                          return lastEpochEvents_[a] >
                                 lastEpochEvents_[b];
                      }
                      return a < b;
                  });
    }
    return frontier;
}

void
ParallelEngine::claimLoop(std::unique_lock<std::mutex> &lock)
{
    for (;;) {
        if (nextPart_ >= claimOrder_.size())
            return;
        Partition *p = parts_[claimOrder_[nextPart_++]].get();
        lock.unlock();
        {
            ExecContextScope scope(&p->execContext());
            p->eventQueue().runUntil(p->runTo_);
        }
        // Sort this partition's outgoing batches while still inside
        // the parallel region: the barrier then only pays for the
        // k-way merge.
        for (Mailbox *mb : p->dirtyOut_)
            mb->sortBatch();
        lock.lock();
    }
}

void
ParallelEngine::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        cvStart_.wait(lock,
                      [&] { return stop_ || epochGen_ != seen; });
        if (stop_)
            return;
        seen = epochGen_;
        claimLoop(lock);
        if (--busy_ == 0)
            cvDone_.notify_one();
    }
}

void
ParallelEngine::runEpoch()
{
    if (workers_.empty()) {
        // Single worker: no other thread touches engine state, so the
        // mutex/condvar handoff would order nothing. Run the claim
        // list inline; injectMail sorts the batches at the barrier
        // (its is_sorted pre-check makes presorting redundant here).
        for (const std::uint32_t i : claimOrder_) {
            Partition &p = *parts_[i];
            ExecContextScope scope(&p.execContext());
            p.eventQueue().runUntil(p.runTo_);
        }
        return;
    }
    std::unique_lock<std::mutex> lock(m_);
    nextPart_ = 0;
    busy_ = workers_.size();
    ++epochGen_;
    cvStart_.notify_all();
    claimLoop(lock); // the calling thread pulls its share too
    cvDone_.wait(lock, [&] { return busy_ == 0; });
}

void
ParallelEngine::finishEpoch()
{
    statEpochs_.inc();
    if (claimOrder_.empty())
        return;
    std::uint64_t mx = 0;
    std::uint64_t mn = ~std::uint64_t(0);
    for (const std::uint32_t i : claimOrder_) {
        const std::uint64_t ex = parts_[i]->eventQueue().executed();
        const std::uint64_t delta = ex - prevExecuted_[i];
        prevExecuted_[i] = ex;
        lastEpochEvents_[i] = delta;
        mx = std::max(mx, delta);
        mn = std::min(mn, delta);
    }
    statEpochEventsMax_.sample(static_cast<double>(mx));
    statEpochEventsMin_.sample(static_cast<double>(mn));
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
    checkRunnable();
    const std::uint64_t before = executed();
    for (;;) {
        injectMail();
        const Tick next = refreshNextTicks();
        if (next >= until)
            break;
        now_ = std::max(now_, prepareEpoch(until));
        runEpoch();
        finishEpoch();
    }
    if (until != maxTick) {
        // Mirror EventQueue::runUntil: idle partitions still advance
        // their clocks to the stop time (no events can remain below
        // it — the loop above only exits once next >= until).
        for (auto &p : parts_) {
            ExecContextScope scope(&p->execContext());
            p->eventQueue().runUntil(until);
        }
        now_ = std::max(now_, until);
    }
    foldAll();
    return executed() - before;
}

bool
ParallelEngine::runUntilCondition(const std::function<bool()> &pred,
                                  Tick deadline)
{
    checkRunnable();
    if (pred()) {
        foldAll();
        return true;
    }
    for (;;) {
        injectMail();
        const Tick next = refreshNextTicks();
        if (next >= deadline) {
            foldAll();
            return pred();
        }
        now_ = std::max(now_, prepareEpoch(deadline));
        runEpoch();
        finishEpoch();
        if (pred()) {
            foldAll();
            return true;
        }
    }
}

void
ParallelEngine::clearAll()
{
    for (auto &mb : mail_)
        mb->msgs_.clear();
    for (auto &p : parts_) {
        p->dirtyOut_.clear();
        ExecContextScope scope(&p->execContext());
        p->eventQueue().clear();
    }
    sim_.eventQueue().clear();
}

} // namespace qpip::sim
