/**
 * @file
 * The benchmark's workload interface. A workload's constructor is the
 * set-up phase (testbed construction, connection set-up, management
 * work drained), run() is the measured phase (a fixed amount of
 * simulated work), collect() reads the layer counters afterwards, and
 * the destructor is the teardown phase. The driver times the three
 * phases from outside.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host/host.hh"
#include "nic/qpip_nic.hh"
#include "sim/simulation.hh"
#include "trace.hh"

namespace perfbench {

struct Options
{
    std::uint64_t seed = 1;
    /** Tiny sizes for the benchmark's own smoke test. */
    bool smoke = false;
};

/**
 * Seed-deterministic layer counts over the measured phase, keyed by
 * the benchmark's own names ("net.frames", "nic.ctxHits", ...).
 */
using Counts = std::map<std::string, double>;

/** What one repetition of a workload measured. */
struct RepResult
{
    /** Ops attempted and ops that failed any check or never finished. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few correctness failures, for the log. */
    std::vector<std::string> errors;

    /** Simulated duration of the measured phase. */
    qpip::sim::Tick simTicks = 0;
    /** Ops completed correctly in the measured phase. */
    std::uint64_t ops = 0;
    /** Application payload delivered (headers/retransmits excluded). */
    std::uint64_t payloadBytes = 0;
    /** One simulated latency per correctly completed op (or flow). */
    std::vector<qpip::sim::Tick> latencies;
    /** Busy share of the hosts running the application. */
    double hostCpuShare = 0.0;
    /** Engine worker threads (1: serial event loop). */
    int threads = 1;
    Counts counts;

    /** Record a failed check (keeps the first few messages). */
    void error(const std::string &what);
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** The measured phase. */
    virtual void run(RepResult &r) = 0;

    /** Fill r.counts; called after run(), before teardown. */
    virtual void collect(RepResult &r) = 0;
};

std::unique_ptr<Workload> makeFanin(const Options &opts);
std::unique_ptr<Workload> makePingpong(const Options &opts);
std::unique_ptr<Workload> makeFabric(const Options &opts);

/**
 * Reads a testbed's layer counters: once when set-up ends (start) and
 * once after the run (finish); the difference is the measured phase's
 * work.
 */
struct Probe
{
    qpip::sim::Simulation *sim = nullptr;
    /** Executed-event total (serial queue or parallel engine). */
    std::function<std::uint64_t()> events;
    /** Hosts running the application (CPU busy time). */
    std::vector<qpip::host::Host *> appHosts;
    /** Every QPIP NIC (doorbells, CQ notifies, RNR, RUD). */
    std::vector<qpip::nic::QpipNic *> nics;
    /** The NIC under test (firmware busy, stages, context cache). */
    qpip::nic::QpipNic *server = nullptr;

    void start() { before_ = snapshot(); }

    /**
     * Set r.counts to the measured phase's deltas and r.hostCpuShare
     * from the app hosts' busy time over r.simTicks.
     */
    void finish(RepResult &r) const;

  private:
    Counts snapshot() const;

    Counts before_;
};

/** The benchmark's own count of its verbs calls (the qpip.* counts). */
struct VerbsTally
{
    std::uint64_t posts = 0;
    std::uint64_t refused = 0;
    std::uint64_t errorCompletions = 0;

    /** Make one traced post call; @return its result. */
    template <typename F>
    bool
    post(F &&call)
    {
        Span s("qpip.post");
        ++posts;
        const bool ok = call();
        refused += ok ? 0 : 1;
        return ok;
    }

    void addTo(Counts &c) const;
};

/** SplitMix64: the benchmark's seed-derived input stream. */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

} // namespace perfbench
