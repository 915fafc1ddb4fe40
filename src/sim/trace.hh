/**
 * @file
 * Event tracing to Chrome trace_event JSON (open in chrome://tracing
 * or https://ui.perfetto.dev). Components emit spans (a named duration
 * on a track: firmware stage executions, link serialization) and
 * instants (a point on a track: TCP state transitions). Tracks map to
 * Chrome "threads" named after the emitting SimObject, so the four
 * firmware FSMs, each link and each TCP engine render as parallel
 * swimlanes over simulated time (1 trace us = 1 simulated us).
 *
 * Tracing is off by default and costs one branch per site when off.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace qpip::sim {

/**
 * The trace sink. One per Simulation.
 */
class Tracer
{
  public:
    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /**
     * A named duration on @p track starting at @p start for @p dur
     * ticks. @p args is either empty or a preformatted JSON object.
     */
    void span(const std::string &track, const std::string &name,
              Tick start, Tick dur, std::string args = "");

    /** A point event on @p track at @p ts. */
    void instant(const std::string &track, const std::string &name,
                 Tick ts, std::string args = "");

    std::size_t numEvents() const { return events_.size(); }

    /**
     * Render the full trace as Chrome trace_event JSON. Events are
     * emitted sorted by timestamp (stable), so downstream consumers
     * see monotonically non-decreasing "ts" fields.
     */
    std::string json() const;

    /** Write json() to @p path. @return false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        Tick ts = 0;
        Tick dur = 0;
        bool isSpan = false;
        std::uint32_t track = 0;
        std::string name;
        std::string args;
    };

    std::uint32_t trackId(const std::string &track);

    bool enabled_ = false;
    std::vector<Event> events_;
    std::map<std::string, std::uint32_t> tracks_;
};

} // namespace qpip::sim
