/**
 * @file
 * In-memory wall-clock spans recorded around the benchmark's calls into
 * each layer's public API. Spans (name, start, end, parent) go into one
 * buffer per thread, because under the parallel engine the benchmark's
 * socket callbacks run on engine worker threads. Nothing is written
 * while a run is being measured; the buffers are summarised (and
 * optionally dumped) once it ends.
 *
 * A layer's self time is its span's duration minus the part covered by
 * its direct child spans on the same thread.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/** Turn span recording on or off (process-wide; off by default). */
void setTracing(bool on);
bool tracingEnabled();

/** Monotonic wall clock in nanoseconds. */
std::int64_t wallNs();

struct Buffer;

/**
 * RAII span. @p name must be a string literal (it is stored by
 * pointer). Costs one branch when tracing is off.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Buffer *buf_ = nullptr;
    std::uint32_t idx_ = 0;
};

/** Per-name totals over every recorded span. */
struct SpanTotals
{
    std::uint64_t count = 0;
    /** Sum of durations, children included. */
    std::int64_t inclusiveNs = 0;
    /** Sum of durations minus direct children on the same thread. */
    std::int64_t selfNs = 0;
};

/** Summarise every thread's buffer by span name. */
std::map<std::string, SpanTotals> summarizeSpans();

/**
 * Write every span as CSV (thread,index,parent,name,start_ns,end_ns).
 * @return false when the file cannot be written.
 */
bool dumpSpans(const std::string &path);

} // namespace perfbench
