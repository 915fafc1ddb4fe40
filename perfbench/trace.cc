#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t noParent = ~std::uint32_t(0);

std::atomic<bool> tracing{false};

} // namespace

/** One thread's spans, plus the stack of spans it has open. */
struct Buffer
{
    struct Record
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::uint32_t parent;
    };

    std::vector<Record> spans;
    std::vector<std::uint32_t> open;
};

namespace {

/**
 * Buffers are owned here, not by their threads: engine workers exit
 * before the run is summarised, and their spans must survive them.
 */
struct BufferRegistry
{
    std::mutex m;
    std::vector<std::unique_ptr<Buffer>> buffers;
};

BufferRegistry &
registry()
{
    static BufferRegistry r;
    return r;
}

Buffer &
threadBuffer()
{
    thread_local Buffer *mine = nullptr;
    if (mine == nullptr) {
        auto b = std::make_unique<Buffer>();
        b->spans.reserve(1 << 16);
        mine = b.get();
        auto &r = registry();
        const std::lock_guard<std::mutex> lock(r.m);
        r.buffers.push_back(std::move(b));
    }
    return *mine;
}

} // namespace

void
setTracing(bool on)
{
    tracing.store(on, std::memory_order_relaxed);
}

bool
tracingEnabled()
{
    return tracing.load(std::memory_order_relaxed);
}

std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Span::Span(const char *name)
{
    if (!tracingEnabled())
        return;
    buf_ = &threadBuffer();
    idx_ = static_cast<std::uint32_t>(buf_->spans.size());
    const std::uint32_t parent =
        buf_->open.empty() ? noParent : buf_->open.back();
    buf_->spans.push_back({name, wallNs(), 0, parent});
    buf_->open.push_back(idx_);
}

Span::~Span()
{
    if (buf_ == nullptr)
        return;
    buf_->spans[idx_].endNs = wallNs();
    buf_->open.pop_back();
}

std::map<std::string, SpanTotals>
summarizeSpans()
{
    std::map<std::string, SpanTotals> out;
    auto &r = registry();
    const std::lock_guard<std::mutex> lock(r.m);
    for (const auto &b : r.buffers) {
        std::vector<std::int64_t> childNs(b->spans.size(), 0);
        for (const auto &s : b->spans) {
            if (s.parent != noParent)
                childNs[s.parent] += s.endNs - s.startNs;
        }
        for (std::size_t i = 0; i < b->spans.size(); ++i) {
            const auto &s = b->spans[i];
            auto &t = out[s.name];
            ++t.count;
            t.inclusiveNs += s.endNs - s.startNs;
            t.selfNs += s.endNs - s.startNs - childNs[i];
        }
    }
    return out;
}

bool
dumpSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "thread,index,parent,name,start_ns,end_ns\n");
    auto &r = registry();
    const std::lock_guard<std::mutex> lock(r.m);
    for (std::size_t t = 0; t < r.buffers.size(); ++t) {
        const auto &spans = r.buffers[t]->spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto &s = spans[i];
            std::fprintf(f, "%zu,%zu,%lld,%s,%lld,%lld\n", t, i,
                         s.parent == noParent
                             ? -1LL
                             : static_cast<long long>(s.parent),
                         s.name, static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs));
        }
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
