#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace qpip::sim {

namespace detail {
LogLevel gLogLevel = LogLevel::Warn;
} // namespace detail

using detail::gLogLevel;

void
setLogLevel(LogLevel level)
{
    gLogLevel = level;
}

std::string
vstrfmt(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (gLogLevel < LogLevel::Warn)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    if (gLogLevel < LogLevel::Info)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

void
debugLog(LogLevel level, const char *tag, const char *fmt, ...)
{
    if (gLogLevel < level)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "[%s] %s\n", tag, s.c_str());
}

} // namespace qpip::sim
