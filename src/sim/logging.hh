/**
 * @file
 * Status/error reporting in the gem5 tradition: panic() for simulator
 * bugs (aborts), fatal() for user/configuration errors (clean exit),
 * warn()/inform() for non-fatal conditions, plus a leveled debug log.
 */

#pragma once

#include <cstdarg>
#include <string>

namespace qpip::sim {

/** Verbosity levels for the debug log. */
enum class LogLevel { None = 0, Error, Warn, Info, Debug, Trace };

namespace detail {
/** Backing store of logLevel(); written only through setLogLevel(). */
extern LogLevel gLogLevel;
} // namespace detail

/** Global debug-log verbosity; default Warn. */
inline LogLevel
logLevel()
{
    return detail::gLogLevel;
}
void setLogLevel(LogLevel level);

/**
 * Whether messages at @p level are emitted. Inline so hot-path trace
 * macros can skip the out-of-line debugLog() call (and the evaluation
 * of its arguments) when tracing is off.
 */
inline bool
logEnabled(LogLevel level)
{
    return detail::gLogLevel >= level;
}

/** printf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list ap);
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal simulator bug and abort. Use only for conditions
 * that can never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Non-fatal warning about questionable behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Debug-level trace message, gated on the global log level. */
void debugLog(LogLevel level, const char *tag, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace qpip::sim
