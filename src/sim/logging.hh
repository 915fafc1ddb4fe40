/**
 * @file
 * Status/error reporting in the gem5 tradition: panic() for simulator
 * bugs (aborts), fatal() for user/configuration errors (clean exit),
 * warn() for non-fatal conditions (always printed). There is no debug
 * log: tracing goes through sim::Tracer and counters through stats.
 */

#pragma once

#include <cstdarg>
#include <string>

namespace qpip::sim {

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

} // namespace qpip::sim
