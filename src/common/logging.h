// Assertion-style checks for programmer errors, plus leveled logging.
//
// SUJ_CHECK is used for invariants that indicate a bug when violated (never
// for data-dependent failures, which return Status). Active in all build
// types, like RocksDB's assert usage in critical paths. SUJ_DCHECK is the
// audit variant for invariants too costly to test in optimized builds: it
// runs only without NDEBUG (Debug and the sanitizer builds).
//
// SUJ_LOG(severity) is the operational log: INFO for rare lifecycle
// events, WARN for degraded-but-serving conditions (the slow-request log
// uses this), ERROR for conditions an operator must act on. Messages
// below the threshold are filtered BEFORE their stream arguments are
// evaluated, so a disabled log line costs one branch. The threshold
// defaults to WARN (tests stay quiet), is overridable with the
// SUJ_LOG_LEVEL environment variable (debug|info|warn|error|off, or
// 0..4), and the sink is pluggable (SetLogSink) so servers can route
// the slow-request log into their own collection.

#ifndef SUJ_COMMON_LOGGING_H_
#define SUJ_COMMON_LOGGING_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

namespace suj {

[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line) {
  std::fprintf(stderr, "SUJ_CHECK failed: %s at %s:%d\n", expr, file, line);
  std::abort();
}

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

inline const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

/// Receives every emitted (already level-filtered) log message. Must be
/// callable from any thread.
using LogSink = void (*)(LogLevel level, const char* file, int line,
                         const std::string& message);

inline void DefaultLogSink(LogLevel level, const char* file, int line,
                           const std::string& message) {
  std::fprintf(stderr, "[%s] %s:%d %s\n", LogLevelName(level), file, line,
               message.c_str());
}

namespace internal {

inline LogLevel ParseLogLevel(const char* s, LogLevel fallback) {
  if (s == nullptr || *s == '\0') return fallback;
  if (std::strcmp(s, "debug") == 0 || std::strcmp(s, "0") == 0)
    return LogLevel::kDebug;
  if (std::strcmp(s, "info") == 0 || std::strcmp(s, "1") == 0)
    return LogLevel::kInfo;
  if (std::strcmp(s, "warn") == 0 || std::strcmp(s, "warning") == 0 ||
      std::strcmp(s, "2") == 0)
    return LogLevel::kWarn;
  if (std::strcmp(s, "error") == 0 || std::strcmp(s, "3") == 0)
    return LogLevel::kError;
  if (std::strcmp(s, "off") == 0 || std::strcmp(s, "none") == 0 ||
      std::strcmp(s, "4") == 0)
    return LogLevel::kOff;
  return fallback;
}

inline std::atomic<int>& LogThreshold() {
  static std::atomic<int> threshold{static_cast<int>(
      ParseLogLevel(std::getenv("SUJ_LOG_LEVEL"), LogLevel::kWarn))};
  return threshold;
}

inline std::atomic<LogSink>& LogSinkSlot() {
  static std::atomic<LogSink> sink{&DefaultLogSink};
  return sink;
}

}  // namespace internal

inline void SetLogLevel(LogLevel level) {
  internal::LogThreshold().store(static_cast<int>(level),
                                 std::memory_order_relaxed);
}

inline LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      internal::LogThreshold().load(std::memory_order_relaxed));
}

/// True when a message at `level` would be emitted. SUJ_LOG's filter.
inline bool LogEnabled(LogLevel level) {
  return level != LogLevel::kOff &&
         static_cast<int>(level) >=
             internal::LogThreshold().load(std::memory_order_relaxed);
}

/// Installs a new sink and returns the previous one (restore it when a
/// test-scoped capture ends). Thread-safe.
inline LogSink SetLogSink(LogSink sink) {
  return internal::LogSinkSlot().exchange(
      sink != nullptr ? sink : &DefaultLogSink, std::memory_order_acq_rel);
}

/// One in-flight log statement: collects the streamed message and hands
/// it to the installed sink on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() {
    internal::LogSinkSlot().load(std::memory_order_acquire)(
        level_, file_, line_, stream_.str());
  }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  const LogLevel level_;
  const char* const file_;
  const int line_;
  std::ostringstream stream_;
};

}  // namespace suj

#define SUJ_CHECK(expr)                                 \
  do {                                                  \
    if (!(expr)) ::suj::CheckFailed(#expr, __FILE__, __LINE__); \
  } while (0)

// Compiled out (but still type-checked) under NDEBUG.
#ifdef NDEBUG
#define SUJ_DCHECK(expr) \
  do {                   \
    if (false) {         \
      (void)(expr);      \
    }                    \
  } while (0)
#else
#define SUJ_DCHECK(expr) SUJ_CHECK(expr)
#endif

// Severity tokens accepted by SUJ_LOG. Token-pasted so call sites read
// SUJ_LOG(WARN) << ...; misspelled severities fail to compile.
#define SUJ_LOG_SEVERITY_DEBUG ::suj::LogLevel::kDebug
#define SUJ_LOG_SEVERITY_INFO ::suj::LogLevel::kInfo
#define SUJ_LOG_SEVERITY_WARN ::suj::LogLevel::kWarn
#define SUJ_LOG_SEVERITY_ERROR ::suj::LogLevel::kError

// Statement-shaped (usable as the body of an unbraced if) and filtered
// before argument evaluation: the for-loop runs the LogMessage exactly
// once when enabled, never otherwise.
#define SUJ_LOG(severity)                                                   \
  for (bool suj_log_once =                                                  \
           ::suj::LogEnabled(SUJ_LOG_SEVERITY_##severity);                  \
       suj_log_once; suj_log_once = false)                                  \
  ::suj::LogMessage(SUJ_LOG_SEVERITY_##severity, __FILE__, __LINE__).stream()

#endif  // SUJ_COMMON_LOGGING_H_
