// Minimal levelled logging. Disabled levels cost one branch. Safe to call
// from any thread: sweep workers and the parallel event loop's shards log
// concurrently. The threshold is a relaxed atomic (a plain load on x86), and
// each message reaches stderr in a single stream insertion.

#ifndef HOTSTUFF1_COMMON_LOGGING_H_
#define HOTSTUFF1_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace hotstuff1 {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global log threshold; messages below it are dropped.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);
const char* LogLevelName(LogLevel level);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 protected:
  void Flush();

 private:
  LogLevel level_;
  bool flushed_ = false;
  std::ostringstream stream_;
};

/// Fatal variant: aborts after flushing.
class FatalLogMessage : public LogMessage {
 public:
  FatalLogMessage(const char* file, int line) : LogMessage(LogLevel::kError, file, line) {}
  [[noreturn]] ~FatalLogMessage();
};

}  // namespace internal

#define HS1_LOG(level)                                                     \
  if (::hotstuff1::LogLevel::level < ::hotstuff1::GetLogLevel()) {         \
  } else                                                                   \
    ::hotstuff1::internal::LogMessage(::hotstuff1::LogLevel::level,        \
                                      __FILE__, __LINE__)                  \
        .stream()

#define HS1_LOG_TRACE() HS1_LOG(kTrace)
#define HS1_LOG_DEBUG() HS1_LOG(kDebug)
#define HS1_LOG_INFO() HS1_LOG(kInfo)
#define HS1_LOG_WARN() HS1_LOG(kWarn)
#define HS1_LOG_ERROR() HS1_LOG(kError)

/// Invariant check that is active in all build types. Consensus safety bugs
/// must never be compiled out.
#define HS1_CHECK(cond)                                                     \
  if (cond) {                                                               \
  } else                                                                    \
    ::hotstuff1::internal::FatalLogMessage(__FILE__, __LINE__).stream()     \
        << "Check failed: " #cond " "

#define HS1_CHECK_EQ(a, b) HS1_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define HS1_CHECK_NE(a, b) HS1_CHECK((a) != (b))
#define HS1_CHECK_LE(a, b) HS1_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define HS1_CHECK_LT(a, b) HS1_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define HS1_CHECK_GE(a, b) HS1_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

}  // namespace hotstuff1

#endif  // HOTSTUFF1_COMMON_LOGGING_H_
