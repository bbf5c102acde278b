// Minimal logging: warnings and errors to stderr, plus the always-on check
// macros. Safe to call from any thread: sweep workers and the parallel event
// loop's shards log concurrently, and each message reaches stderr in a
// single stream insertion.

#ifndef HOTSTUFF1_COMMON_LOGGING_H_
#define HOTSTUFF1_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace hotstuff1 {
namespace internal {

/// One message, prefixed "[LEVEL file:line] "; written to stderr whole when
/// it goes out of scope.
class LogMessage {
 public:
  LogMessage(const char* level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 protected:
  void Flush();

 private:
  bool flushed_ = false;
  std::ostringstream stream_;
};

/// Fatal variant: aborts after flushing.
class FatalLogMessage : public LogMessage {
 public:
  FatalLogMessage(const char* file, int line) : LogMessage("ERROR", file, line) {}
  [[noreturn]] ~FatalLogMessage();
};

}  // namespace internal

#define HS1_LOG_WARN() \
  ::hotstuff1::internal::LogMessage("WARN", __FILE__, __LINE__).stream()
#define HS1_LOG_ERROR() \
  ::hotstuff1::internal::LogMessage("ERROR", __FILE__, __LINE__).stream()

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
