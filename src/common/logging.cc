#include "common/logging.h"

namespace hotstuff1 {
namespace internal {

LogMessage::LogMessage(const char* level, const char* file, int line) {
  // Strip directories from __FILE__ for terse output.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << level << " " << base << ":" << line << "] ";
}

void LogMessage::Flush() {
  if (flushed_) return;
  flushed_ = true;
  stream_ << "\n";
  std::cerr << stream_.str();
  std::cerr.flush();
}

LogMessage::~LogMessage() { Flush(); }

FatalLogMessage::~FatalLogMessage() {
  // The derived destructor runs before the base one; flush explicitly so
  // the message reaches stderr before the abort.
  Flush();
  std::abort();
}

}  // namespace internal
}  // namespace hotstuff1
