#include "common/logging.h"

#include <atomic>

namespace hotstuff1 {

namespace {
// Relaxed: the level orders no other memory, it only gates output.
std::atomic<LogLevel> g_level{LogLevel::kWarn};
}  // namespace

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }
void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  // Strip directories from __FILE__ for terse output.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LogLevelName(level) << " " << base << ":" << line << "] ";
}

void LogMessage::Flush() {
  if (flushed_) return;
  flushed_ = true;
  stream_ << "\n";
  std::cerr << stream_.str();
  std::cerr.flush();
  (void)level_;
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
