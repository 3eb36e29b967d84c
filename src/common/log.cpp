#include "common/log.hpp"

#include <cstdio>

#include "common/clock.hpp"
#include "common/time.hpp"

namespace ndsm {

const char* log_level_name(LogLevel level) {
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

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, const std::string& component, const std::string& message) {
  // Render the whole record into one buffer so concurrent/interleaved
  // writers emit whole lines, then hand it off in a single call.
  std::string line;
  line.reserve(32 + component.size() + message.size());
  const Time now = global_sim_time();
  if (now != kClockUnbound) {
    line += "[";
    line += format_time(now);
    line += "] ";
  }
  line += "[";
  line += log_level_name(level);
  line += "] ";
  line += component;
  line += ": ";
  line += message;
  if (sink_) {
    sink_(level, component, line);
    return;
  }
  line += "\n";
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace ndsm
