#pragma once
// Leveled logger with pluggable sinks and virtual-time timestamps. Default
// threshold is kWarn so tests and benches stay quiet; examples raise it to
// kInfo.
//
// Each record is rendered into one buffer and handed to the sink as a
// single complete line ("[12.345s] [INFO] milan: ..."), so interleaved
// writers never shear a line. The default sink writes to stderr; set_sink
// re-routes records (e.g. into the obs tracer via obs::trace_log_sink, or
// a file). Timestamps use the bound simulator clock (common/clock) and are
// omitted when no simulator is live.

#include <functional>
#include <sstream>
#include <string>

namespace ndsm {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

[[nodiscard]] const char* log_level_name(LogLevel level);

class Logger {
 public:
  // Receives the record's level/component plus the fully rendered line
  // (timestamp + level + component + message, no trailing newline).
  using Sink =
      std::function<void(LogLevel, const std::string& component, const std::string& line)>;

  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  // Replace the output sink; an empty sink restores the stderr default.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  void write(LogLevel level, const std::string& component, const std::string& message);

 private:
  LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
};

#define NDSM_LOG(level, component, expr)                                 \
  do {                                                                   \
    if (::ndsm::Logger::instance().enabled(level)) {                     \
      std::ostringstream ndsm_log_os_;                                   \
      ndsm_log_os_ << expr;                                              \
      ::ndsm::Logger::instance().write(level, component, ndsm_log_os_.str()); \
    }                                                                    \
  } while (0)

#define NDSM_DEBUG(component, expr) NDSM_LOG(::ndsm::LogLevel::kDebug, component, expr)
#define NDSM_INFO(component, expr) NDSM_LOG(::ndsm::LogLevel::kInfo, component, expr)
#define NDSM_WARN(component, expr) NDSM_LOG(::ndsm::LogLevel::kWarn, component, expr)
#define NDSM_ERROR(component, expr) NDSM_LOG(::ndsm::LogLevel::kError, component, expr)

}  // namespace ndsm
