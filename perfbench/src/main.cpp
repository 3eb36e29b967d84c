// perfbench: runs one workload and prints its result as the last
// line of standard output.
//
//   perfbench --workload <replfs-udp|mazewar-sim|field-sim|scale-sim>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// A fingerprint line precedes the result. The exit code is 0 only when
// every correctness check of the workload passed.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <replfs-udp|mazewar-sim|field-sim|scale-sim> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val);
    } else if (key == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds < 1) return usage();
  ndsm::Logger::instance().set_level(ndsm::LogLevel::kWarn);
  pin_to_current_cpu();

  Report report;
  if (opt.workload == "replfs-udp") {
    report = run_replfs_udp(opt);
  } else if (opt.workload == "mazewar-sim") {
    report = run_mazewar_sim(opt);
  } else if (opt.workload == "field-sim") {
    report = run_field_sim(opt);
  } else if (opt.workload == "scale-sim") {
    report = run_scale_sim(opt);
  } else {
    return usage();
  }

  for (const Metric& m : report.metrics) {
    report.check(std::isfinite(m.value), m.name + " is finite");
  }
  report.check(report.attempted > 0, "at least one op attempted");

  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());

  std::string fp = "{\"fingerprint\": {\"workload\": " + json_string(opt.workload) +
                   ", \"seed\": " + std::to_string(opt.seed) +
                   ", \"seconds\": " + std::to_string(opt.seconds) +
                   ", \"trace\": " + (opt.trace ? "1" : "0") +
                   ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                   ", \"compiler\": " + json_string(compiler()) +
                   ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                   ", \"program_tracer\": " +
                   (ndsm::obs::Tracer::instance().enabled() ? "\"on\"" : "\"off\"");
  for (const auto& [key, value] : report.fingerprint) fp += ", " + json_string(key) + ": " + value;
  std::printf("%s}}\n", fp.c_str());

  std::string line = "{\"correct\": " + std::string(report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", std::isfinite(m.value) ? m.value : 0.0);
    line += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
