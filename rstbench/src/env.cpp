#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace rstbench {

std::vector<std::string> rst_env_vars_set() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "RST_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
    }
  }
  return names;
}

bool release_build() { return std::string_view{RSTBENCH_BUILD_TYPE} == "Release"; }

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image. getrusage's
  // ru_maxrss would also count the parent's pages copied by fork before exec.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned campaign_threads() { return 1; }

std::string environment_json(const Options& opt, unsigned engine_threads) {
  const char* commit = std::getenv("RSTBENCH_COMMIT");
  std::ostringstream out;
  out << "{\"nproc\": " << std::max(1u, std::thread::hardware_concurrency())
      << ", \"compiler\": \"" << RSTBENCH_CXX_ID << ' ' << RSTBENCH_CXX_VERSION
      << "\", \"build_type\": \"" << RSTBENCH_BUILD_TYPE << "\", \"commit\": \""
      << (commit ? commit : "unknown") << "\", \"workload\": \"" << opt.workload
      << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"threads\": {\"trial\": 1, \"engine\": "
      << engine_threads << "}, \"rst_env_set\": [";
  const auto vars = rst_env_vars_set();
  for (std::size_t i = 0; i < vars.size(); ++i) out << (i ? ", " : "") << '"' << vars[i] << '"';
  out << "]}";
  return out.str();
}

}  // namespace rstbench
