// mdp_perfbench: runs one benchmark workload and prints its result.
//
//   mdp_perfbench --workload <sim_storm|threaded_loopback>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// stdout: one context line (seed, nproc, load average at start), then the
// result as the last line: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Every output-check violation is printed to stderr, counted as a
// failed operation, and makes the exit code 1. perfbench/run.py builds
// this binary and checks its metric names against BENCHMARK.json.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: mdp_perfbench --workload "
               "<sim_storm|threaded_loopback> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
}

double load_average_1m() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      have_seed = end && *end == '\0' && *val != '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      have_seconds = end && *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      opt.trace = std::strcmp(val, "1") == 0;
    } else {
      usage();
      return 2;
    }
  }
  const bool sim = opt.workload == "sim_storm";
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace ||
      !(sim || opt.workload == "threaded_loopback")) {
    usage();
    return 2;
  }

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"loadavg_1m\": %.2f}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      load_average_1m());
  std::fflush(stdout);

  const Result res = sim ? run_sim(opt) : run_threaded(opt);

  for (const std::string& v : res.violations)
    std::fprintf(stderr, "check failed: %s\n", v.c_str());
  std::printf("{\"summary\": {\"fail_frac\": %.17g, \"violations\": %zu}}\n",
              fail_frac(res.attempted, res.failed), res.violations.size());
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return res.failed == 0 ? 0 : 1;
}
