// agentbench: runs one workload of the agent-system benchmark and prints its
// metrics as one JSON object on the last line of standard output.
//
//   agentbench --workload <build|andrew|clients|echo> --seed <n> --seconds <s>
//              --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics of a traced run of the same workload. Failed correctness
// checks are listed on standard error and make "correct" false.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "agentbench/workloads.h"

namespace {

// Taken during static initialization, before main(): the cold set-up time
// runs from here.
const int64_t kProcessStartNs = agentbench::NowNs();

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <build|andrew|clients|echo> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               argv0);
  return 2;
}

// Confines this process (and every thread it starts later) to `n` of the
// CPUs it may run on, starting with the one it runs on now, so that the
// confinement itself does not move it to another CPU.
void ConfineToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  const int here = std::max(sched_getcpu(), 0);
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int i = 0; i < CPU_SETSIZE && n > 0; ++i) {
    const int cpu = (here + i) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      --n;
    }
  }
  sched_setaffinity(0, sizeof(chosen), &chosen);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  agentbench::Options options;
  options.main_start_ns = kProcessStartNs;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_workload || !(options.seconds > 0)) {
    return PrintUsage(argv[0]);
  }
  bool known = false;
  for (const std::string& name : agentbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }

  const agentbench::Placement placement = agentbench::WorkloadPlacement(options.workload);
  ConfineToCpus(placement.cpus);
  if (placement.batch) {
    const sched_param param{};
    sched_setscheduler(0, SCHED_BATCH, &param);
  }
  const agentbench::RunResult result = agentbench::RunWorkload(options);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const agentbench::Metric& m : result.metrics.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
