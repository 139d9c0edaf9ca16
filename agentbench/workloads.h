// The benchmark's four workloads (build, andrew, clients, echo) and the
// world-level helpers the self-test reuses to get real program outputs.
#ifndef AGENTBENCH_WORKLOADS_H_
#define AGENTBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agentbench/checks.h"
#include "agentbench/common.h"

namespace agentbench {

// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// How a workload's process is placed on the host. It is confined to one CPU
// per concurrently runnable client (build, andrew and echo run one at a time
// or as a chain of hand-offs, clients runs two at once): on a shared virtual
// machine a hand-off between CPUs waits until the target CPU is scheduled
// again, which made unconfined timings vary several-fold between runs.
// build also runs under SCHED_BATCH: every big-lock call wakes the processes
// asleep in wait4, and under the default policy whether those wakes preempt
// the caller flipped from run to run (about 0.8 or 1.4 voluntary context
// switches per call), taking the make from 27-41 to 59-67 ms. Without
// wake-up preemption it makes about 0.05 switches per call and tracks the
// host; build therefore does not measure the cost of those wake-ups, which
// andrew and echo, under the default policy, do.
struct Placement {
  int cpus = 1;
  bool batch = false;
};
Placement WorkloadPlacement(const std::string& name);

// Runs `options.workload` for `options.seconds` and reports its end-to-end
// metrics (or, with options.trace, its per-layer metrics).
RunResult RunWorkload(const Options& options);

// --- inputs and single operations, shared with the self-test ------------------
struct BuildInputs {
  Tree files;                        // relative to kBuildDir
  std::vector<std::string> targets;  // the Makefile's targets
};
BuildInputs GenerateBuildInputs(uint64_t seed);

struct BuildOutcome {
  int status = -1;
  Tree tree;              // the build directory after the make
  std::string trace_log;  // empty for the agent-free build
  SyscallCounts calls{};  // kernel per-number call deltas over the make
};
// One make in a fresh world, under timex+union+trace or without agents.
BuildOutcome RunBuildOnce(const BuildInputs& inputs, bool with_agents);

struct AndrewInputs {
  Tree source;  // relative to kAndrewSource
};
AndrewInputs GenerateAndrewInputs(uint64_t seed);

struct AndrewOutcome {
  int status = -1;
  int64_t calls = 0;  // kernel calls over the pass
  Tree copy;          // the copied tree, MAKELOG removed
  std::string makelog;
  std::string dfs_log;
  std::vector<ia::KtraceRecord> ktrace;
  uint64_t dropped = 0;
  int64_t dfs_records = 0;
};
// One Andrew pass in a fresh world under dfs_trace with the ktrace ring sink.
AndrewOutcome RunAndrewOnce(const AndrewInputs& inputs);

extern const char* const kDfsLogPath;

}  // namespace agentbench

#endif  // AGENTBENCH_WORKLOADS_H_
