#include "agentbench/workloads.h"

#include <algorithm>

#include "src/agents/dfs_trace.h"
#include "src/agents/retry.h"
#include "src/agents/timex.h"
#include "src/agents/trace.h"
#include "src/agents/union_fs.h"
#include "src/apps/apps.h"
#include "src/apps/batch.h"
#include "src/base/prng.h"
#include "src/base/strings.h"
#include "src/kernel/syscall_table.h"

namespace agentbench {

const char* const kDfsLogPath = "/var/log/dfs.log";

namespace {

using ia::AgentRef;
using ia::Kernel;
using ia::ProcessContext;

constexpr const char* kBuildDir = "/home/src";
constexpr const char* kTraceLogPath = "/var/log/trace.log";
constexpr const char* kAndrewSource = "/usr/andrew";
constexpr const char* kAndrewWork = "/tmp/andrew";
constexpr const char* kEchoSocket = "/tmp/echo.sock";
constexpr int64_t kTimexOffset = 315360000;  // ten years
constexpr int kClients = 2;
constexpr int kEchoBytes = 256;
constexpr int kEchoRequests = 32;  // distinct requests per client, cycled
constexpr int kReferenceRounds = 200;
// Rounds per client in one block (one loader run) of clients and echo: about
// 0.12 and 0.2 seconds on the development host, so that a run holds about a
// hundred blocks.
constexpr int64_t kClientsBlockRounds = 16000;
constexpr int64_t kEchoBlockRounds = 4000;

// Rows whose time is mostly spent asleep waiting for another process; their
// time is kept out of kernel.self_ms (it is reported per row instead).
const std::vector<int>& WaitRows() {
  static const std::vector<int> rows = {ia::kSysWait4, ia::kSysSigpause, ia::kSysAccept,
                                        ia::kSysRecv, ia::kSysRecvfrom};
  return rows;
}

// The rows reported as kernel.ns_per_call.<row>.
const std::vector<int>& ReportedRows() {
  static const std::vector<int> rows = {
      ia::kSysGetpid, ia::kSysGettimeofday, ia::kSysOpen,  ia::kSysClose,
      ia::kSysRead,   ia::kSysWrite,        ia::kSysLseek, ia::kSysFstat,
      ia::kSysStat,   ia::kSysLstat,        ia::kSysMkdir, ia::kSysGetdirentries,
      ia::kSysFork,   ia::kSysExecve,       ia::kSysExit,  ia::kSysWait4,
      ia::kSysAccept, ia::kSysConnect,      ia::kSysSend,  ia::kSysRecv};
  return rows;
}

const std::vector<std::string>& AgentNames() {
  static const std::vector<std::string> names = {"timex", "union", "trace", "dfs_trace",
                                                 "retry"};
  return names;
}

std::string RowName(int number) { return std::string(ia::SyscallSpecOf(number).name); }

bool ExitedZero(int status) { return status >= 0 && ia::WifExited(status) && ia::WExitStatus(status) == 0; }

// --- worlds --------------------------------------------------------------------

struct SetupSpans {
  double kernel_ms = 0;
  double programs_ms = 0;
  double inputs_ms = 0;
};

ia::KernelConfig WorldConfig() {
  ia::KernelConfig config;
  config.compute_spin_scale = 0;  // all timed work is the program's own
  return config;
}

// Boots one world: kernel, standard programs, then the workload's inputs.
std::unique_ptr<Kernel> BootWorld(const std::function<void(Kernel&)>& install,
                                  SetupSpans* spans = nullptr) {
  const int64_t t0 = NowNs();
  auto kernel = std::make_unique<Kernel>(WorldConfig());
  const int64_t t1 = NowNs();
  ia::InstallStandardPrograms(*kernel);
  const int64_t t2 = NowNs();
  kernel->fs().MkdirAll("/var/log");
  install(*kernel);
  const int64_t t3 = NowNs();
  if (spans != nullptr) {
    spans->kernel_ms = static_cast<double>(t1 - t0) / 1e6;
    spans->programs_ms = static_cast<double>(t2 - t1) / 1e6;
    spans->inputs_ms = static_cast<double>(t3 - t2) / 1e6;
  }
  return kernel;
}

void InstallTree(Kernel& kernel, const std::string& root, const Tree& tree) {
  kernel.fs().MkdirAll(root);
  for (const auto& [rel, contents] : tree) {
    const std::string full = ia::path::JoinPath(root, rel);
    if (!rel.empty() && rel.back() == '/') {
      kernel.fs().MkdirAll(full.substr(0, full.size() - 1));
    } else {
      kernel.fs().InstallFile(full, contents);
    }
  }
}

int RunBody(Kernel& kernel, std::function<int(ProcessContext&)> body) {
  ia::SpawnOptions options;
  options.body = std::move(body);
  return kernel.HostWaitPid(kernel.Spawn(options));
}

void WalkTree(ProcessContext& ctx, const std::string& dir, const std::string& rel, Tree* tree) {
  std::vector<std::string> names;
  if (ctx.ListDirectory(dir, &names) < 0) {
    return;
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    if (name == "." || name == "..") {
      continue;
    }
    const std::string full = ia::path::JoinPath(dir, name);
    ia::Stat st;
    if (ctx.Lstat(full, &st) < 0) {
      continue;
    }
    if (ia::SIsDir(st.st_mode)) {
      (*tree)[rel + name + "/"] = "";
      WalkTree(ctx, full, rel + name + "/", tree);
    } else {
      std::string contents;
      ctx.ReadWholeFile(full, &contents);
      (*tree)[rel + name] = std::move(contents);
    }
  }
}

// Reads a directory tree of a world through an ordinary process.
Tree Snapshot(Kernel& kernel, const std::string& dir) {
  Tree tree;
  RunBody(kernel, [&](ProcessContext& ctx) {
    WalkTree(ctx, dir, "", &tree);
    return 0;
  });
  return tree;
}

std::string ReadWorldFile(Kernel& kernel, const std::string& path) {
  std::string contents;
  RunBody(kernel, [&](ProcessContext& ctx) { return ctx.ReadWholeFile(path, &contents) < 0; });
  return contents;
}

// --- accumulators ------------------------------------------------------------------

// Counter snapshot of one world, for deltas.
struct WorldMark {
  SyscallCounts calls{};
  ia::NameCacheStats cache;
  Kernel::RouteCacheStats routes;

  static WorldMark Of(Kernel& kernel) {
    return WorldMark{CallCounts(kernel), kernel.CacheStats(), kernel.RouteStats()};
  }
};

// Kernel counter deltas summed over the worlds of the untraced half.
struct Counters {
  SyscallCounts calls{};
  int64_t cache_lookups = 0;
  int64_t cache_hits = 0;
  int64_t route_lookups = 0;
  int64_t route_builds = 0;

  void Add(Kernel& kernel, const WorldMark& before) {
    const WorldMark after = WorldMark::Of(kernel);
    const SyscallCounts delta = Minus(after.calls, before.calls);
    for (size_t i = 0; i < calls.size(); ++i) {
      calls[i] += delta[i];
    }
    const auto hits = [](const ia::NameCacheStats& s) {
      return static_cast<int64_t>(s.hits + s.negative_hits);
    };
    const auto lookups = [](const ia::NameCacheStats& s) {
      return static_cast<int64_t>(s.hits + s.negative_hits + s.misses);
    };
    cache_hits += hits(after.cache) - hits(before.cache);
    cache_lookups += lookups(after.cache) - lookups(before.cache);
    route_lookups += after.routes.lookups - before.routes.lookups;
    route_builds += after.routes.builds - before.routes.builds;
  }
};

// The timed phase: the operations and the blocks that were measured. A block
// is one measured interval of whole operations: one make or pass (build,
// andrew), one loader run of a fixed number of rounds per client (clients,
// echo). After each block the host-speed gauge is read once, and the block's
// times go into the samples scaled to the reference host speed; busy_s and
// usage keep the times as measured.
struct Timed {
  Samples op_ms;        // time of each operation, scaled
  Samples block_rate;   // application calls per scaled second of each block
  Samples block_cpu_s;  // scaled CPU seconds per operation of each block
  Samples gauge_ms;     // the gauge reading after each block
  int64_t ops = 0;
  double busy_s = 0;  // wall seconds inside blocks
  Usage usage;        // CPU and context switches inside blocks
  int64_t app_calls = 0;

  // Records a block of `block_ops` operations that issued `calls`
  // application calls, and returns the scale for its operation times.
  double AddBlock(int64_t block_ops, int64_t calls, double wall_s, const Usage& used) {
    const double gauge = HostGauge::MeasureMs();
    const double scale = HostGauge::Scale(gauge);
    gauge_ms.Add(gauge);
    ops += block_ops;
    app_calls += calls;
    busy_s += wall_s;
    usage += used;
    if (wall_s > 0 && block_ops > 0) {
      block_rate.Add(static_cast<double>(calls) / (wall_s * scale));
      block_cpu_s.Add((used.user_s + used.sys_s) * scale / static_cast<double>(block_ops));
    }
    return scale;
  }
};

// Probes around an agent stack: probes[0] nearest the kernel, probes.back()
// outermost. The same probes serve every world of a phase, so their tallies
// sum over the phase.
class ProbeStack {
 public:
  explicit ProbeStack(size_t agents) {
    for (size_t i = 0; i <= agents; ++i) {
      probes_.push_back(std::make_shared<ProbeAgent>(i == agents));
    }
  }

  // agents[0] nearest the kernel; returns the stack with probes interleaved.
  std::vector<AgentRef> Interleave(const std::vector<AgentRef>& agents) const {
    std::vector<AgentRef> stack;
    for (size_t i = 0; i < probes_.size(); ++i) {
      stack.push_back(probes_[i]);
      if (i < agents.size()) {
        stack.push_back(agents[i]);
      }
    }
    return stack;
  }

  const std::vector<ProbeRef>& probes() const { return probes_; }

 private:
  std::vector<ProbeRef> probes_;
};

int64_t ProbeNs(const ProbeAgent& p) {
  int64_t ns = 0;
  for (int n = 0; n < ia::kMaxSyscall; ++n) {
    ns += p.ns(n);
  }
  return ns;
}

int64_t ProbeCalls(const ProbeAgent& p) {
  int64_t calls = 0;
  for (int n = 0; n < ia::kMaxSyscall; ++n) {
    calls += p.calls(n);
  }
  return calls;
}

// Every per-layer metric, zero until measured: a layer a workload does not
// exercise reads 0.
void ReportLayerDefaults(Report* r) {
  for (const char* name : {"setup.kernel_ms", "setup.programs_ms", "setup.inputs_ms"}) {
    r->Set(name, 0, "ms");
  }
  r->Set("apps.run_ms", 0, "ms");
  r->Set("apps.self_ms", 0, "ms");
  r->Set("apps.calls", 0, "count");
  r->Set("frames.self_ms", 0, "ms");
  r->Set("frames.downcalls_per_call", 0, "ratio");
  r->Set("frames.fork_us", 0, "us");
  r->Set("frames.execve_us", 0, "us");
  for (const std::string& agent : AgentNames()) {
    r->Set("agent." + agent + ".self_ms", 0, "ms");
  }
  r->Set("kernel.self_ms", 0, "ms");
  for (const int row : ReportedRows()) {
    r->Set("kernel.ns_per_call." + RowName(row), 0, "ns");
  }
  for (const char* name : {"kernel.calls.per_process", "kernel.calls.vfs_read",
                           "kernel.calls.locked", "kernel.processes", "namecache.lookups"}) {
    r->Set(name, 0, "count");
  }
  r->Set("namecache.hit_ratio", 0, "ratio");
  r->Set("routes.hit_ratio", 0, "ratio");
  r->Set("ring.ns_per_entry", 0, "ns");
  r->Set("sync.ns_per_call", 0, "ns");
  r->Set("faults.injected", 0, "count");
  r->Set("retry.reissues", 0, "count");
  r->Set("retry.reissues_per_op", 0, "ratio");
  r->Set("ktrace.records", 0, "count");
  r->Set("dfs.records", 0, "count");
  r->Set("host.vcsw_per_call", 0, "ratio");
  r->Set("host.user_s", 0, "s");
  r->Set("host.sys_s", 0, "s");
  r->Set("host.gauge_ms", 0, "ms");
  r->Set("untraced.op_p50_ms", 0, "ms");
  r->Set("traced.op_p50_ms", 0, "ms");
}

void ReportSetup(const SetupSpans& spans, Report* r) {
  r->Set("setup.kernel_ms", spans.kernel_ms, "ms");
  r->Set("setup.programs_ms", spans.programs_ms, "ms");
  r->Set("setup.inputs_ms", spans.inputs_ms, "ms");
}

// Per-layer metrics from the untraced half: kernel counters and host usage.
void ReportCounters(const Counters& c, const Timed& timed, Report* r) {
  int64_t per_process = 0;
  int64_t vfs_read = 0;
  int64_t locked = 0;
  for (int n = 0; n < ia::kMaxSyscall; ++n) {
    const uint32_t flags = ia::SyscallSpecOf(n).flags;
    const int64_t calls = c.calls[static_cast<size_t>(n)];
    if ((flags & ia::kPerProcess) != 0) {
      per_process += calls;
    } else if ((flags & ia::kVfsRead) != 0) {
      vfs_read += calls;
    } else {
      locked += calls;
    }
  }
  r->Set("kernel.calls.per_process", static_cast<double>(per_process), "count");
  r->Set("kernel.calls.vfs_read", static_cast<double>(vfs_read), "count");
  r->Set("kernel.calls.locked", static_cast<double>(locked), "count");
  r->Set("kernel.processes", static_cast<double>(c.calls[ia::kSysFork]), "count");
  r->Set("namecache.lookups", static_cast<double>(c.cache_lookups), "count");
  r->Set("namecache.hit_ratio",
         c.cache_lookups > 0 ? static_cast<double>(c.cache_hits) / c.cache_lookups : 0, "ratio");
  r->Set("routes.hit_ratio",
         c.route_lookups > 0 ? 1.0 - static_cast<double>(c.route_builds) / c.route_lookups : 0,
         "ratio");
  r->Set("host.vcsw_per_call",
         timed.app_calls > 0 ? static_cast<double>(timed.usage.nvcsw) / timed.app_calls : 0,
         "ratio");
  r->Set("host.user_s", timed.usage.user_s, "s");
  r->Set("host.sys_s", timed.usage.sys_s, "s");
  r->Set("host.gauge_ms", Median(timed.gauge_ms.kept()), "ms");
  r->Set("untraced.op_p50_ms", Median(timed.op_ms.kept()), "ms");
}

// Per-layer metrics from the probed half. `agents` names the agent between
// probes[i] and probes[i+1].
void ReportProbes(const ProbeStack& stack, const std::vector<std::string>& agents,
                  const Timed& traced, Report* r) {
  const std::vector<ProbeRef>& probes = stack.probes();
  const ProbeAgent& inner = *probes.front();
  const ProbeAgent& outer = *probes.back();
  r->Set("traced.op_p50_ms", Median(traced.op_ms.kept()), "ms");
  r->Set("apps.run_ms", traced.busy_s * 1e3, "ms");
  r->Set("apps.self_ms", static_cast<double>(outer.app_gap_ns()) / 1e6, "ms");
  const int64_t outer_calls = ProbeCalls(outer);
  r->Set("apps.calls", static_cast<double>(outer_calls), "count");
  r->Set("frames.self_ms", static_cast<double>(ProbeNs(outer) - ProbeNs(inner)) / 1e6, "ms");
  r->Set("frames.downcalls_per_call",
         outer_calls > 0 ? static_cast<double>(ProbeCalls(inner)) / outer_calls : 0, "ratio");
  const auto frame_us = [&](int row) {
    const int64_t calls = outer.calls(row);
    return calls > 0 ? static_cast<double>(outer.ns(row) - inner.ns(row)) / calls / 1e3 : 0;
  };
  r->Set("frames.fork_us", frame_us(ia::kSysFork), "us");
  r->Set("frames.execve_us", frame_us(ia::kSysExecve), "us");
  for (size_t i = 0; i < agents.size(); ++i) {
    r->Set("agent." + agents[i] + ".self_ms",
           static_cast<double>(ProbeNs(*probes[i + 1]) - ProbeNs(*probes[i])) / 1e6, "ms");
  }
  int64_t kernel_ns = 0;
  for (int n = 0; n < ia::kMaxSyscall; ++n) {
    if (std::find(WaitRows().begin(), WaitRows().end(), n) == WaitRows().end()) {
      kernel_ns += inner.ns(n);
    }
  }
  r->Set("kernel.self_ms", static_cast<double>(kernel_ns) / 1e6, "ms");
  for (const int row : ReportedRows()) {
    const int64_t calls = inner.calls(row);
    r->Set("kernel.ns_per_call." + RowName(row),
           calls > 0 ? static_cast<double>(inner.ns(row)) / calls : 0, "ns");
  }
}

// `cpu_ops` is the workload's fixed operation count for cpu_s: the CPU one
// operation costs, scaled to that count, so that cpu_s moves with the cost of
// an operation rather than with the length of the run. Every time is at the
// reference host speed (see Timed).
void ReportEndToEnd(double setup_s, const Timed& timed, double cpu_ops, Report* r) {
  r->Set("setup_s", setup_s, "s");
  r->Set("calls_per_s", Median(timed.block_rate.kept()), "calls/s");
  r->Set("op_p50_ms", Median(timed.op_ms.kept()), "ms");
  r->Set("cpu_s", Median(timed.block_cpu_s.kept()) * cpu_ops, "s");
  r->Set("rss_mb", PeakRssMb(), "MB");
}

double SetupSeconds(const Options& options) {
  return static_cast<double>(NowNs() - options.main_start_ns) / 1e9;
}

// Runs `op` until `seconds` of wall time have passed (at least once).
void RepeatFor(double seconds, const std::function<void()>& op) {
  const int64_t start = NowNs();
  do {
    op();
  } while (static_cast<double>(NowNs() - start) / 1e9 < seconds);
}

// ==================================================================================
// build: make of 8 generated C programs under timex+union+trace.
// ==================================================================================

std::vector<AgentRef> BuildAgents() {
  const std::vector<ia::UnionMount> mounts = {{"/union", {"/usr/lib", "/usr/bin"}}};
  return {std::make_shared<ia::TimexAgent>(kTimexOffset), std::make_shared<ia::UnionAgent>(mounts),
          std::make_shared<ia::TraceAgent>(ia::TraceOptions{.log_path = kTraceLogPath})};
}

ia::SpawnOptions BuildSpawn() {
  ia::SpawnOptions spawn;
  spawn.path = "/bin/make";
  spawn.argv = {"make"};
  spawn.cwd = kBuildDir;
  return spawn;
}

struct BuildReference {
  Tree tree;
  SyscallCounts trace_expect{};  // per-number entries the trace log must hold
  int64_t calls = 0;             // application calls of one make
};

// Checks one make's outputs against the agent-free reference.
std::string CheckBuild(const BuildOutcome& got, const BuildInputs& inputs,
                       const BuildReference& ref) {
  if (!ExitedZero(got.status)) {
    return ia::StringPrintf("build: make exited with status %#x", got.status);
  }
  std::string error = CheckBuildImages(got.tree, inputs.targets);
  if (error.empty()) {
    error = CheckTreesEqual(got.tree, ref.tree, "build output vs agent-free build");
  }
  if (error.empty()) {
    error = CheckTraceCounts(got.trace_log, ref.trace_expect);
  }
  return error;
}

// Where one operation's measurements go; every part is optional.
struct Meter {
  Timed* timed = nullptr;
  Counters* counters = nullptr;
  const ProbeStack* probes = nullptr;
  int64_t calls = 0;  // application calls of one operation
};

// Spawns `spawn` under `agents` (none: directly) and records the
// spawn-to-reap interval into `meter` as one operation and one block.
// Returns the wait status.
int TimedRun(Kernel& kernel, const std::vector<AgentRef>& agents, const ia::SpawnOptions& spawn,
             const Meter& meter) {
  const std::vector<AgentRef> stack =
      meter.probes != nullptr ? meter.probes->Interleave(agents) : agents;
  const Usage u0 = Usage::Now();
  const int64_t t0 = NowNs();
  const int status = stack.empty() ? kernel.HostWaitPid(kernel.Spawn(spawn))
                                   : ia::RunUnderAgents(kernel, stack, spawn);
  if (meter.timed != nullptr) {
    const double ms = MsSince(t0);
    const Usage used = Usage::Now() - u0;
    meter.timed->op_ms.Add(ms * meter.timed->AddBlock(1, meter.calls, ms / 1e3, used));
  }
  return status;
}

// One make in a fresh world, under timex+union+trace or without agents.
BuildOutcome MakeInFreshWorld(const BuildInputs& inputs, bool with_agents, const Meter& meter) {
  std::unique_ptr<Kernel> k =
      BootWorld([&inputs](Kernel& kernel) { InstallTree(kernel, kBuildDir, inputs.files); });
  const WorldMark mark = WorldMark::Of(*k);
  BuildOutcome out;
  out.status = TimedRun(*k, with_agents ? BuildAgents() : std::vector<AgentRef>{}, BuildSpawn(),
                        meter);
  out.calls = Minus(CallCounts(*k), mark.calls);
  if (meter.counters != nullptr) {
    meter.counters->Add(*k, mark);
  }
  out.tree = Snapshot(*k, kBuildDir);
  if (with_agents) {
    out.trace_log = ReadWorldFile(*k, kTraceLogPath);
  }
  return out;
}

RunResult RunBuild(const Options& options) {
  constexpr double kCpuOps = 100;  // makes
  RunResult result;
  const BuildInputs inputs = GenerateBuildInputs(options.seed);

  // Cold set-up: the first world of the process.
  SetupSpans spans;
  BootWorld([&inputs](Kernel& k) { InstallTree(k, kBuildDir, inputs.files); }, &spans);
  const double setup_s = SetupSeconds(options);

  // Untimed agent-free reference make.
  BuildReference ref;
  {
    const BuildOutcome bare = MakeInFreshWorld(inputs, false, Meter{});
    ref.tree = bare.tree;
    ref.calls = Total(bare.calls);
    ref.trace_expect = bare.calls;
    ref.trace_expect[ia::kSysExecve] += 1;  // the agent loader's exec of make
    result.Fail(ExitedZero(bare.status) ? CheckBuildImages(ref.tree, inputs.targets)
                                        : "build: agent-free make failed");
  }

  // One operation: a make under the agents in a fresh world.
  const auto op = [&](Meter meter) {
    meter.calls = ref.calls;
    const BuildOutcome got = MakeInFreshWorld(inputs, true, meter);
    ++result.attempted;
    if (!ExitedZero(got.status)) {
      ++result.failed;
    }
    result.Fail(CheckBuild(got, inputs, ref));
  };

  Report& r = result.metrics;
  Timed timed;
  if (!options.trace) {
    RepeatFor(options.seconds, [&] { op(Meter{&timed}); });
    ReportEndToEnd(setup_s, timed, kCpuOps, &r);
    return result;
  }
  ReportLayerDefaults(&r);
  ReportSetup(spans, &r);
  Counters counters;
  RepeatFor(options.seconds / 2, [&] { op(Meter{&timed, &counters}); });
  ReportCounters(counters, timed, &r);
  const ProbeStack probes(3);
  Timed traced;
  RepeatFor(options.seconds / 2, [&] { op(Meter{&traced, nullptr, &probes}); });
  ReportProbes(probes, {"timex", "union", "trace"}, traced, &r);
  return result;
}

// ==================================================================================
// andrew: five-phase Andrew pass under dfs_trace with the ktrace ring sink.
// ==================================================================================

ia::SpawnOptions AndrewSpawn() {
  ia::SpawnOptions spawn;
  spawn.path = "/usr/bin/andrew";
  spawn.argv = {"andrew", kAndrewSource, kAndrewWork};
  return spawn;
}

std::string CheckAndrew(const AndrewOutcome& got, const AndrewInputs& inputs,
                        const AndrewFigures& figures, bool traced) {
  if (!ExitedZero(got.status)) {
    return ia::StringPrintf("andrew: exited with status %#x", got.status);
  }
  std::string error = CheckTreesEqual(got.copy, inputs.source, "andrew copy vs source");
  if (error.empty()) {
    error = CheckMakelog(got.makelog, figures);
  }
  if (error.empty() && traced) {
    error = CheckDfsAgainstKtrace(got.dfs_log, got.ktrace, kDfsLogPath, got.dropped);
  }
  return error;
}

// One Andrew pass in a fresh world: traced (dfs_trace plus the ktrace ring
// sink on the file-reference slot) or bare.
AndrewOutcome PassInFreshWorld(const AndrewInputs& inputs, bool traced, const Meter& meter) {
  std::unique_ptr<Kernel> k = BootWorld(
      [&inputs](Kernel& kernel) { InstallTree(kernel, kAndrewSource, inputs.source); });
  ia::RingKtraceSink sink(1 << 16);
  std::vector<AgentRef> agents;
  std::shared_ptr<ia::DfsTraceAgent> dfs;
  if (traced) {
    k->SetKtrace(&sink);
    dfs = std::make_shared<ia::DfsTraceAgent>(kDfsLogPath);
    agents.push_back(dfs);
  }
  const WorldMark mark = WorldMark::Of(*k);
  AndrewOutcome out;
  out.status = TimedRun(*k, agents, AndrewSpawn(), meter);
  out.calls = Total(Minus(CallCounts(*k), mark.calls));
  if (meter.counters != nullptr) {
    meter.counters->Add(*k, mark);
  }
  k->SetKtrace(nullptr);
  out.ktrace = sink.Snapshot();
  out.dropped = sink.dropped();
  out.dfs_records = dfs != nullptr ? dfs->records_written() : 0;
  out.copy = Snapshot(*k, kAndrewWork);
  out.makelog = out.copy["MAKELOG"];
  out.copy.erase("MAKELOG");
  if (traced) {
    out.dfs_log = ReadWorldFile(*k, kDfsLogPath);
  }
  return out;
}

RunResult RunAndrew(const Options& options) {
  constexpr double kCpuOps = 100;  // passes
  RunResult result;
  const AndrewInputs inputs = GenerateAndrewInputs(options.seed);
  const AndrewFigures figures = ComputeAndrewFigures(inputs.source);

  SetupSpans spans;
  BootWorld([&inputs](Kernel& k) { InstallTree(k, kAndrewSource, inputs.source); }, &spans);
  const double setup_s = SetupSeconds(options);

  const AndrewOutcome ref = PassInFreshWorld(inputs, false, Meter{});
  result.Fail(CheckAndrew(ref, inputs, figures, /*traced=*/false));

  int64_t ktrace_records = 0;
  int64_t dfs_records = 0;
  const auto op = [&](Meter meter) {
    meter.calls = ref.calls;
    const AndrewOutcome got = PassInFreshWorld(inputs, true, meter);
    if (meter.counters != nullptr) {
      ktrace_records += static_cast<int64_t>(got.ktrace.size() + got.dropped);
      dfs_records += got.dfs_records;
    }
    ++result.attempted;
    if (!ExitedZero(got.status)) {
      ++result.failed;
    }
    result.Fail(CheckAndrew(got, inputs, figures, /*traced=*/true));
  };

  Report& r = result.metrics;
  Timed timed;
  if (!options.trace) {
    RepeatFor(options.seconds, [&] { op(Meter{&timed}); });
    ReportEndToEnd(setup_s, timed, kCpuOps, &r);
    return result;
  }
  ReportLayerDefaults(&r);
  ReportSetup(spans, &r);
  Counters counters;
  RepeatFor(options.seconds / 2, [&] { op(Meter{&timed, &counters}); });
  ReportCounters(counters, timed, &r);
  r.Set("ktrace.records", static_cast<double>(ktrace_records), "count");
  r.Set("dfs.records", static_cast<double>(dfs_records), "count");
  const ProbeStack probes(1);
  Timed traced;
  RepeatFor(options.seconds / 2, [&] { op(Meter{&traced, nullptr, &probes}); });
  ReportProbes(probes, {"dfs_trace"}, traced, &r);
  return result;
}

// ==================================================================================
// clients: two concurrent syscall-dense clients, sync and ring issue of one mix.
// ==================================================================================

struct ClientsInputs {
  std::string path[kClients];      // a 6-component path per client
  std::string contents[kClients];  // the file's generated bytes
};

ClientsInputs GenerateClientsInputs(uint64_t seed) {
  ia::Prng prng(seed * 0x9e3779b97f4a7c15ULL + 0xc11e);
  ClientsInputs in;
  for (int c = 0; c < kClients; ++c) {
    std::string path = ia::StringPrintf("/c%d", c);
    for (int level = 0; level < 4; ++level) {
      path += ia::StringPrintf("/%c%04x", static_cast<char>('a' + level),
                               static_cast<unsigned>(prng.Below(0x10000)));
    }
    in.path[c] = path + "/data";
    const size_t size = 2048 + prng.Below(4096);
    std::string bytes(size, '\0');
    for (char& b : bytes) {
      b = static_cast<char>(prng.Next() >> 56);
    }
    in.contents[c] = std::move(bytes);
  }
  return in;
}

// The rows of the client mix.
const std::vector<int>& MixRows() {
  static const std::vector<int> rows = {ia::kSysGetpid, ia::kSysGettimeofday, ia::kSysFstat,
                                        ia::kSysLseek,  ia::kSysRead,         ia::kSysStat};
  return rows;
}

// One client's observations, filled in by its process.
struct ClientState {
  int64_t observed_pid = 0;
  int64_t rounds = 0;
  Samples round_ms;
  std::string error;
  int64_t sync_ns = 0;  // time issuing the mix synchronously (spans only)
  int64_t ring_ns = 0;  // time in BatchClient::Flush (spans only)
};

struct ClientPlan {
  std::string path;
  std::string first_kib;
  int64_t size = 0;
  int64_t min_tv_sec = 0;
  int64_t max_tv_sec = 0;
  int64_t max_rounds = 0;
  bool spans = false;
};

int ClientMain(ProcessContext& ctx, const ClientPlan& plan, ClientState* state) {
  const int fd = ctx.Open(plan.path, ia::kORdonly);
  if (fd < 0) {
    state->error = "clients: open of the generated file failed";
    return 1;
  }
  ia::BatchClient batch(ctx);
  char sync_buf[1024];
  char ring_buf[1024];
  ia::TimeVal ring_tv;
  ia::Stat ring_fstat;
  ia::Stat ring_stat;
  MixResult sync;
  MixResult ring;
  sync.buf = sync_buf;
  ring.buf = ring_buf;
  ClientExpect expect;
  expect.first_kib = plan.first_kib;
  expect.size = plan.size;
  expect.min_tv_sec = plan.min_tv_sec;
  expect.max_tv_sec = plan.max_tv_sec;
  int64_t prev_us = 0;
  do {
    const int64_t t0 = NowNs();
    sync.getpid = ctx.Getpid();
    sync.gtod_status = ctx.Gettimeofday(&sync.tv, nullptr);
    sync.fstat_status = ctx.Fstat(fd, &sync.fstat);
    sync.lseek = ctx.Lseek(fd, 0, ia::kSeekSet);
    sync.read = ctx.Read(fd, sync_buf, sizeof(sync_buf));
    sync.stat_status = ctx.Stat(plan.path, &sync.stat);
    const int64_t t1 = plan.spans ? NowNs() : 0;
    batch.PushGetpid(0);
    ia::SyscallArgs gtod;
    gtod.SetPtr(0, &ring_tv);
    gtod.SetPtr(1, nullptr);
    batch.Push(ia::kSysGettimeofday, gtod, 1);
    batch.PushFstat(fd, &ring_fstat, 2);
    batch.PushLseek(fd, 0, ia::kSeekSet, 3);
    batch.PushRead(fd, ring_buf, sizeof(ring_buf), 4);
    batch.PushStat(plan.path.c_str(), &ring_stat, 5);
    batch.Flush();
    const int64_t t2 = NowNs();
    state->round_ms.Add(static_cast<double>(t2 - t0) / 1e6);
    if (plan.spans) {
      state->sync_ns += t1 - t0;
      state->ring_ns += t2 - t1;
    }
    const std::vector<ia::SyscallCompletion>& done = batch.completions();
    if (done.size() != 6) {
      state->error = "clients: ring returned the wrong number of completions";
      break;
    }
    ring.getpid = done[0].status >= 0 ? done[0].result.rv[0] : done[0].status;
    ring.gtod_status = done[1].status;
    ring.tv = ring_tv;
    ring.fstat_status = done[2].status;
    ring.fstat = ring_fstat;
    ring.lseek = done[3].status >= 0 ? done[3].result.rv[0] : done[3].status;
    ring.read = done[4].status >= 0 ? done[4].result.rv[0] : done[4].status;
    ring.stat_status = done[5].status;
    ring.stat = ring_stat;
    if (state->rounds == 0) {
      state->observed_pid = sync.getpid;
    }
    expect.pid = state->observed_pid;
    ++state->rounds;
    if (state->error.empty()) {
      std::string error = CheckMix(sync, expect, prev_us);
      if (error.empty()) {
        error = CheckRingMatchesSync(sync, ring);
      }
      if (error.empty()) {
        error = CheckMix(ring, expect, 0);
      }
      state->error = error;
    }
    prev_us = ring.tv.tv_sec * 1000000 + ring.tv.tv_usec;
  } while (state->rounds < plan.max_rounds);
  ctx.Close(fd);
  return 0;
}

struct ClientsRun {
  int status = -1;
  ClientState state[kClients];
  int64_t fork_pid[kClients] = {};
  SyscallCounts calls{};  // kernel per-number deltas over the run
  double wall_s = 0;
  Usage usage;
};

// One loader process forks the two clients and waits for them.
void RunClients(Kernel& kernel, const ClientsInputs& in, const std::vector<AgentRef>& agents,
                ClientPlan plan, ClientsRun* run) {
  ClientPlan plans[kClients];
  for (int c = 0; c < kClients; ++c) {
    plans[c] = plan;
    plans[c].path = in.path[c];
    plans[c].first_kib = in.contents[c].substr(0, 1024);
    plans[c].size = static_cast<int64_t>(in.contents[c].size());
  }
  ia::SpawnOptions loader;
  loader.body = [&](ProcessContext& ctx) {
    ia::Pid pids[kClients];
    for (int c = 0; c < kClients; ++c) {
      pids[c] = ctx.Fork([&plans, run, c](ProcessContext& child) {
        return ClientMain(child, plans[c], &run->state[c]);
      });
      run->fork_pid[c] = pids[c];
    }
    int failed = 0;
    for (int c = 0; c < kClients; ++c) {
      int status = 0;
      if (pids[c] < 0 || ctx.Wait4(pids[c], &status, 0, nullptr) < 0 || !ExitedZero(status)) {
        ++failed;
      }
    }
    return failed;
  };
  const SyscallCounts before = CallCounts(kernel);
  const Usage u0 = Usage::Now();
  const int64_t t0 = NowNs();
  run->status = agents.empty() ? kernel.HostWaitPid(kernel.Spawn(loader))
                               : ia::RunUnderAgents(kernel, agents, loader);
  run->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  run->usage = Usage::Now() - u0;
  run->calls = Minus(CallCounts(kernel), before);
}

// Checks a clients run: every round's checks, the pids, and the kernel's
// per-number counts against the calls the clients issued.
std::string CheckClients(const ClientsRun& run) {
  if (!ExitedZero(run.status)) {
    return ia::StringPrintf("clients: loader exited with status %#x", run.status);
  }
  SyscallCounts issued{};
  for (int c = 0; c < kClients; ++c) {
    if (!run.state[c].error.empty()) {
      return run.state[c].error;
    }
    if (run.state[c].observed_pid != run.fork_pid[c]) {
      return ia::StringPrintf("clients: getpid returned %lld, fork returned %lld",
                              static_cast<long long>(run.state[c].observed_pid),
                              static_cast<long long>(run.fork_pid[c]));
    }
    for (const int row : MixRows()) {
      issued[static_cast<size_t>(row)] += 2 * run.state[c].rounds;
    }
  }
  return CheckIssuedCalls(run.calls, issued, MixRows());
}

RunResult RunClientsWorkload(const Options& options) {
  constexpr double kCpuOps = 1e6;  // rounds
  RunResult result;
  const ClientsInputs inputs = GenerateClientsInputs(options.seed);
  const auto install = [&inputs](Kernel& k) {
    for (int c = 0; c < kClients; ++c) {
      k.fs().MkdirAll(ia::path::Dirname(inputs.path[c]));
      k.fs().InstallFile(inputs.path[c], inputs.contents[c]);
    }
  };
  SetupSpans spans;
  std::unique_ptr<Kernel> world = BootWorld(install, &spans);
  const double setup_s = SetupSeconds(options);

  const ia::KernelConfig config = WorldConfig();
  ClientPlan plan;
  plan.min_tv_sec = config.epoch_seconds;
  plan.max_tv_sec = config.epoch_seconds + 1000000;

  // Untimed agent-free reference: application calls per round.
  double calls_per_round = 0;
  {
    ClientsRun ref;
    ClientPlan ref_plan = plan;
    ref_plan.max_rounds = kReferenceRounds;
    RunClients(*world, inputs, {}, ref_plan, &ref);
    result.Fail(CheckClients(ref));
    int64_t mix_calls = 0;
    for (const int row : MixRows()) {
      mix_calls += ref.calls[static_cast<size_t>(row)];
    }
    calls_per_round = static_cast<double>(mix_calls) / (kClients * kReferenceRounds);
  }
  world.reset();

  plan.min_tv_sec += kTimexOffset;
  plan.max_tv_sec += kTimexOffset;
  // One timed phase: a fresh world, then blocks of kClientsBlockRounds rounds
  // per client, each one loader run under timex, until `seconds` pass. With
  // `spans_on` the clients also time their sync and ring issue.
  int64_t sync_ns = 0;
  int64_t ring_ns = 0;
  const auto phase = [&](double seconds, const Meter& meter, bool spans_on) {
    std::unique_ptr<Kernel> k = BootWorld(install);
    const WorldMark mark = WorldMark::Of(*k);
    std::vector<AgentRef> agents = {std::make_shared<ia::TimexAgent>(kTimexOffset)};
    if (meter.probes != nullptr) {
      agents = meter.probes->Interleave(agents);
    }
    ClientPlan timed_plan = plan;
    timed_plan.spans = spans_on;
    timed_plan.max_rounds = kClientsBlockRounds;
    int64_t rounds = 0;
    RepeatFor(seconds, [&] {
      ClientsRun run;
      RunClients(*k, inputs, agents, timed_plan, &run);
      int64_t block_rounds = 0;
      for (int c = 0; c < kClients; ++c) {
        const ClientState& s = run.state[c];
        block_rounds += s.rounds;
        sync_ns += s.sync_ns;
        ring_ns += s.ring_ns;
      }
      const double scale = meter.timed->AddBlock(
          block_rounds, static_cast<int64_t>(calls_per_round * static_cast<double>(block_rounds)),
          run.wall_s, run.usage);
      for (const ClientState& s : run.state) {
        meter.timed->op_ms.Merge(s.round_ms, scale);
      }
      rounds += block_rounds;
      result.attempted += block_rounds;
      if (!ExitedZero(run.status)) {
        result.failed += block_rounds;
      }
      result.Fail(CheckClients(run));
    });
    if (meter.counters != nullptr) {
      meter.counters->Add(*k, mark);
    }
    return rounds;
  };

  Report& r = result.metrics;
  Timed timed;
  if (!options.trace) {
    phase(options.seconds, Meter{&timed}, false);
    ReportEndToEnd(setup_s, timed, kCpuOps, &r);
    return result;
  }
  ReportLayerDefaults(&r);
  ReportSetup(spans, &r);
  Counters counters;
  const int64_t rounds = phase(options.seconds / 2, Meter{&timed, &counters}, true);
  ReportCounters(counters, timed, &r);
  // Each round issues MixRows() once synchronously and once through the ring.
  const double per_issue = static_cast<double>(rounds) * static_cast<double>(MixRows().size());
  r.Set("sync.ns_per_call", per_issue > 0 ? static_cast<double>(sync_ns) / per_issue : 0, "ns");
  r.Set("ring.ns_per_entry", per_issue > 0 ? static_cast<double>(ring_ns) / per_issue : 0, "ns");
  const ProbeStack probes(1);
  Timed traced;
  phase(options.seconds / 2, Meter{&traced, nullptr, &probes}, false);
  ReportProbes(probes, {"timex"}, traced, &r);
  return result;
}

// ==================================================================================
// echo: AF_UNIX request/response under a fault plan and the retry agent.
// ==================================================================================

struct EchoInputs {
  std::vector<std::string> requests[kClients];
};

EchoInputs GenerateEchoInputs(uint64_t seed) {
  ia::Prng prng(seed * 0x9e3779b97f4a7c15ULL + 0xec40);
  EchoInputs in;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kEchoRequests; ++i) {
      std::string request(kEchoBytes, '\0');
      for (char& b : request) {
        b = static_cast<char>(prng.Next() >> 56);
      }
      in.requests[c].push_back(std::move(request));
    }
  }
  return in;
}

ia::FaultPlan EchoFaultPlan() {
  ia::FaultPlan plan;
  plan.seed = 0xec40fa17;
  plan.eintr_probability = 0.01;
  plan.short_probability = 0.01;
  return plan;
}

// Receives exactly `count` bytes unless EOF or an error comes first.
int64_t RecvFull(ProcessContext& ctx, int fd, char* buf, int64_t count) {
  int64_t done = 0;
  while (done < count) {
    const int64_t n = ctx.Recv(fd, buf + done, count - done);
    if (n <= 0) {
      return done > 0 ? done : n;
    }
    done += n;
  }
  return done;
}

int64_t SendFull(ProcessContext& ctx, int fd, const char* buf, int64_t count) {
  int64_t done = 0;
  while (done < count) {
    const int64_t n = ctx.Send(fd, buf + done, count - done);
    if (n < 0) {
      return n;
    }
    done += n;
  }
  return done;
}

struct EchoClientState {
  int64_t rounds = 0;
  int64_t sent = 0;
  int64_t received = 0;
  Samples round_ms;
  std::string error;
};

struct EchoRun {
  int status = -1;
  EchoClientState client[kClients];
  std::atomic<int64_t> server_received{0};
  std::atomic<int64_t> server_sent{0};
  SyscallCounts calls{};
  double wall_s = 0;
  Usage usage;
};

// One loader process binds the socket, forks the server (which forks one
// child per connection) and the two clients, and waits for all of them.
void RunEcho(Kernel& kernel, const EchoInputs& in, const std::vector<AgentRef>& agents,
             int64_t max_rounds, EchoRun* run) {
  const auto serve_connection = [run](ProcessContext& ctx, int cfd) {
    char buf[kEchoBytes];
    for (;;) {
      const int64_t n = RecvFull(ctx, cfd, buf, kEchoBytes);
      if (n <= 0) {
        break;
      }
      run->server_received.fetch_add(n, std::memory_order_relaxed);
      const int64_t sent = SendFull(ctx, cfd, buf, n);
      if (sent < 0) {
        return 1;
      }
      run->server_sent.fetch_add(sent, std::memory_order_relaxed);
    }
    ctx.Close(cfd);
    return 0;
  };
  const auto server = [serve_connection](ProcessContext& ctx, int lfd) {
    ia::Pid children[kClients];
    for (int c = 0; c < kClients; ++c) {
      const int cfd = ctx.Accept(lfd);
      if (cfd < 0) {
        return 1;
      }
      children[c] = ctx.Fork([serve_connection, cfd, lfd](ProcessContext& child) {
        child.Close(lfd);
        return serve_connection(child, cfd);
      });
      ctx.Close(cfd);
    }
    int failed = 0;
    for (const ia::Pid pid : children) {
      int status = 0;
      if (pid < 0 || ctx.Wait4(pid, &status, 0, nullptr) < 0 || !ExitedZero(status)) {
        ++failed;
      }
    }
    return failed;
  };
  const auto client = [&in, run, max_rounds](ProcessContext& ctx, int c) {
    EchoClientState& s = run->client[c];
    const int fd = ctx.Socket(ia::kAfUnix, ia::kSockStream, 0);
    if (fd < 0 || ctx.ConnectUnix(fd, kEchoSocket) < 0) {
      s.error = "echo: connect failed";
      return 1;
    }
    char reply[kEchoBytes];
    do {
      const std::string& request = in.requests[c][static_cast<size_t>(s.rounds % kEchoRequests)];
      const int64_t t0 = NowNs();
      const int64_t sent = SendFull(ctx, fd, request.data(), kEchoBytes);
      const int64_t got = RecvFull(ctx, fd, reply, kEchoBytes);
      s.round_ms.Add(MsSince(t0));
      ++s.rounds;
      s.sent += std::max<int64_t>(sent, 0);
      s.received += std::max<int64_t>(got, 0);
      if (s.error.empty()) {
        s.error = CheckEchoReply(request, std::string(reply, static_cast<size_t>(std::max<int64_t>(got, 0))));
      }
      if (sent < 0 || got <= 0) {
        break;
      }
    } while (s.rounds < max_rounds);
    ctx.Shutdown(fd, ia::kShutWr);
    ctx.Close(fd);
    return 0;
  };
  ia::SpawnOptions loader;
  loader.body = [&](ProcessContext& ctx) {
    const int lfd = ctx.Socket(ia::kAfUnix, ia::kSockStream, 0);
    if (lfd < 0 || ctx.BindUnix(lfd, kEchoSocket) < 0 || ctx.Listen(lfd, ia::kSoMaxConn) < 0) {
      return 1;
    }
    std::vector<ia::Pid> pids;
    pids.push_back(ctx.Fork([server, lfd](ProcessContext& child) { return server(child, lfd); }));
    for (int c = 0; c < kClients; ++c) {
      pids.push_back(ctx.Fork([client, lfd, c](ProcessContext& child) {
        child.Close(lfd);
        return client(child, c);
      }));
    }
    ctx.Close(lfd);
    int failed = 0;
    for (const ia::Pid pid : pids) {
      int status = 0;
      if (pid < 0 || ctx.Wait4(pid, &status, 0, nullptr) < 0 || !ExitedZero(status)) {
        ++failed;
      }
    }
    ctx.Unlink(kEchoSocket);
    return failed;
  };
  const SyscallCounts before = CallCounts(kernel);
  const Usage u0 = Usage::Now();
  const int64_t t0 = NowNs();
  run->status = agents.empty() ? kernel.HostWaitPid(kernel.Spawn(loader))
                               : ia::RunUnderAgents(kernel, agents, loader);
  run->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  run->usage = Usage::Now() - u0;
  run->calls = Minus(CallCounts(kernel), before);
}

std::string CheckEcho(const EchoRun& run) {
  if (!ExitedZero(run.status)) {
    return ia::StringPrintf("echo: loader exited with status %#x", run.status);
  }
  int64_t sent = 0;
  int64_t received = 0;
  for (const EchoClientState& s : run.client) {
    if (!s.error.empty()) {
      return s.error;
    }
    sent += s.sent;
    received += s.received;
  }
  std::string error = CheckByteConservation(sent, run.server_received.load(), "clients→server");
  if (error.empty()) {
    error = CheckByteConservation(run.server_sent.load(), received, "server→clients");
  }
  return error;
}

RunResult RunEchoWorkload(const Options& options) {
  constexpr double kCpuOps = 1e5;  // round trips
  RunResult result;
  const EchoInputs inputs = GenerateEchoInputs(options.seed);
  const auto install = [](Kernel& /*k*/) {};
  SetupSpans spans;
  std::unique_ptr<Kernel> world = BootWorld(install, &spans);
  const double setup_s = SetupSeconds(options);

  // Untimed agent-free, fault-free reference: application calls per round trip.
  double calls_per_round = 0;
  {
    EchoRun ref;
    RunEcho(*world, inputs, {}, kReferenceRounds, &ref);
    result.Fail(CheckEcho(ref));
    const int64_t data_calls = ref.calls[ia::kSysSend] + ref.calls[ia::kSysRecv];
    calls_per_round = static_cast<double>(data_calls) / (kClients * kReferenceRounds);
  }
  world.reset();

  // One timed phase: a fresh world with the fault plan, then blocks of
  // kEchoBlockRounds round trips per client, each one loader run under retry,
  // until `seconds` pass.
  struct PhaseTally {
    int64_t rounds = 0;
    int64_t faults = 0;    // FaultStats() total
    int64_t reissues = 0;  // the retry agent's EINTR, short and transient retries
  };
  const auto phase = [&](double seconds, const Meter& meter) {
    std::unique_ptr<Kernel> k = BootWorld(install);
    k->SetFaultPlan(EchoFaultPlan());
    const WorldMark mark = WorldMark::Of(*k);
    auto retry = std::make_shared<ia::RetryAgent>();
    std::vector<AgentRef> agents = {retry};
    if (meter.probes != nullptr) {
      agents = meter.probes->Interleave(agents);
    }
    PhaseTally tally;
    std::string error;
    RepeatFor(seconds, [&] {
      EchoRun run;
      RunEcho(*k, inputs, agents, kEchoBlockRounds, &run);
      int64_t block_rounds = 0;
      for (const EchoClientState& s : run.client) {
        block_rounds += s.rounds;
      }
      const double scale = meter.timed->AddBlock(
          block_rounds, static_cast<int64_t>(calls_per_round * static_cast<double>(block_rounds)),
          run.wall_s, run.usage);
      for (const EchoClientState& s : run.client) {
        meter.timed->op_ms.Merge(s.round_ms, scale);
      }
      tally.rounds += block_rounds;
      result.attempted += block_rounds;
      if (!ExitedZero(run.status)) {
        result.failed += block_rounds;
      }
      if (error.empty()) {
        error = CheckEcho(run);
      }
    });
    if (meter.counters != nullptr) {
      meter.counters->Add(*k, mark);
    }
    int64_t eintr = 0;
    int64_t shorts = 0;
    for (const ia::FaultStat& f : k->FaultStats()) {
      eintr += f.injected_eintr;
      shorts += f.short_transfers;
      tally.faults += f.Total();
    }
    tally.reissues = retry->EintrRetries() + retry->ShortResumes() + retry->TransientRetries();
    if (error.empty()) {
      error = CheckFaultPlane(eintr, shorts, retry->GiveUps());
    }
    result.Fail(error);
    return tally;
  };

  Report& r = result.metrics;
  Timed timed;
  if (!options.trace) {
    phase(options.seconds, Meter{&timed});
    ReportEndToEnd(setup_s, timed, kCpuOps, &r);
    return result;
  }
  ReportLayerDefaults(&r);
  ReportSetup(spans, &r);
  Counters counters;
  const PhaseTally tally = phase(options.seconds / 2, Meter{&timed, &counters});
  ReportCounters(counters, timed, &r);
  r.Set("faults.injected", static_cast<double>(tally.faults), "count");
  r.Set("retry.reissues", static_cast<double>(tally.reissues), "count");
  r.Set("retry.reissues_per_op",
        tally.rounds > 0 ? static_cast<double>(tally.reissues) / tally.rounds : 0, "ratio");
  const ProbeStack probes(1);
  Timed traced;
  phase(options.seconds / 2, Meter{&traced, nullptr, &probes});
  ReportProbes(probes, {"retry"}, traced, &r);
  return result;
}

}  // namespace

// ==================================================================================
// Inputs and single operations.
// ==================================================================================

BuildInputs GenerateBuildInputs(uint64_t seed) {
  ia::Prng prng(seed * 0x9e3779b97f4a7c15ULL + 0xb111d);
  BuildInputs in;
  in.files["util.h"] = ia::StringPrintf(
      "extern int put(const char* s);\n"
      "extern int get(char* buf, int n);\n"
      "#define BUFSIZE %d\n",
      256 + static_cast<int>(prng.Below(768)));
  std::string makefile = "# eight small C programs\n";
  constexpr int kPrograms = 8;
  constexpr int kHelpers = 24;
  for (int i = 1; i <= kPrograms; ++i) {
    const std::string name = ia::StringPrintf("prog%d", i);
    // The shape (lines and tokens per line) is fixed, so every seed issues the
    // same calls; the seed picks the constants.
    std::string source = ia::StringPrintf(
        "#include <stdio.h>\n"
        "#include \"util.h\"\n"
        "/* program %d */\n",
        i);
    for (int h = 0; h < kHelpers; ++h) {
      source += ia::StringPrintf(
          "int helper_%d_%d(int x) {\n"
          "  int acc = x + %d;\n"
          "  acc = acc * %d + %d;\n"
          "  acc = acc ^ (acc >> %d);\n"
          "  return acc;\n"
          "}\n",
          i, h, static_cast<int>(prng.Below(1000)), static_cast<int>(prng.Below(100)),
          static_cast<int>(prng.Below(100)), 1 + static_cast<int>(prng.Below(7)));
    }
    source += ia::StringPrintf(
        "int main(int argc, char** argv) {\n"
        "  char buf[BUFSIZE];\n"
        "  int value = helper_%d_%d(argc);\n"
        "  put(\"prog%d running\\n\");\n"
        "  get(buf, BUFSIZE);\n"
        "  return value & 0xff;\n"
        "}\n",
        i, static_cast<int>(prng.Below(kHelpers)), i);
    in.files[name + ".c"] = source;
    in.targets.push_back(name);
    makefile += ia::StringPrintf("%s: %s.c util.h\n", name.c_str(), name.c_str());
  }
  in.files["Makefile"] = makefile;
  return in;
}

BuildOutcome RunBuildOnce(const BuildInputs& inputs, bool with_agents) {
  return MakeInFreshWorld(inputs, with_agents, Meter{});
}

AndrewInputs GenerateAndrewInputs(uint64_t seed) {
  ia::Prng prng(seed * 0x9e3779b97f4a7c15ULL + 0xa2d3e77);
  constexpr int kDirs = 8;
  constexpr int kFilesPerDir = 30;
  constexpr int kNestedFiles = 6;  // of each directory's files, kept in a subdirectory
  constexpr int kFiles = kDirs * kFilesPerDir;
  // A fixed multiset of line counts, dealt to the files in a seeded order, so
  // every seed reads and copies about the same number of bytes.
  std::vector<int> lines(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    lines[static_cast<size_t>(f)] = 20 + (f * 37) % 60;
  }
  for (int f = kFiles - 1; f > 0; --f) {
    std::swap(lines[static_cast<size_t>(f)], lines[prng.Below(static_cast<uint64_t>(f) + 1)]);
  }
  AndrewInputs in;
  int index = 0;
  for (int d = 0; d < kDirs; ++d) {
    const std::string dir = ia::StringPrintf("d%d_%04x/", d, static_cast<unsigned>(prng.Below(0x10000)));
    const std::string nested = dir + "inc/";
    in.source[dir] = "";
    in.source[nested] = "";
    for (int f = 0; f < kFilesPerDir; ++f, ++index) {
      std::string contents;
      for (int line = 0; line < lines[static_cast<size_t>(index)]; ++line) {
        contents += ia::StringPrintf("line %d of file %d in dir %d: payload %016llx\n", line, f,
                                     d, static_cast<unsigned long long>(prng.Next()));
      }
      const std::string name = ia::StringPrintf("file%02d.c", f);
      in.source[(f < kNestedFiles ? nested : dir) + name] = std::move(contents);
    }
  }
  return in;
}

AndrewOutcome RunAndrewOnce(const AndrewInputs& inputs) {
  return PassInFreshWorld(inputs, true, Meter{});
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"build", "andrew", "clients", "echo"};
  return names;
}

Placement WorkloadPlacement(const std::string& name) {
  Placement placement;
  placement.cpus = name == "clients" ? kClients : 1;
  placement.batch = name == "build";
  return placement;
}

RunResult RunWorkload(const Options& options) {
  if (options.workload == "build") {
    return RunBuild(options);
  }
  if (options.workload == "andrew") {
    return RunAndrew(options);
  }
  if (options.workload == "clients") {
    return RunClientsWorkload(options);
  }
  if (options.workload == "echo") {
    return RunEchoWorkload(options);
  }
  RunResult result;
  result.Fail("unknown workload " + options.workload);
  return result;
}

}  // namespace agentbench
