// Self-test of the benchmark's correctness checks: each check passes on the
// real output of its workload and fails on a deliberately wrong one (a
// corrupted copied file, an off-by-one token count, a dropped echo byte, a
// ring completion swapped with another, ...). Exits non-zero if any check
// accepts a wrong output or rejects a right one.
//
//   python3 agentbench/run.py --selftest
#include <cstdio>
#include <functional>
#include <string>

#include "agentbench/workloads.h"
#include "src/base/strings.h"

namespace {

using agentbench::Tree;

int failures = 0;
int cases = 0;

// `error` is a check's verdict; `want_pass` says whether the input was right.
void Expect(const std::string& name, const std::string& error, bool want_pass) {
  ++cases;
  const bool passed = error.empty();
  if (passed != want_pass) {
    ++failures;
    std::printf("FAIL  %-52s %s\n", name.c_str(),
                want_pass ? ("rejected a right output: " + error).c_str()
                          : "accepted a wrong output");
  } else {
    std::printf("ok    %-52s %s\n", name.c_str(), passed ? "passes" : error.c_str());
  }
}

void BuildChecks() {
  const agentbench::BuildInputs inputs = agentbench::GenerateBuildInputs(7);
  const agentbench::BuildOutcome bare = agentbench::RunBuildOnce(inputs, false);
  const agentbench::BuildOutcome traced = agentbench::RunBuildOnce(inputs, true);
  agentbench::SyscallCounts expect = bare.calls;
  expect[ia::kSysExecve] += 1;  // the agent loader's exec of make

  Expect("build: images of a real make", agentbench::CheckBuildImages(traced.tree, inputs.targets),
         true);
  Tree missing = traced.tree;
  missing.erase(inputs.targets.back());
  Expect("build: a target missing", agentbench::CheckBuildImages(missing, inputs.targets), false);
  Tree not_image = traced.tree;
  not_image[inputs.targets.front()][0] = 'X';
  Expect("build: a target that is not an image",
         agentbench::CheckBuildImages(not_image, inputs.targets), false);

  Expect("build: output equals agent-free build",
         agentbench::CheckTreesEqual(traced.tree, bare.tree, "build"), true);
  Tree flipped = traced.tree;
  flipped[inputs.targets.front()].back() ^= 1;
  Expect("build: one output byte flipped", agentbench::CheckTreesEqual(flipped, bare.tree, "build"),
         false);
  Tree extra = traced.tree;
  extra["stray.o"] = "x";
  Expect("build: an extra output file", agentbench::CheckTreesEqual(extra, bare.tree, "build"),
         false);

  Expect("build: trace log counts", agentbench::CheckTraceCounts(traced.trace_log, expect), true);
  std::string dropped = traced.trace_log;
  const size_t first_open = dropped.find(": open(");
  const size_t line_start = dropped.rfind('\n', first_open) + 1;
  dropped.erase(line_start, dropped.find('\n', first_open) + 1 - line_start);
  Expect("build: trace log missing one open entry", agentbench::CheckTraceCounts(dropped, expect),
         false);
  Expect("build: trace log with a garbled line",
         agentbench::CheckTraceCounts(traced.trace_log + "7: frobnicate(1) ... ]\n", expect),
         false);
}

void AndrewChecks() {
  const agentbench::AndrewInputs inputs = agentbench::GenerateAndrewInputs(7);
  const agentbench::AndrewOutcome got = agentbench::RunAndrewOnce(inputs);
  const agentbench::AndrewFigures figures = agentbench::ComputeAndrewFigures(inputs.source);

  Expect("andrew: copied tree equals the source",
         agentbench::CheckTreesEqual(got.copy, inputs.source, "andrew"), true);
  Tree corrupted = got.copy;
  for (auto& [path, contents] : corrupted) {
    if (!contents.empty()) {
      contents[contents.size() / 2] ^= 0x20;
      break;
    }
  }
  Expect("andrew: a corrupted copied file",
         agentbench::CheckTreesEqual(corrupted, inputs.source, "andrew"), false);
  Tree truncated = got.copy;
  for (auto& [path, contents] : truncated) {
    if (!contents.empty()) {
      contents.pop_back();
      break;
    }
  }
  Expect("andrew: a copied file one byte short",
         agentbench::CheckTreesEqual(truncated, inputs.source, "andrew"), false);

  Expect("andrew: MAKELOG figures", agentbench::CheckMakelog(got.makelog, figures), true);
  agentbench::AndrewFigures off = figures;
  off.tokens += 1;
  Expect("andrew: tokens off by one", agentbench::CheckMakelog(got.makelog, off), false);
  off = figures;
  off.dirs -= 1;
  Expect("andrew: dirs off by one", agentbench::CheckMakelog(got.makelog, off), false);
  off = figures;
  off.size += 1;
  Expect("andrew: size off by one", agentbench::CheckMakelog(got.makelog, off), false);

  Expect("andrew: dfs_trace agrees with ktrace",
         agentbench::CheckDfsAgainstKtrace(got.dfs_log, got.ktrace, agentbench::kDfsLogPath,
                                           got.dropped),
         true);
  std::vector<ia::KtraceRecord> fewer = got.ktrace;
  for (size_t i = fewer.size(); i-- > 0;) {
    if (fewer[i].syscall == ia::kSysClose) {
      fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  Expect("andrew: ktrace missing one close",
         agentbench::CheckDfsAgainstKtrace(got.dfs_log, fewer, agentbench::kDfsLogPath,
                                           got.dropped),
         false);
  std::vector<ia::KtraceRecord> renamed = got.ktrace;
  for (ia::KtraceRecord& r : renamed) {
    if (r.syscall == ia::kSysStat) {
      r.path += "x";
      break;
    }
  }
  Expect("andrew: ktrace stat path differs",
         agentbench::CheckDfsAgainstKtrace(got.dfs_log, renamed, agentbench::kDfsLogPath,
                                           got.dropped),
         false);
  Expect("andrew: ring sink dropped a record",
         agentbench::CheckDfsAgainstKtrace(got.dfs_log, got.ktrace, agentbench::kDfsLogPath, 1),
         false);
}

void ClientChecks() {
  std::string file(2048, '\0');
  for (size_t i = 0; i < file.size(); ++i) {
    file[i] = static_cast<char>(i * 7);
  }
  agentbench::ClientExpect want;
  want.pid = 5;
  want.first_kib = file.substr(0, 1024);
  want.size = 2048;
  want.min_tv_sec = 1000;
  want.max_tv_sec = 2000;
  char sync_buf[1024];
  char ring_buf[1024];
  std::copy(file.begin(), file.begin() + 1024, sync_buf);
  std::copy(file.begin(), file.begin() + 1024, ring_buf);
  agentbench::MixResult sync;
  sync.getpid = 5;
  sync.tv.tv_sec = 1500;
  sync.fstat.st_size = 2048;
  sync.fstat.st_ino = 9;
  sync.lseek = 0;
  sync.read = 1024;
  sync.buf = sync_buf;
  sync.stat.st_size = 2048;
  sync.stat.st_ino = 9;
  agentbench::MixResult ring = sync;
  ring.buf = ring_buf;
  ring.tv.tv_usec = 10;

  Expect("clients: a right sync mix", agentbench::CheckMix(sync, want, 0), true);
  Expect("clients: ring equals sync", agentbench::CheckRingMatchesSync(sync, ring), true);
  agentbench::MixResult wrong = sync;
  wrong.getpid = 6;
  Expect("clients: getpid not the forked pid", agentbench::CheckMix(wrong, want, 0), false);
  wrong = sync;
  wrong.tv.tv_sec = 1500 - 1000;
  Expect("clients: time without the timex offset", agentbench::CheckMix(wrong, want, 0), false);
  Expect("clients: time going backwards",
         agentbench::CheckMix(sync, want, 1500 * 1000000LL + 1), false);
  wrong = sync;
  wrong.stat.st_size = 2047;
  Expect("clients: stat size off by one", agentbench::CheckMix(wrong, want, 0), false);
  char bad_buf[1024];
  std::copy(sync_buf, sync_buf + 1024, bad_buf);
  bad_buf[1023] ^= 1;
  wrong = sync;
  wrong.buf = bad_buf;
  Expect("clients: read returned a wrong byte", agentbench::CheckMix(wrong, want, 0), false);
  // Completions swapped: the getpid slot holds lseek's result and vice versa.
  agentbench::MixResult swapped = ring;
  std::swap(swapped.getpid, swapped.lseek);
  Expect("clients: ring completions swapped", agentbench::CheckRingMatchesSync(sync, swapped),
         false);
  swapped = ring;
  std::swap(swapped.fstat, swapped.stat);
  swapped.stat.st_ino = 10;
  Expect("clients: ring stat holds another file's stat",
         agentbench::CheckRingMatchesSync(sync, swapped), false);
  swapped = ring;
  swapped.tv.tv_sec -= 1;
  Expect("clients: ring time before sync time", agentbench::CheckRingMatchesSync(sync, swapped),
         false);

  agentbench::SyscallCounts issued{};
  issued[ia::kSysGetpid] = 10;
  issued[ia::kSysStat] = 10;
  agentbench::SyscallCounts kernel = issued;
  Expect("clients: kernel counts equal issued calls",
         agentbench::CheckIssuedCalls(kernel, issued, {ia::kSysGetpid, ia::kSysStat}), true);
  kernel[ia::kSysStat] += 1;
  Expect("clients: kernel counted one stat too many",
         agentbench::CheckIssuedCalls(kernel, issued, {ia::kSysGetpid, ia::kSysStat}), false);
  kernel = issued;
  kernel[ia::kSysGetpid] -= 1;
  Expect("clients: kernel counted one getpid too few",
         agentbench::CheckIssuedCalls(kernel, issued, {ia::kSysGetpid, ia::kSysStat}), false);
}

void EchoChecks() {
  std::string request(256, '\0');
  for (size_t i = 0; i < request.size(); ++i) {
    request[i] = static_cast<char>(i * 13 + 1);
  }
  Expect("echo: reply equals request", agentbench::CheckEchoReply(request, request), true);
  Expect("echo: reply missing its last byte",
         agentbench::CheckEchoReply(request, request.substr(0, 255)), false);
  std::string flipped = request;
  flipped[100] ^= 4;
  Expect("echo: reply with a flipped byte", agentbench::CheckEchoReply(request, flipped), false);
  Expect("echo: bytes conserved", agentbench::CheckByteConservation(2560, 2560, "c→s"), true);
  Expect("echo: one byte dropped in transit",
         agentbench::CheckByteConservation(2560, 2559, "c→s"), false);
  Expect("echo: both fault kinds fired, no give-ups", agentbench::CheckFaultPlane(3, 2, 0), true);
  Expect("echo: no EINTR injected", agentbench::CheckFaultPlane(0, 2, 0), false);
  Expect("echo: no short transfer injected", agentbench::CheckFaultPlane(3, 0, 0), false);
  Expect("echo: retry gave up once", agentbench::CheckFaultPlane(3, 2, 1), false);
}

}  // namespace

int main() {
  BuildChecks();
  AndrewChecks();
  ClientChecks();
  EchoChecks();
  std::printf("%d of %d self-test cases behaved as expected\n", cases - failures, cases);
  return failures == 0 ? 0 : 1;
}
