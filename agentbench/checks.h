// Correctness checks for the benchmark's workloads.
//
// Every check compares the program's output against a value the benchmark
// computes apart from the program (from the inputs it generated, or from a
// separate agent-free run), or against a property the method must have. Each
// returns an empty string on success and a one-line description of the first
// difference otherwise. selftest.cc shows that each one fails on wrong input.
#ifndef AGENTBENCH_CHECKS_H_
#define AGENTBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "agentbench/common.h"
#include "src/kernel/ktrace.h"

namespace agentbench {

// A directory tree: relative path -> file contents. Directories appear with a
// trailing '/' and empty contents.
using Tree = std::map<std::string, std::string>;

// --- build -------------------------------------------------------------------
// Every target exists in `out` as an executable image ("EXE1\n" header).
std::string CheckBuildImages(const Tree& out, const std::vector<std::string>& targets);

// `got` holds exactly the paths of `want`, byte for byte.
std::string CheckTreesEqual(const Tree& got, const Tree& want, const std::string& what);

// Counts the trace agent's entries per syscall number: one per traced call
// (its first line; the "... name(...) -> result" completion lines are not
// entries). Unparseable lines are reported through `error`.
SyscallCounts CountTraceEntries(const std::string& log, std::string* error);

// The trace log holds exactly `expected[n]` entries for every syscall n.
std::string CheckTraceCounts(const std::string& log, const SyscallCounts& expected);

// --- andrew ------------------------------------------------------------------
// The MAKELOG figures, as the benchmark computes them from the source tree.
struct AndrewFigures {
  int64_t files = 0;
  int64_t dirs = 0;
  int64_t size = 0;
  int64_t read = 0;
  int64_t tokens = 0;
};

// Counts the tree's files, directories, bytes and space-separated tokens.
AndrewFigures ComputeAndrewFigures(const Tree& source);

// MAKELOG's five fields equal `want`.
std::string CheckMakelog(const std::string& makelog, const AndrewFigures& want);

// Per opcode (open, close, stat, lseek) the decoded dfs_trace log agrees with
// the in-kernel ring records: equal counts, and equal pathname sequences for
// open and stat. The ring record of the agent's own log open (`log_path`) is
// set aside first. `dropped` is the ring sink's displaced-record count.
std::string CheckDfsAgainstKtrace(const std::string& dfs_log,
                                  const std::vector<ia::KtraceRecord>& ktrace,
                                  const std::string& log_path, uint64_t dropped);

// --- clients -----------------------------------------------------------------
// The results of one issue of the client mix.
struct MixResult {
  int64_t getpid = 0;
  int64_t gtod_status = 0;
  ia::TimeVal tv;
  int64_t fstat_status = 0;
  ia::Stat fstat;
  int64_t lseek = 0;
  int64_t read = 0;
  const char* buf = nullptr;  // the 1 KiB read buffer
  int64_t stat_status = 0;
  ia::Stat stat;
};

struct ClientExpect {
  int64_t pid = 0;           // the pid the first round observed
  std::string first_kib;     // the generated file's first 1024 bytes
  int64_t size = 0;          // the generated file's size
  int64_t min_tv_sec = 0;    // kernel epoch + timex offset
  int64_t max_tv_sec = 0;    // ... plus a generous bound on virtual time
};

// One issue of the mix returned what the generated file and the time offset
// say it must; `prev_us` is the previous time read (time never goes back).
std::string CheckMix(const MixResult& r, const ClientExpect& want, int64_t prev_us);

// Each ring completion equals the synchronous result of the same call (the
// time read may only move forward).
std::string CheckRingMatchesSync(const MixResult& sync, const MixResult& ring);

// The kernel's per-number call deltas equal the calls the benchmark issued,
// on every row of `issued` that is nonzero or listed in `rows`.
std::string CheckIssuedCalls(const SyscallCounts& kernel_delta, const SyscallCounts& issued,
                             const std::vector<int>& rows);

// --- echo --------------------------------------------------------------------
std::string CheckEchoReply(const std::string& request, const std::string& reply);
std::string CheckByteConservation(int64_t sent, int64_t received, const std::string& what);
// Both configured fault kinds fired, and the retry agent never gave up.
std::string CheckFaultPlane(int64_t eintr_injected, int64_t shorts_injected, int64_t give_ups);

}  // namespace agentbench

#endif  // AGENTBENCH_CHECKS_H_
