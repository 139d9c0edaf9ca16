#include "agentbench/checks.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "src/agents/dfs_trace.h"
#include "src/base/strings.h"
#include "src/kernel/syscall_table.h"

namespace agentbench {
namespace {

std::string Name(int number) { return std::string(ia::SyscallSpecOf(number).name); }

}  // namespace

std::string CheckBuildImages(const Tree& out, const std::vector<std::string>& targets) {
  for (const std::string& target : targets) {
    const auto it = out.find(target);
    if (it == out.end()) {
      return "build: target " + target + " missing";
    }
    if (it->second.compare(0, 5, "EXE1\n") != 0) {
      return "build: target " + target + " is not an EXE1 image";
    }
  }
  return "";
}

std::string CheckTreesEqual(const Tree& got, const Tree& want, const std::string& what) {
  for (const auto& [path, contents] : want) {
    const auto it = got.find(path);
    if (it == got.end()) {
      return what + ": " + path + " missing";
    }
    if (it->second != contents) {
      return what + ": " + path + " differs";
    }
  }
  for (const auto& entry : got) {
    if (want.count(entry.first) == 0) {
      return what + ": unexpected " + entry.first;
    }
  }
  return "";
}

SyscallCounts CountTraceEntries(const std::string& log, std::string* error) {
  static const std::unordered_map<std::string, int> kByName = [] {
    std::unordered_map<std::string, int> names;
    for (int n = 0; n < ia::kMaxSyscall; ++n) {
      const ia::SyscallSpec& spec = ia::SyscallSpecOf(n);
      if ((spec.flags & ia::kImplemented) != 0) {
        names.emplace(std::string(spec.name), n);
      }
    }
    return names;
  }();
  SyscallCounts counts{};
  size_t pos = 0;
  while (pos < log.size()) {
    size_t end = log.find('\n', pos);
    if (end == std::string::npos) {
      end = log.size();
    }
    const std::string_view line(log.data() + pos, end - pos);
    pos = end + 1;
    // "<pid>: name(args) ... ]", "<pid>: ... name(args) -> result" or, for
    // calls that do not return, "<pid>: name(args)".
    const size_t colon = line.find(": ");
    if (colon == std::string_view::npos) {
      *error = "trace: unparseable line";
      continue;
    }
    const std::string_view text = line.substr(colon + 2);
    if (text.substr(0, 4) == "... ") {
      continue;
    }
    const size_t paren = text.find('(');
    const auto it = kByName.find(std::string(text.substr(0, paren)));
    if (paren == std::string_view::npos || it == kByName.end()) {
      *error = "trace: unknown call in line \"" + std::string(text.substr(0, 40)) + "\"";
      continue;
    }
    ++counts[static_cast<size_t>(it->second)];
  }
  return counts;
}

std::string CheckTraceCounts(const std::string& log, const SyscallCounts& expected) {
  std::string error;
  const SyscallCounts counts = CountTraceEntries(log, &error);
  if (!error.empty()) {
    return error;
  }
  for (int n = 0; n < ia::kMaxSyscall; ++n) {
    const size_t i = static_cast<size_t>(n);
    if (counts[i] != expected[i]) {
      return ia::StringPrintf("trace: %lld %s entries, the application issued %lld",
                              static_cast<long long>(counts[i]), Name(n).c_str(),
                              static_cast<long long>(expected[i]));
    }
  }
  return "";
}

AndrewFigures ComputeAndrewFigures(const Tree& source) {
  AndrewFigures f;
  for (const auto& [path, contents] : source) {
    if (!path.empty() && path.back() == '/') {
      ++f.dirs;
      continue;
    }
    ++f.files;
    f.size += static_cast<int64_t>(contents.size());
    // Tokens are maximal runs of characters other than ' '.
    bool in_token = false;
    for (const char c : contents) {
      if (c == ' ') {
        in_token = false;
      } else if (!in_token) {
        in_token = true;
        ++f.tokens;
      }
    }
  }
  f.read = f.size;
  return f;
}

std::string CheckMakelog(const std::string& makelog, const AndrewFigures& want) {
  long long files = -1;
  long long dirs = -1;
  long long size = -1;
  long long read = -1;
  long long tokens = -1;
  if (std::sscanf(makelog.c_str(), "files=%lld dirs=%lld size=%lld read=%lld tokens=%lld", &files,
                  &dirs, &size, &read, &tokens) != 5) {
    return "andrew: MAKELOG unparseable";
  }
  const struct {
    const char* name;
    long long got;
    int64_t want;
  } fields[] = {{"files", files, want.files},
                {"dirs", dirs, want.dirs},
                {"size", size, want.size},
                {"read", read, want.read},
                {"tokens", tokens, want.tokens}};
  for (const auto& field : fields) {
    if (field.got != field.want) {
      return ia::StringPrintf("andrew: MAKELOG %s=%lld, expected %lld", field.name, field.got,
                              static_cast<long long>(field.want));
    }
  }
  return "";
}

std::string CheckDfsAgainstKtrace(const std::string& dfs_log,
                                  const std::vector<ia::KtraceRecord>& ktrace,
                                  const std::string& log_path, uint64_t dropped) {
  if (dropped != 0) {
    return ia::StringPrintf("andrew: ktrace ring dropped %llu records",
                            static_cast<unsigned long long>(dropped));
  }
  struct Opcode {
    ia::DfsOpcode op;
    int number;
    bool compare_paths;
  };
  const Opcode opcodes[] = {{ia::DfsOpcode::kOpen, ia::kSysOpen, true},
                            {ia::DfsOpcode::kClose, ia::kSysClose, false},
                            {ia::DfsOpcode::kStat, ia::kSysStat, true},
                            {ia::DfsOpcode::kSeek, ia::kSysLseek, false}};
  const std::vector<ia::DfsDecodedRecord> records = ia::DecodeDfsTraceLog(dfs_log);
  bool log_open_seen = false;
  for (const Opcode& opcode : opcodes) {
    std::vector<std::string> agent_paths;
    for (const ia::DfsDecodedRecord& r : records) {
      if (r.header.opcode == static_cast<uint8_t>(opcode.op)) {
        agent_paths.push_back(r.payload);
      }
    }
    std::vector<std::string> kernel_paths;
    for (const ia::KtraceRecord& r : ktrace) {
      if (r.kind != ia::KtraceEventKind::kSyscall || r.syscall != opcode.number) {
        continue;
      }
      // The agent opens its log on the raw interface before it is interposed.
      if (opcode.number == ia::kSysOpen && r.path == log_path && !log_open_seen) {
        log_open_seen = true;
        continue;
      }
      kernel_paths.push_back(r.path);
    }
    if (agent_paths.size() != kernel_paths.size()) {
      return ia::StringPrintf("andrew: %zu dfs_trace %s records, %zu ktrace records",
                              agent_paths.size(), Name(opcode.number).c_str(),
                              kernel_paths.size());
    }
    if (opcode.compare_paths && agent_paths != kernel_paths) {
      return "andrew: dfs_trace and ktrace " + Name(opcode.number) + " paths differ";
    }
  }
  if (!log_open_seen) {
    return "andrew: ktrace holds no open of the dfs_trace log";
  }
  return "";
}

std::string CheckMix(const MixResult& r, const ClientExpect& want, int64_t prev_us) {
  if (r.getpid != want.pid) {
    return ia::StringPrintf("clients: getpid %lld, fork returned %lld",
                            static_cast<long long>(r.getpid), static_cast<long long>(want.pid));
  }
  if (r.gtod_status != 0) {
    return "clients: gettimeofday failed";
  }
  if (r.tv.tv_sec < want.min_tv_sec || r.tv.tv_sec > want.max_tv_sec) {
    return ia::StringPrintf("clients: gettimeofday %lld s lacks the timex offset",
                            static_cast<long long>(r.tv.tv_sec));
  }
  if (r.tv.tv_sec * 1000000 + r.tv.tv_usec < prev_us) {
    return "clients: gettimeofday went backwards";
  }
  if (r.fstat_status != 0 || r.fstat.st_size != want.size) {
    return "clients: fstat size differs from the generated file";
  }
  if (r.lseek != 0) {
    return "clients: lseek did not return 0";
  }
  if (r.read != 1024 || r.buf == nullptr ||
      std::memcmp(r.buf, want.first_kib.data(), want.first_kib.size()) != 0) {
    return "clients: read returned other bytes than the generated file's";
  }
  if (r.stat_status != 0 || r.stat.st_size != want.size) {
    return "clients: stat size differs from the generated file";
  }
  return "";
}

std::string CheckRingMatchesSync(const MixResult& sync, const MixResult& ring) {
  if (ring.getpid != sync.getpid) {
    return "clients: ring getpid differs from sync";
  }
  if (ring.gtod_status != sync.gtod_status ||
      ring.tv.tv_sec * 1000000 + ring.tv.tv_usec < sync.tv.tv_sec * 1000000 + sync.tv.tv_usec) {
    return "clients: ring gettimeofday earlier than sync";
  }
  if (ring.fstat_status != sync.fstat_status || ring.fstat.st_size != sync.fstat.st_size ||
      ring.fstat.st_ino != sync.fstat.st_ino) {
    return "clients: ring fstat differs from sync";
  }
  if (ring.lseek != sync.lseek) {
    return "clients: ring lseek differs from sync";
  }
  if (ring.read != sync.read || ring.buf == nullptr || sync.buf == nullptr ||
      std::memcmp(ring.buf, sync.buf, static_cast<size_t>(std::max<int64_t>(0, sync.read))) != 0) {
    return "clients: ring read differs from sync";
  }
  if (ring.stat_status != sync.stat_status || ring.stat.st_size != sync.stat.st_size ||
      ring.stat.st_ino != sync.stat.st_ino) {
    return "clients: ring stat differs from sync";
  }
  return "";
}

std::string CheckIssuedCalls(const SyscallCounts& kernel_delta, const SyscallCounts& issued,
                             const std::vector<int>& rows) {
  for (int n = 0; n < ia::kMaxSyscall; ++n) {
    const size_t i = static_cast<size_t>(n);
    const bool listed = std::find(rows.begin(), rows.end(), n) != rows.end();
    if ((listed || issued[i] != 0) && kernel_delta[i] != issued[i]) {
      return ia::StringPrintf("clients: kernel counted %lld %s calls, the benchmark issued %lld",
                              static_cast<long long>(kernel_delta[i]), Name(n).c_str(),
                              static_cast<long long>(issued[i]));
    }
  }
  return "";
}

std::string CheckEchoReply(const std::string& request, const std::string& reply) {
  if (reply != request) {
    return ia::StringPrintf("echo: reply of %zu bytes differs from its %zu-byte request",
                            reply.size(), request.size());
  }
  return "";
}

std::string CheckByteConservation(int64_t sent, int64_t received, const std::string& what) {
  if (sent != received) {
    return ia::StringPrintf("echo: %s sent %lld bytes, received %lld", what.c_str(),
                            static_cast<long long>(sent), static_cast<long long>(received));
  }
  return "";
}

std::string CheckFaultPlane(int64_t eintr_injected, int64_t shorts_injected, int64_t give_ups) {
  if (eintr_injected <= 0) {
    return "echo: the fault plan injected no EINTR";
  }
  if (shorts_injected <= 0) {
    return "echo: the fault plan injected no short transfer";
  }
  if (give_ups != 0) {
    return ia::StringPrintf("echo: the retry agent gave up %lld times",
                            static_cast<long long>(give_ups));
  }
  return "";
}

}  // namespace agentbench
