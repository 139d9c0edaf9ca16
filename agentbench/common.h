// Shared pieces of the agent-system benchmark: options, the metric report,
// host resource usage, and the probe agent used by traced runs.
//
// Everything here measures the system from outside: it times calls into the
// public API (Kernel, RunUnderAgents, ProcessContext, BatchClient, the agent
// classes) and reads the kernel's and agents' public counters.
#ifndef AGENTBENCH_COMMON_H_
#define AGENTBENCH_COMMON_H_

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/toolkit/numeric_syscall.h"

namespace agentbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int64_t main_start_ns = 0;  // process start, for the cold set-up time
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Metrics in insertion order; Set() on an existing name overwrites it.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// What one benchmark run hands back to main().
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks; empty = correct
  Report metrics;

  void Fail(const std::string& what) {
    if (!what.empty() && errors.size() < 20) {
      errors.push_back(what);
    }
  }
};

// getrusage(RUSAGE_SELF) deltas: CPU split and voluntary context switches.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  int64_t nvcsw = 0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
    u.nvcsw = ru.ru_nvcsw;
    return u;
  }
  Usage operator-(const Usage& o) const {
    return Usage{user_s - o.user_s, sys_s - o.sys_s, nvcsw - o.nvcsw};
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    nvcsw += o.nvcsw;
    return *this;
  }
};

// Peak resident set of this process image, from VmHWM in /proc/self/status.
// (getrusage's ru_maxrss is not used: it carries over the peak of the image
// that exec'd this one, such as the Python launcher's.)
inline double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

// Samples with bounded memory: keeps every stride-th sample and, when
// full, drops every other kept one and doubles the stride. What is kept is an
// even subsample over the whole run, however many operations a run completes,
// so the benchmark's own memory does not grow with the program's speed.
class Samples {
 public:
  void Add(double value) {
    if (seen_++ % stride_ == 0) {
      kept_.push_back(value);
      if (kept_.size() == kCapacity) {
        for (size_t i = 0; i < kCapacity / 2; ++i) {
          kept_[i] = kept_[2 * i];
        }
        kept_.resize(kCapacity / 2);
        stride_ *= 2;
      }
    }
  }
  // Adds every sample `other` kept, multiplied by `scale`.
  void Merge(const Samples& other, double scale) {
    for (const double v : other.kept_) {
      Add(v * scale);
    }
  }
  const std::vector<double>& kept() const { return kept_; }

 private:
  static constexpr size_t kCapacity = 1 << 16;
  std::vector<double> kept_;
  int64_t seen_ = 0;
  int64_t stride_ = 1;
};

// The host-speed gauge: a fixed task of the benchmark's own, timed next to
// every block of the workload, so that times can be reported at one reference
// host speed.
//
// The shared virtual machine this benchmark was written on alternates, in
// phases of seconds to minutes, between a fast state and one in which the same
// make takes about 1.5 times as long; a 20-second run can fall wholly in
// either. What slows is creating threads, touching fresh pages and handing a
// CPU between threads, which is what the program's processes (one host thread
// each) do most. The gauge does the same with std::thread, std::string and a
// condition variable only, so no change to the program moves it. Over 90
// seconds of back-to-back makes the make's time moved between 21.9 and 35.4 ms
// in 3-second windows while its ratio to the gauge stayed within 10.6-11.2
// (andrew: 22.3-33.3 ms, ratio 9.6-10.3).
class HostGauge {
 public:
  // The gauge's time on the development host in its fast state. Times are
  // scaled by kReferenceMs / (the gauge's time next to them).
  static constexpr double kReferenceMs = 2.0;

  // Runs the task once on each CPU the calling thread may run on (the CPUs
  // the workload is confined to); returns the mean wall time in ms.
  static double MeasureMs() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    double sum = 0;
    int cpus = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        sum += MeasureOnMs(cpu);
        ++cpus;
      }
    }
    return cpus > 0 ? sum / cpus : 0;
  }

  // The factor that takes a time measured next to a gauge reading of
  // `gauge_ms` to the reference host speed.
  static double Scale(double gauge_ms) { return gauge_ms > 0 ? kReferenceMs / gauge_ms : 1; }

 private:
  static constexpr int kRounds = 4;
  static constexpr int kHandOffs = 100;
  static constexpr int kStrings = 300;
  static constexpr size_t kPageBytes = 256 * 1024;

  // Runs the task once with all its threads on `cpu`; returns its wall time
  // in ms.
  static double MeasureOnMs(int cpu) {
    const int64_t start = NowNs();
    std::mutex mu;
    std::condition_variable cv;
    int turn = 0;
    const auto pass = [&](int parity) {
      for (int i = 0; i < kHandOffs; ++i) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return turn % 2 == parity; });
        ++turn;
        cv.notify_all();
      }
    };
    cpu_set_t here;
    CPU_ZERO(&here);
    CPU_SET(cpu, &here);
    const auto stay = [&here] { pthread_setaffinity_np(pthread_self(), sizeof(here), &here); };
    for (int round = 0; round < kRounds; ++round) {
      std::thread worker([&] {
        stay();
        std::vector<std::string> strings;
        for (int i = 0; i < kStrings; ++i) {
          strings.emplace_back(200, static_cast<char>('a' + i % 26));
        }
        std::vector<char> pages(kPageBytes);
        for (size_t i = 0; i < pages.size(); i += 4096) {
          pages[i] = 1;
        }
        sink_.fetch_add(static_cast<int64_t>(strings.size()) + pages[4096],
                        std::memory_order_relaxed);
        pass(0);
      });
      std::thread partner([&] {
        stay();
        pass(1);
      });
      worker.join();
      partner.join();
    }
    return MsSince(start);
  }

  static inline std::atomic<int64_t> sink_{0};
};

using SyscallCounts = std::array<int64_t, ia::kMaxSyscall>;

inline SyscallCounts CallCounts(ia::Kernel& kernel) {
  SyscallCounts counts{};
  const auto stats = kernel.SyscallStats();
  for (int n = 0; n < ia::kMaxSyscall; ++n) {
    counts[static_cast<size_t>(n)] = stats[static_cast<size_t>(n)].calls;
  }
  return counts;
}

inline SyscallCounts Minus(const SyscallCounts& a, const SyscallCounts& b) {
  SyscallCounts d{};
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = a[i] - b[i];
  }
  return d;
}

inline int64_t Total(const SyscallCounts& c) {
  int64_t t = 0;
  for (const int64_t v : c) {
    t += v;
  }
  return t;
}

// A probe: an all-calls NumericSyscall agent that times its CallDown() per
// syscall row. Traced runs put one outermost, one between each pair of
// adjacent agents, and one nearest the kernel; differences between adjacent
// probes give each layer's self time. One instance is shared by every process
// of a world (fork children re-install the same instance), so the tallies are
// atomics.
class ProbeAgent final : public ia::NumericSyscall {
 public:
  // The outermost probe also sums, per process thread, the gaps between the
  // return of one call and the entry of the next: the application's own time.
  explicit ProbeAgent(bool outermost) : outermost_(outermost) {}

  std::string name() const override { return "probe"; }

  int64_t calls(int number) const { return rows_[Index(number)].calls.load(); }
  int64_t ns(int number) const { return rows_[Index(number)].ns.load(); }
  int64_t app_gap_ns() const { return gap_ns_.load(); }

 protected:
  void init(ia::ProcessContext& /*ctx*/) override { register_interest_all(); }

  ia::SyscallStatus syscall(ia::AgentCall& call) override {
    // Per-thread: every simulated process runs on its own host thread.
    static thread_local int64_t last_return_ns = 0;
    Row& row = rows_[Index(call.number())];
    const int64_t start = NowNs();
    if (outermost_ && last_return_ns != 0) {
      gap_ns_.fetch_add(start - last_return_ns, std::memory_order_relaxed);
    }
    row.calls.fetch_add(1, std::memory_order_relaxed);
    const ia::SyscallStatus status = call.CallDown();
    const int64_t end = NowNs();
    row.ns.fetch_add(end - start, std::memory_order_relaxed);
    if (outermost_) {
      last_return_ns = end;
    }
    return status;
  }

 private:
  struct Row {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> ns{0};
  };
  static size_t Index(int number) {
    return number >= 0 && number < ia::kMaxSyscall ? static_cast<size_t>(number) : 0;
  }

  bool outermost_;
  std::array<Row, ia::kMaxSyscall> rows_{};
  std::atomic<int64_t> gap_ns_{0};
};

using ProbeRef = std::shared_ptr<ProbeAgent>;

}  // namespace agentbench

#endif  // AGENTBENCH_COMMON_H_
