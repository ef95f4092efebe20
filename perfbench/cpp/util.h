#pragma once

// Shared plumbing of the benchmark: the monotonic clock, order statistics,
// the metric sink that becomes the result line, the in-memory span recorder
// behind the traced run, Prometheus text parsing for replica /metrics
// deltas, and host facts for the host block.

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Whether a sample of `count` leaves `beyond` samples above its p99.
[[nodiscard]] bool SupportsP99(size_t count, size_t beyond = 10);

/// Metrics in the order they were added; rendered as the result line.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>>&
  Items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// JSON string literal with the characters JSON requires escaped.
[[nodiscard]] std::string JsonString(const std::string& s);
/// A double with all its digits (%.17g); non-finite values become 0.
[[nodiscard]] std::string JsonNumber(double v);

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded only from
/// the benchmark's own code, around calls into the layers of the system
/// under test; nothing is written until WriteChromeTrace at exit.
/// Disabled (the untraced runs), recording returns after one atomic load.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on);
  [[nodiscard]] bool Enabled() const { return enabled_; }

  /// Records a finished span; `request` ties a request's spans together
  /// (0 = none).
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request = 0);

  [[nodiscard]] size_t NumSpans() const;

  /// Chrome trace-event JSON ("X" events, one per span, µs timestamps).
  void WriteChromeTrace(const std::string& path) const;

 private:
  struct SpanRecord {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t request;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call into a layer. A no-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0)
      : name_(name), request_(request),
        start_ns_(Tracer::Get().Enabled() ? NowNs() : 0) {}
  ~Span() {
    if (start_ns_ != 0) {
      Tracer::Get().Record(name_, start_ns_, NowNs(), request_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t request_;
  int64_t start_ns_;
};

// --- host stalls ------------------------------------------------------------

/// A span of time in which this whole machine stopped running us.
struct HostStall {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// While it lives, a thread sleeps 1 ms at a time and records every wake-up
/// more than 3 ms late. On a shared virtual machine the whole guest is
/// descheduled for 5-20 ms about once a second, which puts every process
/// of a run on hold at once; the sentinel sees exactly these pauses, so
/// callers can tell work caught in one apart from the system's own time.
class StallSentinel {
 public:
  StallSentinel();
  ~StallSentinel() { (void)Stop(); }
  StallSentinel(const StallSentinel&) = delete;
  StallSentinel& operator=(const StallSentinel&) = delete;

  /// Stops the thread and returns what it saw.
  std::vector<HostStall> Stop();

 private:
  std::atomic<bool> done_{false};
  std::vector<HostStall> stalls_;  // the thread's until Stop joins it
  std::thread thread_;             // last: starts after the members exist
};

// --- replica /metrics --------------------------------------------------------

/// One Prometheus exposition, parsed: plain samples by name, and histogram
/// buckets (finite upper bounds plus cumulative counts, +Inf last).
struct PromSnapshot {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;

  [[nodiscard]] double Value(const std::string& name) const;
};

[[nodiscard]] PromSnapshot ParsePrometheus(const std::string& text);

/// after - before, per series (counters and histogram buckets), summed over
/// replicas: the per-phase view of process-lifetime accumulators.
[[nodiscard]] PromSnapshot DeltaSum(const std::vector<PromSnapshot>& before,
                                    const std::vector<PromSnapshot>& after);

/// Quantile of a (delta) histogram by linear interpolation inside the bucket
/// that crosses the rank — the convention of the service's own histograms.
[[nodiscard]] double HistogramQuantile(const PromSnapshot& snap,
                                       const std::string& name, double q);

// --- host -------------------------------------------------------------------

/// Peak resident set (VmHWM) of a process, in MiB; 0 if it is gone.
[[nodiscard]] double PeakRssMb(pid_t pid);
/// Direct children of `pid` (from /proc/*/stat).
[[nodiscard]] std::vector<pid_t> ChildrenOf(pid_t pid);

/// The CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> AllowedCpus();
/// Pins thread `tid` (0: the calling thread) to one CPU; false if refused.
bool PinThread(pid_t tid, int cpu);
/// Pins every thread process `pid` has now to one CPU (threads it starts
/// later inherit the pin of the thread that starts them).
void PinProcess(pid_t pid, int cpu);

/// Pins the calling thread to `cpu` while it lives (cpu < 0: does nothing)
/// and gives it back its CPUs afterwards.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  std::vector<int> saved_;
};

/// The host block: cores, CPU model, cache sizes and build configuration.
[[nodiscard]] std::string HostJson();

/// FNV-1a over raw bytes, for the sampled-answer digest.
[[nodiscard]] uint64_t Fnv1a(uint64_t hash, const void* data, size_t size);
inline constexpr uint64_t kFnvSeed = 14695981039346656037ULL;

}  // namespace perfbench
