#include "util.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

bool SupportsP99(size_t count, size_t beyond) {
  return count >= beyond * 100;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- tracing ----------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(bool on) { enabled_ = on; }

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, request});
}

size_t Tracer::NumSpans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"name\": " << JsonString(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << JsonNumber(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ", \"dur\": "
        << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ", \"args\": {\"request\": " << s.request << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// --- host stalls ------------------------------------------------------------

StallSentinel::StallSentinel()
    : thread_([this] {
        constexpr int64_t kNapNs = 1'000'000;
        constexpr int64_t kStallNs = 3'000'000;
        while (!done_) {
          const int64_t t0 = NowNs();
          std::this_thread::sleep_for(std::chrono::nanoseconds(kNapNs));
          const int64_t t1 = NowNs();
          if (t1 - t0 > kNapNs + kStallNs) stalls_.push_back({t0 + kNapNs, t1});
        }
      }) {}

std::vector<HostStall> StallSentinel::Stop() {
  done_ = true;
  if (thread_.joinable()) thread_.join();
  return stalls_;
}

// --- replica /metrics --------------------------------------------------------

double PromSnapshot::Value(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

PromSnapshot ParsePrometheus(const std::string& text) {
  PromSnapshot snap;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const size_t brace = series.find("_bucket{le=\"");
    if (brace == std::string::npos) {
      snap.values[series] = value;
      continue;
    }
    const std::string name = series.substr(0, brace);
    const size_t bound_begin = brace + 12;
    const size_t bound_end = series.find('"', bound_begin);
    if (bound_end == std::string::npos) continue;
    const std::string bound = series.substr(bound_begin, bound_end - bound_begin);
    const double le = bound == "+Inf" ? HUGE_VAL : std::strtod(bound.c_str(),
                                                               nullptr);
    snap.buckets[name].push_back({le, value});
  }
  return snap;
}

PromSnapshot DeltaSum(const std::vector<PromSnapshot>& before,
                      const std::vector<PromSnapshot>& after) {
  PromSnapshot delta;
  for (size_t r = 0; r < after.size(); ++r) {
    const PromSnapshot* base = r < before.size() ? &before[r] : nullptr;
    for (const auto& [name, value] : after[r].values) {
      delta.values[name] += value - (base != nullptr ? base->Value(name) : 0.0);
    }
    for (const auto& [name, buckets] : after[r].buckets) {
      auto& out = delta.buckets[name];
      if (out.empty()) {
        out = buckets;
        for (auto& b : out) b.second = 0.0;
      }
      const std::vector<std::pair<double, double>>* base_buckets = nullptr;
      if (base != nullptr) {
        const auto it = base->buckets.find(name);
        if (it != base->buckets.end() && it->second.size() == buckets.size()) {
          base_buckets = &it->second;
        }
      }
      for (size_t i = 0; i < buckets.size() && i < out.size(); ++i) {
        out[i].second += buckets[i].second -
                         (base_buckets != nullptr ? (*base_buckets)[i].second
                                                  : 0.0);
      }
    }
  }
  return delta;
}

double HistogramQuantile(const PromSnapshot& snap, const std::string& name,
                         double q) {
  const auto it = snap.buckets.find(name);
  if (it == snap.buckets.end() || it->second.empty()) return 0.0;
  const auto& buckets = it->second;
  const double total = buckets.back().second;
  if (total <= 0.0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * total;
  double below = 0.0;
  double lower = 0.0;
  for (const auto& [le, cumulative] : buckets) {
    const double in_bucket = cumulative - below;
    if (in_bucket > 0.0 && cumulative >= rank) {
      if (!std::isfinite(le)) return lower;  // +Inf: largest finite bound
      const double into = std::clamp((rank - below) / in_bucket, 0.0, 1.0);
      return lower + (le - lower) * into;
    }
    below = cumulative;
    if (std::isfinite(le)) lower = le;
  }
  return lower;
}

// --- host -------------------------------------------------------------------

namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::vector<pid_t> ChildrenOf(pid_t pid) {
  std::vector<pid_t> children;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return children;
  while (const dirent* entry = ::readdir(dir)) {
    const pid_t candidate =
        static_cast<pid_t>(std::strtol(entry->d_name, nullptr, 10));
    if (candidate <= 0) continue;
    // /proc/<pid>/stat: "pid (comm) state ppid ..."; comm may hold spaces,
    // so parse from the last ')'.
    const std::string stat =
        ReadFirstLine("/proc/" + std::string(entry->d_name) + "/stat");
    const size_t paren = stat.rfind(')');
    if (paren == std::string::npos) continue;
    char state = 0;
    int ppid = 0;
    if (std::sscanf(stat.c_str() + paren + 1, " %c %d", &state, &ppid) == 2 &&
        ppid == pid) {
      children.push_back(candidate);
    }
  }
  ::closedir(dir);
  return children;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

namespace {

bool SetAffinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(static_cast<unsigned>(c), &set);
  return ::sched_setaffinity(tid, sizeof(set), &set) == 0;
}

}  // namespace

bool PinThread(pid_t tid, int cpu) { return SetAffinity(tid, {cpu}); }

void PinProcess(pid_t pid, int cpu) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return;
  while (const dirent* entry = ::readdir(tasks)) {
    const auto tid = static_cast<pid_t>(std::strtol(entry->d_name, nullptr, 10));
    if (tid > 0) (void)PinThread(tid, cpu);
  }
  ::closedir(tasks);
}

ScopedPin::ScopedPin(int cpu) {
  if (cpu < 0) return;
  saved_ = AllowedCpus();
  if (!PinThread(0, cpu)) saved_.clear();
}

ScopedPin::~ScopedPin() {
  if (!saved_.empty()) (void)SetAffinity(0, saved_);
}

std::string HostJson() {
  std::string cpu_model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const size_t colon = line.find(':');
        if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
        break;
      }
    }
  }
  std::string l2 = "unknown";
  std::string l3 = "unknown";
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = ReadFirstLine(base + "level");
    if (level.empty()) continue;
    const std::string size = ReadFirstLine(base + "size");
    if (level == "2") l2 = size;
    if (level == "3") l3 = size;
  }
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + JsonString(cpu_model);
  out += ", \"l2\": " + JsonString(l2);
  out += ", \"l3\": " + JsonString(l3);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"phast_arch\": " + JsonString(PERFBENCH_ARCH);
  out += ", \"phast_tracing\": " + JsonString(PERFBENCH_TRACING);
  out += "}";
  return out;
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace perfbench
