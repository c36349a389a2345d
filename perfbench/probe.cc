#include "probe.h"

#include <dirent.h>
#include <sched.h>
#include <sys/statfs.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

// First number after `key` in a "key: value" /proc file, or -1.
int64_t ProcField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtoll(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return -1;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    tids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

int64_t ThreadCpuNs(int tid) {
  const std::string line =
      ReadFirstLine("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  if (line.empty()) return 0;
  return std::strtoll(line.c_str(), nullptr, 10);
}

int64_t ThreadsCpuNs(const std::vector<int>& tids) {
  int64_t total = 0;
  for (const int tid : tids) total += ThreadCpuNs(tid);
  return total;
}

int64_t ProcessCpuNs() {
  timespec ts = {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

int64_t ThreadContextSwitches(int tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/status";
  const int64_t voluntary = ProcField(path, "voluntary_ctxt_switches:");
  const int64_t involuntary = ProcField(path, "nonvoluntary_ctxt_switches:");
  return std::max<int64_t>(voluntary, 0) + std::max<int64_t>(involuntary, 0);
}

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

int64_t StorageWriteBytes() {
  const int64_t bytes = ProcField("/proc/self/io", "write_bytes:");
  if (bytes > 0) return bytes;
  return std::max<int64_t>(ProcField("/proc/self/io", "wchar:"), 0);
}

bool PinThreads(const std::vector<int>& dedicated) {
  // The CPUs the process may use, read once: after the first call the
  // caller's own mask is a single CPU.
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed_cpus;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
      return allowed_cpus;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) allowed_cpus.push_back(cpu);
    }
    return allowed_cpus;
  }();
  if (cpus.size() <= dedicated.size()) return false;
  auto pin = [](int tid, const std::vector<int>& set) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (const int cpu : set) CPU_SET(cpu, &mask);
    sched_setaffinity(tid, sizeof(mask), &mask);
  };
  const std::vector<int> shared(cpus.begin() + dedicated.size(), cpus.end());
  for (const int tid : ThreadIds()) {
    const auto it = std::find(dedicated.begin(), dedicated.end(), tid);
    if (it == dedicated.end()) {
      pin(tid, shared);
    } else {
      pin(tid, {cpus[static_cast<size_t>(it - dedicated.begin())]});
    }
  }
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string CacheSizes() {
  std::ostringstream out;
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = ReadFirstLine(base + "/level");
    if (level.empty()) break;
    const std::string type = ReadFirstLine(base + "/type");
    if (type == "Instruction") continue;
    if (out.tellp() > 0) out << ", ";
    out << "L" << level << (type == "Data" ? "d" : "") << " "
        << ReadFirstLine(base + "/size");
  }
  return out.str();
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs = {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "fs-0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  const size_t rank = std::min(
      values->size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values->size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(values->begin(), values->begin() + rank, values->end());
  return (*values)[rank];
}

uint64_t Tracer::Begin(const char* name, uint64_t parent) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, parent, NowNs(), 0, 0});
  return spans_.size();
}

void Tracer::End(uint64_t id, uint64_t count) {
  if (!enabled_ || id == 0) return;
  Span& span = spans_[id - 1];
  span.end_ns = NowNs();
  span.count = count;
}

void Tracer::Record(const char* name, uint64_t parent, int64_t start_ns,
                    int64_t end_ns, uint64_t count) {
  if (!enabled_) return;
  spans_.push_back(Span{name, parent, start_ns, end_ns, count});
}

bool Tracer::WriteAndSummarize(const std::string& path) const {
  if (!enabled_) return true;
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  struct Total {
    uint64_t spans = 0;
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Total> totals;
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << span.name
        << "\",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"count\":" << span.count
        << "}\n";
    Total& total = totals[span.name];
    ++total.spans;
    total.count += span.count;
    total.total_ns += duration;
    total.self_ns += std::max<int64_t>(0, duration - child_ns[i + 1]);
  }
  std::printf("trace: %zu spans written to %s\n", spans_.size(),
              path.c_str());
  for (const auto& [name, total] : totals) {
    std::printf("  span %-28s n=%-8llu work=%-10llu total=%10.3f ms "
                "self=%10.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(total.spans),
                static_cast<unsigned long long>(total.count),
                static_cast<double>(total.total_ns) / 1e6,
                static_cast<double>(total.self_ns) / 1e6);
  }
  return out.good();
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void MetricSink::Emit(bool correct, uint64_t attempted,
                      uint64_t failed) const {
  for (const Metric& metric : metrics_) {
    std::printf("  %-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    // JSON has no infinity; an infinite latency (failed requests) prints as
    // a value worse than any measurement.
    const double value =
        std::isfinite(metrics_[i].value) ? metrics_[i].value : 1e300;
    json << (i ? ", " : "") << "\"" << metrics_[i].name
         << "\": {\"value\": " << value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
