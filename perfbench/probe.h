// Measurement plumbing for perfbench: clocks, /proc readers, the span
// tracer and the metric sink that prints the final result line.
//
// Everything here observes the process from the outside of the library —
// per-thread CPU from /proc/self/task/<tid>/schedstat, context switches
// from .../status, peak RSS and storage writes from /proc/self — so the
// benchmark needs no hooks inside src/.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int CurrentTid();
// Every thread id of this process right now.
std::vector<int> ThreadIds();
// On-CPU nanoseconds of one thread of this process (schedstat), 0 if the
// thread is gone.
int64_t ThreadCpuNs(int tid);
// Summed on-CPU nanoseconds of `tids`.
int64_t ThreadsCpuNs(const std::vector<int>& tids);
// CPU time of the whole process.
int64_t ProcessCpuNs();
// Voluntary + involuntary context switches of one thread.
int64_t ThreadContextSwitches(int tid);
// VmHWM of the process, in MiB.
double PeakRssMb();
// write_bytes from /proc/self/io (bytes this process caused to be sent to
// storage), falling back to wchar when the kernel does not account it.
int64_t StorageWriteBytes();

// Pins the benchmark's threads to disjoint CPUs of the allowed set so that
// no two of its busy threads share a core: `dedicated` tids get one CPU
// each, in order; every other thread of the process shares the rest.
// Returns false (and pins nothing) when there are too few CPUs.
bool PinThreads(const std::vector<int>& dedicated);

// Machine facts recorded beside the results.
std::string CpuModel();
std::string CacheSizes();  // e.g. "L1d 48K, L2 2048K, L3 307200K"
std::string FilesystemOf(const std::string& path);

// Nearest-rank percentile of `values` (reorders them). 0 when empty.
double Percentile(std::vector<double>* values, double q);

// In-memory span recorder. Spans carry a name, a parent span (0 = root), a
// start/end on the steady clock and a work count; they are written out as
// JSON lines once, at exit. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (enabled) spans_.reserve(1 << 18);  // no reallocation while measuring
  }

  // Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent = 0);
  void End(uint64_t id, uint64_t count = 0);
  // Records a span whose interval is already known.
  void Record(const char* name, uint64_t parent, int64_t start_ns,
              int64_t end_ns, uint64_t count = 0);

  // Writes every span to `path` and prints per-name totals (count, summed
  // duration, summed self time) to stdout.
  bool WriteAndSummarize(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    uint64_t parent = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t count = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;  // span id = index + 1
};

// RAII span for a call into one layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void set_count(uint64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  uint64_t id_;
  uint64_t count_ = 0;
};

// Named metrics in print order; Emit writes the human-readable table and
// then the single-line JSON result.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Emit(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
