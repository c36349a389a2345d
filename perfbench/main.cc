// perfbench — the repository's benchmark: one binary, three workloads,
// every end-to-end metric (or, with --trace 1, every per-layer metric)
// printed by name and unit, and every correctness gate fatal.
//
//   perfbench --workload <tcp_read_hot|tcp_durable_ingest|inproc_engine>
//             --seed N --seconds S --trace 0|1
//             [--out_dir DIR] [--inject drop-reply|corrupt-fingerprint]
//
// The program is driven only through its public entry points: net::Client
// over loopback TCP to a net::Server, ObjectService (SubmitBatch /
// WaitBatch / Stats / Load / Checkpoint / Recover), ObjectShard::ServeSlot
// and the net/wire.h codec. METRICS.md beside this file defines every
// metric and the layer -> end-to-end map.


#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gate.h"
#include "loadgen.h"
#include "objalloc/core/object_service.h"
#include "objalloc/net/server.h"
#include "objalloc/net/wire.h"
#include "objalloc/util/crc32.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/zipf_objects.h"
#include "probe.h"

namespace perfbench {
namespace {

namespace core = objalloc::core;
namespace net = objalloc::net;
namespace util = objalloc::util;
namespace model = objalloc::model;
namespace workload = objalloc::workload;
using Event = workload::MultiObjectEvent;

const model::CostModel kCostModel =
    model::CostModel::StationaryComputing(0.25, 1.0);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string inject;
  std::string out_dir = ".bench_build";
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> values) {
  return Percentile(&values, 0.5);
}

// ---------------------------------------------------------------------------
// Engine fingerprint: request count, the paper's message/IO counts, and the
// CRC of the (id, scheme) table — what a correct replay must reproduce.

struct Fingerprint {
  int64_t requests = 0;
  int64_t control = 0;
  int64_t data = 0;
  int64_t io = 0;
  uint32_t scheme_crc = 0;

  bool operator==(const Fingerprint&) const = default;
  double CostPerEvent() const {
    const model::CostBreakdown breakdown{control, data, io};
    return Ratio(breakdown.Cost(kCostModel), static_cast<double>(requests));
  }
  std::string ToString() const {
    return "requests=" + std::to_string(requests) +
           " control=" + std::to_string(control) +
           " data=" + std::to_string(data) + " io=" + std::to_string(io) +
           " scheme_crc=" + std::to_string(scheme_crc);
  }
};

Fingerprint FingerprintOf(const core::ObjectService& service) {
  Fingerprint print;
  print.requests = service.TotalRequests();
  const model::CostBreakdown breakdown = service.TotalBreakdown();
  print.control = breakdown.control_messages;
  print.data = breakdown.data_messages;
  print.io = breakdown.io_ops;
  for (core::ObjectId id : service.SortedObjectIds()) {
    const uint64_t mask = service.StatsFor(id)->scheme.mask();
    print.scheme_crc = util::Crc32(&id, sizeof(id), print.scheme_crc);
    print.scheme_crc = util::Crc32(&mask, sizeof(mask), print.scheme_crc);
  }
  return print;
}

Fingerprint FingerprintOf(const net::WireStats& stats) {
  return Fingerprint{stats.total_requests, stats.control_messages,
                     stats.data_messages, stats.io_ops, stats.scheme_crc};
}

void CheckFingerprint(const Fingerprint& served, const Fingerprint& replayed,
                      const Args& args, const std::string& what) {
  Fingerprint checked = served;
  if (args.inject == "corrupt-fingerprint") checked.scheme_crc ^= 1;
  Gate(checked == replayed, what + " does not reproduce the served engine: "
                                   "served " + checked.ToString() +
                                   " vs " + replayed.ToString());
  Gate(checked.CostPerEvent() == replayed.CostPerEvent(),
       what + ": cost_per_event differs from the served value");
  std::printf("gate ok: %s reproduces the served fingerprint (%s)\n",
              what.c_str(), served.ToString().c_str());
}

// ---------------------------------------------------------------------------
// Workload inputs.

struct ObjectSpace {
  int processors = 8;
  int64_t objects = 0;
  std::vector<uint64_t> scheme_masks;  // per object id: its home set
};

void Register(core::ObjectService* service, const ObjectSpace& space) {
  service->ReserveObjects(static_cast<size_t>(space.objects));
  core::ObjectConfig config;
  config.algorithm = core::AlgorithmKind::kDynamic;
  for (int64_t id = 0; id < space.objects; ++id) {
    config.initial_scheme =
        model::ProcessorSet(space.scheme_masks[static_cast<size_t>(id)]);
    const util::Status status = service->AddObject(id, config);
    if (!status.ok()) Fail("AddObject: " + status.ToString());
  }
}

// Drives `service` with double-buffered SubmitBatch/WaitBatch calls: batch
// n + 1 is admitted while batch n is served. `next(n)` returns batch n, or
// an empty span to stop. Times both calls, samples Load() after every
// submit and records each batch's submit-to-completion latency.
struct PipelineStats {
  uint64_t events = 0;
  uint64_t batches = 0;
  int64_t submit_ns = 0;
  int64_t wait_ns = 0;
  double inflight_sum = 0;
  double queued_sum = 0;
  double queued_peak = 0;
  std::vector<double> latency_ms;
  double wall_s = 0;

  double PerEvent(int64_t ns) const {
    return Ratio(static_cast<double>(ns), static_cast<double>(events));
  }
  double PerBatch(double sum) const {
    return Ratio(sum, static_cast<double>(batches));
  }
};

template <typename Next>
PipelineStats RunPipelined(core::ObjectService* service, Next next,
                           Tracer* tracer, uint64_t parent) {
  PipelineStats stats;
  core::BatchResult results[2];
  core::BatchTicket tickets[2];
  int64_t submitted_at[2] = {0, 0};
  size_t sizes[2] = {0, 0};  // 0 = no batch in flight in the slot
  auto complete = [&](int slot) {
    if (sizes[slot] == 0) return;
    const int64_t t0 = NowNs();
    const util::Status waited = service->WaitBatch(&tickets[slot]);
    const int64_t t1 = NowNs();
    if (!waited.ok()) Fail("WaitBatch: " + waited.ToString());
    stats.wait_ns += t1 - t0;
    stats.latency_ms.push_back(
        static_cast<double>(t1 - submitted_at[slot]) / 1e6);
    tracer->Record("service.wait", parent, t0, t1, sizes[slot]);
    tracer->Record("engine.batch", parent, submitted_at[slot], t1,
                   sizes[slot]);
    sizes[slot] = 0;
  };
  const int64_t start = NowNs();
  for (uint64_t n = 0;; ++n) {
    const std::span<const Event> batch = next(n);
    if (batch.empty()) break;
    const int slot = static_cast<int>(n % 2);
    complete(slot);
    const int64_t t0 = NowNs();
    const util::Status submitted =
        service->SubmitBatch(batch, &results[slot], &tickets[slot]);
    const int64_t t1 = NowNs();
    if (!submitted.ok()) Fail("SubmitBatch: " + submitted.ToString());
    submitted_at[slot] = t0;
    sizes[slot] = batch.size();
    stats.submit_ns += t1 - t0;
    tracer->Record("service.submit", parent, t0, t1, batch.size());
    const core::ServiceLoad load = service->Load();
    const auto queued = static_cast<double>(load.executor_queued_ops);
    stats.inflight_sum += load.inflight_batches;
    stats.queued_sum += queued;
    stats.queued_peak = std::max(stats.queued_peak, queued);
    stats.events += batch.size();
    ++stats.batches;
  }
  // The older of the (up to two) in-flight batches completes first.
  complete(static_cast<int>(stats.batches % 2));
  complete(static_cast<int>((stats.batches + 1) % 2));
  stats.wall_s = Seconds(NowNs() - start);
  return stats;
}

// Replays `events` through a fresh in-process service in pipelined batches
// of `batch` events; `*print` receives the final fingerprint.
PipelineStats ReplayService(const ObjectSpace& space, int shards,
                            const std::vector<Event>& events, size_t batch,
                            Fingerprint* print, Tracer* tracer) {
  ScopedSpan span(tracer, "replay.service");
  span.set_count(events.size());
  core::ServiceOptions options;
  options.num_shards = shards;
  core::ObjectService service(space.processors, kCostModel, options);
  Register(&service, space);
  const PipelineStats stats = RunPipelined(
      &service,
      [&](uint64_t n) {
        const size_t first = n * batch;
        if (first >= events.size()) return std::span<const Event>();
        return std::span<const Event>(events.data() + first,
                                      std::min(batch, events.size() - first));
      },
      tracer, span.id());
  *print = FingerprintOf(service);
  return stats;
}

// Streams `events` through the wire codec as a client and server would:
// encode request frames, decode + parse them, encode the replies, decode +
// parse those. Returns nanoseconds per event.
double ReplayCodec(const std::vector<Event>& events, int batch,
                   Tracer* tracer) {
  ScopedSpan span(tracer, "replay.codec");
  const size_t limit = std::min<size_t>(events.size(), 200000);
  span.set_count(limit);
  std::string frames;
  std::string payload;
  std::string replies;
  std::vector<double> costs(static_cast<size_t>(batch), 1.0);
  std::vector<double> parsed_costs;
  const int64_t start = NowNs();
  for (size_t first = 0; first + static_cast<size_t>(batch) <= limit;
       first += static_cast<size_t>(batch)) {
    frames.clear();
    payload.clear();
    const uint64_t id = first + 1;
    if (batch == 1) {
      const Event& event = events[first];
      net::EncodeServe(
          net::ServeRequest{event.object,
                            static_cast<uint32_t>(event.request.processor), 0},
          &payload);
      net::AppendFrame(event.request.is_write() ? net::MsgType::kWrite
                                                : net::MsgType::kRead,
                       0, id, payload, &frames);
    } else {
      net::BatchRequest request;
      for (size_t i = first; i < first + static_cast<size_t>(batch); ++i) {
        request.items.push_back(net::BatchItem{
            events[i].object,
            static_cast<uint32_t>(events[i].request.processor),
            static_cast<uint8_t>(events[i].request.is_write())});
      }
      net::EncodeBatch(request, &payload);
      net::AppendFrame(net::MsgType::kBatch, 0, id, payload, &frames);
    }
    net::Frame frame;
    size_t consumed = 0;
    std::string error;
    if (net::DecodeFrame(frames, net::kDefaultMaxFrameBytes, &frame,
                         &consumed, &error) != net::DecodeResult::kFrame) {
      Fail("codec replay: request frame does not decode: " + error);
    }
    replies.clear();
    payload.clear();
    if (batch == 1) {
      net::ServeRequest request;
      if (!net::ParseServe(frame.payload, &request).ok() ||
          request.object != events[first].object) {
        Fail("codec replay: serve payload does not round-trip");
      }
      net::EncodeCost(1.0, &payload);
    } else {
      net::BatchRequest request;
      if (!net::ParseBatch(frame.payload, 1u << 20, &request).ok() ||
          request.items.size() != static_cast<size_t>(batch)) {
        Fail("codec replay: batch payload does not round-trip");
      }
      net::EncodeCosts(costs, &payload);
    }
    net::AppendFrame(static_cast<net::MsgType>(
                         static_cast<uint8_t>(frame.type) | net::kReplyBit),
                     0, id, payload, &replies);
    if (net::DecodeFrame(replies, net::kDefaultMaxFrameBytes, &frame,
                         &consumed, &error) != net::DecodeResult::kFrame) {
      Fail("codec replay: reply frame does not decode: " + error);
    }
    const bool reply_ok =
        batch == 1
            ? net::ParseCost(frame.payload, &costs[0]).ok()
            : net::ParseCosts(frame.payload, 1u << 20, &parsed_costs).ok();
    if (!reply_ok) Fail("codec replay: reply payload does not parse");
  }
  const int64_t elapsed = NowNs() - start;
  return Ratio(static_cast<double>(elapsed), static_cast<double>(limit));
}

// Serves `events` through one standalone ObjectShard (internal directory)
// holding every object, slot-addressed. Returns nanoseconds per ServeSlot
// and the summed breakdown.
double ReplayShard(const ObjectSpace& space, const std::vector<Event>& events,
                   model::CostBreakdown* total, Tracer* tracer) {
  ScopedSpan span(tracer, "replay.shard");
  const size_t limit = events.size();
  span.set_count(limit);
  core::ObjectShard shard(space.processors, kCostModel);
  shard.Reserve(static_cast<size_t>(space.objects));
  core::ObjectConfig config;
  config.algorithm = core::AlgorithmKind::kDynamic;
  for (int64_t id = 0; id < space.objects; ++id) {
    config.initial_scheme =
        model::ProcessorSet(space.scheme_masks[static_cast<size_t>(id)]);
    if (!shard.AddObject(id, config).ok()) Fail("shard AddObject failed");
  }
  std::vector<uint32_t> slots(limit);
  for (size_t i = 0; i < limit; ++i) slots[i] = shard.SlotOf(events[i].object);
  const int64_t start = NowNs();
  for (size_t i = 0; i < limit; ++i) {
    shard.ServeSlot(slots[i], events[i].request, total);
  }
  const int64_t elapsed = NowNs() - start;
  return Ratio(static_cast<double>(elapsed), static_cast<double>(limit));
}

// Adds the per-layer metrics a workload has no layer for, as zeros.
void AddAbsent(MetricSink* sink,
               const std::vector<std::pair<const char*, const char*>>& names) {
  for (const auto& [name, unit] : names) sink->Add(name, 0, unit);
}

// `threads` is the engine's OBJALLOC_THREADS; with 1 there is no executor
// and batches are served on the calling thread.
void PrintMachine(const char* workload, int threads, int extra_threads,
                  int connections) {
  const int nproc = util::HardwareConcurrency();
  const int workers = threads > 1 ? threads : 0;
  const int total = 1 + extra_threads + workers;
  std::printf("machine: nproc=%d cpu=\"%s\" caches: %s\n", nproc,
              CpuModel().c_str(), CacheSizes().c_str());
  std::printf("budget: %s threads=%d (loadgen/submitter 1 + %d service "
              "thread(s) + %d executor worker(s), OBJALLOC_THREADS=%d), "
              "connections=%d, nproc=%d\n",
              workload, total, extra_threads, workers, threads, connections,
              nproc);
}

// ---------------------------------------------------------------------------
// TCP workloads.

struct TcpConfig {
  const char* name;
  int64_t objects;
  int processors;
  double skew;
  double read_fraction;
  int batch;              // events per frame
  int shards;
  int workers;            // OBJALLOC_THREADS
  size_t window;          // closed loop, frames per connection
  double nominal_eps;     // open-loop rate for p50/p99
  double closed_cap_eps;  // sizes the pre-generated closed-loop stream
  int setup_repeats;
  bool durable;
};

constexpr int kConnections = 4;
// Events pre-generated per connection; longer runs cycle the stream.
constexpr size_t kStreamEvents = size_t{1} << 20;
const std::vector<double> kLadder = {10e3,  25e3,  50e3, 100e3,
                                     200e3, 400e3, 800e3};
constexpr double kLatencyLimitMs = 5.0;
constexpr double kLateLimitMs = 0.25;

// Open-loop latency percentiles over the windows the generator kept to
// schedule, every request of those windows pooled.
struct Latency {
  double p50_ms = 0;
  double p99_ms = 0;
  size_t valid_windows = 0;
  size_t windows = 0;

  explicit Latency(const PhaseStats& stats)
      : valid_windows(stats.ValidWindows(kLateLimitMs)),
        windows(stats.window_latency_ms.size()) {
    std::vector<double> pooled = stats.ValidLatencies(kLateLimitMs);
    p50_ms = Percentile(&pooled, 0.5);
    p99_ms = Percentile(&pooled, 0.99);
  }
  // Most windows on schedule: the rate was really offered.
  bool valid() const { return 2 * valid_windows > windows; }
};

// The server's latency at the nominal rate comes from the windows the
// generator kept to schedule only; with none, the open loop is not a server
// result. Fewer than half is reported beside the numbers
// (loadgen.valid_window_frac) and warned about.
Latency NominalLatency(const PhaseStats& stats) {
  const Latency latency(stats);
  const std::string late = std::to_string(latency.windows -
                                          latency.valid_windows) +
                           " of " + std::to_string(latency.windows) +
                           " windows";
  if (latency.valid_windows == 0) {
    Fail("open loop at the nominal rate is not a server result: the "
         "generator was more than 0.25 ms late in " + late);
  }
  if (!latency.valid()) {
    std::printf("warning: the generator was more than 0.25 ms late in %s; "
                "p50/p99 come from the rest\n", late.c_str());
  }
  return latency;
}

// CPU and storage counters of the benchmark's threads at one instant.
struct Counters {
  int64_t process_cpu = 0;
  int64_t loadgen_cpu = 0;
  int64_t loop_cpu = 0;
  int64_t service_cpu = 0;  // WAL + other library threads known at setup
  int64_t loop_ctxsw = 0;
  int64_t storage_bytes = 0;
  int64_t wall_ns = 0;

  Counters operator-(const Counters& o) const {
    return {process_cpu - o.process_cpu, loadgen_cpu - o.loadgen_cpu,
            loop_cpu - o.loop_cpu,       service_cpu - o.service_cpu,
            loop_ctxsw - o.loop_ctxsw,   storage_bytes - o.storage_bytes,
            wall_ns - o.wall_ns};
  }
  Counters operator+(const Counters& o) const {
    return {process_cpu + o.process_cpu, loadgen_cpu + o.loadgen_cpu,
            loop_cpu + o.loop_cpu,       service_cpu + o.service_cpu,
            loop_ctxsw + o.loop_ctxsw,   storage_bytes + o.storage_bytes,
            wall_ns + o.wall_ns};
  }
  double wall_s() const { return Seconds(wall_ns); }
  // Serving CPU: everything but the load generator.
  double ServerCpuUs() const {
    return static_cast<double>(process_cpu - loadgen_cpu) / 1e3;
  }
};

// One open or closed loop and what it cost.
struct Phase {
  PhaseStats stats;
  Counters cpu;
  int checkpoints = 0;  // snapshots the server took while it ran
  // What cpu_us_per_event is taken over: the whole loop, or the first
  // checkpoint interval of a durable closed loop (see Measure).
  Counters cpu_window;
  uint64_t window_events = 0;
};

struct Pass {
  Phase open;
  Phase closed;
};

class TcpBench {
 public:
  TcpBench(const TcpConfig& cfg, const Args& args)
      : cfg_(cfg), args_(args), tracer_(false), loadgen_(cfg.batch, &tracer_) {}

  int Run() {
    util::SetGlobalThreads(cfg_.workers);
    // A traced run measures twice (untraced, then traced) in the same time.
    const int passes = args_.trace ? 2 : 1;
    const double phase_s = args_.seconds / 2 / passes;
    PrintMachine(cfg_.name, cfg_.workers, cfg_.durable ? 2 : 1, kConnections);
    if (cfg_.durable) {
      // Each set-up gets a fresh directory and all are deleted only after
      // the run: on a filesystem mounted with online discard, deleting
      // snapshots makes the next journal commits (and with them the WAL's
      // fsyncs) slow for seconds.
      RemoveDurableDirs();
      std::filesystem::create_directories(DurableRoot());
      std::printf("durability: dir=%s fs=%s flush=fsync sync_every_batch=1\n",
                  DurableRoot().c_str(), FilesystemOf(DurableRoot()).c_str());
    }

    // Inputs, generated before anything is timed.
    const int64_t per_conn = cfg_.objects / kConnections;
    space_.processors = cfg_.processors;
    space_.objects = per_conn * kConnections;
    space_.scheme_masks.resize(static_cast<size_t>(space_.objects));
    workload::ZipfObjectOptions zipf;
    zipf.num_processors = cfg_.processors;
    zipf.num_objects = per_conn;
    zipf.skew = cfg_.skew;
    zipf.min_read_fraction = cfg_.read_fraction;
    zipf.max_read_fraction = cfg_.read_fraction;
    double ladder_events = 0;
    for (double rate : kLadder) ladder_events += LadderSeconds() * rate;
    const double warmup_s = std::min(0.5, args_.seconds / 20);
    // Events the warm-up, the open loops and the ladder send, all at fixed
    // rates and all before the first closed loop.
    const double scheduled_events =
        cfg_.nominal_eps * (warmup_s + passes * phase_s) +
        (args_.trace ? ladder_events : 0);
    const double per_conn_events =
        ((passes * phase_s + warmup_s) *
             (cfg_.closed_cap_eps + cfg_.nominal_eps) +
         (args_.trace ? ladder_events : 0)) /
            kConnections +
        4096;
    std::vector<std::vector<Event>> streams(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      workload::ZipfObjectGenerator generator(
          zipf, args_.seed * 1000003 + static_cast<uint64_t>(c));
      const int64_t base = per_conn * c;
      for (int64_t local = 0; local < per_conn; ++local) {
        space_.scheme_masks[static_cast<size_t>(base + local)] =
            generator.PersonalityFor(local).HomeSet().mask();
      }
      std::vector<Event>& stream = streams[static_cast<size_t>(c)];
      stream.resize(std::min<size_t>(kStreamEvents, static_cast<size_t>(
                                                        per_conn_events)) /
                    static_cast<size_t>(cfg_.batch) *
                    static_cast<size_t>(cfg_.batch));
      for (Event& event : stream) {
        event = generator.Next();
        event.object += base;
      }
    }

    // Setup, repeated; the last instance is the one measured.
    core::DurabilityOptions durability;
    durability.sync_every_batch = true;
    durability.sync_mode = util::SyncMode::kFsync;
    durability.delta_chain_limit = 2;
    // Every generation stays until the run ends (see RemoveDurableDirs).
    durability.keep_generations = 64;
    // Checkpoints fall in the closed loops only: the interval exceeds every
    // event scheduled before them. A checkpoint of the whole store stalls
    // the server loop for 0.2-0.4 s; in an open loop its p99 would only say
    // whether one happened to land there (and the default in-flight budget
    // would shed the backlog), while in a closed loop it costs sat_eps. The
    // closed loops' event count (2-4 intervals at the rates this workload
    // reaches) decides how many.
    durability.checkpoint_interval_events =
        static_cast<size_t>(1.25 * scheduled_events);
    std::vector<double> setups;
    for (int r = 0; r < cfg_.setup_repeats; ++r) {
      if (r > 0) Teardown();
      dir_ = DurableRoot() + "/" + std::to_string(r);
      const int64_t t0 = NowNs();
      Setup(durability);
      setups.push_back(Seconds(NowNs() - t0));
    }
    for (size_t c = 0; c < kConnections; ++c) {
      loadgen_.SetStream(c, std::move(streams[c]),
                         static_cast<size_t>(per_conn_events) /
                             static_cast<size_t>(cfg_.batch));
    }

    // Warm-up: executor threads start and caches fill before timing; then
    // every thread gets its own core.
    loadgen_.RunOpen(cfg_.nominal_eps, warmup_s, 0);
    PinThreads({CurrentTid(), loop_tid_.load()});

    // Measurement: pass 0 untraced; with --trace 1 a second, traced pass.
    // Every open loop and the ladder run before the closed loops (see the
    // checkpoint interval above).
    std::vector<Pass> results(static_cast<size_t>(passes));
    for (int pass = 0; pass < passes; ++pass) {
      tracer_.set_enabled(pass == 1);
      results[static_cast<size_t>(pass)].open = Measure(true, phase_s);
    }
    double max_rate = 0;
    if (args_.trace) max_rate = RunLadder();
    for (int pass = 0; pass < passes; ++pass) {
      tracer_.set_enabled(pass == 1);
      results[static_cast<size_t>(pass)].closed =
          Measure(false, phase_s,
                  cfg_.durable ? durability.checkpoint_interval_events : 0);
    }
    if (args_.inject == "drop-reply") {
      loadgen_.DropNextReply();
      loadgen_.RunOpen(cfg_.nominal_eps, 0.05, 0);
    }
    const double rss_mb = PeakRssMb();

    // Served state, read through the wire on a loadgen connection.
    util::StatusOr<net::WireStats> wire =
        loadgen_.conns()[0].client.QueryStats();
    if (!wire.ok()) Fail("QueryStats: " + wire.status().ToString());
    Gate(wire->protocol_errors == 0 && wire->rejected_events == 0,
         "well-formed traffic was rejected or broke framing");
    uint64_t admitted = 0;
    std::vector<Event> replay_events = AdmittedEvents(&admitted);
    Gate(wire->admitted_events == admitted,
         "server admitted " + std::to_string(wire->admitted_events) +
             " events but clients saw " + std::to_string(admitted) +
             " ok replies");
    const Fingerprint served = FingerprintOf(*wire);
    StopServer();
    const double bytes_per_object =
        Ratio(static_cast<double>(service_->MemoryUsageBytes()),
              static_cast<double>(space_.objects));

    // Durability: state after Recover must equal the served state.
    core::WalCommitStats commit;
    uint64_t wal_retries = 0;
    double recover_s = 0;
    core::RecoveryReport report;
    double snapshot_mb = 0;
    double full_ms = 0;
    double delta_ms = 0;
    double checkpoints = 0;
    if (cfg_.durable) {
      const core::ServiceStats stats = service_->Stats();
      commit = stats.commit;
      wal_retries = stats.wal_write_retries;
      const util::Status detached = service_->DisableDurability();
      if (!detached.ok()) Fail("DisableDurability: " + detached.ToString());
      service_.reset();
      {  // the recovered service closes its files before the cleanup
        util::StatusOr<core::ObjectService> recovered = [&] {
          ScopedSpan span(&tracer_, "durability.recover");
          const int64_t t0 = NowNs();
          auto result = core::ObjectService::Recover(dir_, durability, &report);
          recover_s = Seconds(NowNs() - t0);
          return result;
        }();
        if (!recovered.ok()) Fail("Recover: " + recovered.status().ToString());
        CheckFingerprint(served, FingerprintOf(*recovered), args_,
                         "state after Recover");
        checkpoints = static_cast<double>(report.manifest_sequence - 1);
        snapshot_mb = SnapshotMb(report);
        // Checkpoint the final state until one full and one delta snapshot
        // have been timed (the delta chain decides which comes first).
        uint64_t generation = report.manifest_sequence;
        while (full_ms == 0 || delta_ms == 0) {
          ScopedSpan span(&tracer_, "durability.checkpoint");
          const int64_t t0 = NowNs();
          const util::Status status = recovered->Checkpoint();
          const double ms = static_cast<double>(NowNs() - t0) / 1e6;
          if (!status.ok()) Fail("Checkpoint: " + status.ToString());
          ++generation;
          (std::filesystem::exists(dir_ + "/checkpoint-" +
                                   std::to_string(generation) + ".delta")
               ? delta_ms
               : full_ms) = ms;
          Gate(generation <= report.manifest_sequence +
                                 durability.delta_chain_limit + 2,
               "Checkpoint() never produced both a full and a delta snapshot");
        }
      }
      RemoveDurableDirs();
    }

    // The wire adds no semantics: an in-process replay of exactly the
    // admitted events, in engine batches of the size the server formed,
    // reproduces the served fingerprint.
    const size_t engine_batch = static_cast<size_t>(std::max<double>(
        1, std::round(Ratio(static_cast<double>(wire->admitted_events),
                            static_cast<double>(wire->batches_submitted)))));
    Fingerprint replayed;
    const PipelineStats replay =
        ReplayService(space_, cfg_.shards, replay_events, engine_batch,
                      &replayed, &tracer_);
    CheckFingerprint(served, replayed, args_,
                     "in-process replay of the admitted events");

    const Pass& main = results[0];
    if (cfg_.durable) {
      for (const Pass& pass : results) {
        std::printf("checkpoints while serving: %d in the open loop, %d in "
                    "the closed loop (interval %zu events); cpu_us_per_event "
                    "over the closed loop's first %llu events\n",
                    pass.open.checkpoints, pass.closed.checkpoints,
                    durability.checkpoint_interval_events,
                    static_cast<unsigned long long>(pass.closed.window_events));
      }
    }
    {
      const Latency latency(main.open.stats);
      std::printf("serving: closed loop %.0f events/s, %.4f us/event; open "
                  "loop p50 %.4f ms, p99 %.4f ms (%zu of %zu windows on "
                  "schedule)\n",
                  main.closed.stats.Throughput(), CpuUsPerEvent(main),
                  latency.p50_ms, latency.p99_ms, latency.valid_windows,
                  latency.windows);
    }
    MetricSink sink;
    if (!args_.trace) {
      sink.Add("setup_s", Median(setups), "s");
      sink.Add("cost_per_event", served.CostPerEvent(), "cost");
      sink.Add("rss_mb", rss_mb, "MiB");
      sink.Add("cpu_us_per_event", CpuUsPerEvent(main), "us");
      sink.Emit(true, Attempted(main), Failed(main));
      return 0;
    }

    // Traced run: overhead against the untraced pass, then the per-layer
    // metrics measured in the traced pass.
    const Pass& traced = results[1];
    const Latency untraced_latency = NominalLatency(main.open.stats);
    const Latency traced_latency = NominalLatency(traced.open.stats);
    const double sat_eps = main.closed.stats.Throughput();
    const double traced_sat = traced.closed.stats.Throughput();
    std::printf("tracing overhead: sat_eps untraced=%.1f traced=%.1f (%+.2f%%)"
                "  p50_ms untraced=%.4f traced=%.4f  p99_ms untraced=%.4f "
                "traced=%.4f  cpu_us_per_event untraced=%.4f traced=%.4f\n",
                sat_eps, traced_sat, 100 * (traced_sat / sat_eps - 1),
                untraced_latency.p50_ms, traced_latency.p50_ms,
                untraced_latency.p99_ms, traced_latency.p99_ms,
                CpuUsPerEvent(main), CpuUsPerEvent(traced));
    const double t_events = static_cast<double>(
        traced.open.stats.events_ok + traced.closed.stats.events_ok);
    const double t_attempted = static_cast<double>(Attempted(traced));
    const double t_failed = static_cast<double>(Failed(traced));
    std::vector<double> late = traced.open.stats.late_ms;
    const Counters cpu = traced.open.cpu + traced.closed.cpu;
    const double worker_cpu = static_cast<double>(
        cpu.process_cpu - cpu.loadgen_cpu - cpu.loop_cpu - cpu.service_cpu);
    const double wire_events = static_cast<double>(
        wire->admitted_events + wire->shed_overloaded + wire->shed_timeout);
    sink.Add("sat_eps", sat_eps, "events/s");
    sink.Add("p50_ms", untraced_latency.p50_ms, "ms");
    sink.Add("p99_ms", untraced_latency.p99_ms, "ms");
    sink.Add("loadgen.late_p99_ms", Percentile(&late, 0.99), "ms");
    sink.Add("loadgen.cpu_frac",
             Ratio(static_cast<double>(cpu.loadgen_cpu) / 1e9, cpu.wall_s()),
             "fraction");
    sink.Add("loadgen.valid_window_frac",
             Ratio(static_cast<double>(traced_latency.valid_windows),
                   static_cast<double>(traced_latency.windows)),
             "fraction");
    sink.Add("max_rate_eps", max_rate, "events/s");
    sink.Add("failed_frac", Ratio(t_failed, t_attempted), "fraction");
    sink.Add("recover_s", recover_s, "s");
    sink.Add("net.loop_cpu_us_per_event",
             Ratio(static_cast<double>(cpu.loop_cpu) / 1e3, t_events), "us");
    sink.Add("net.loop_idle_frac",
             1 - Ratio(static_cast<double>(cpu.loop_cpu) / 1e9, cpu.wall_s()),
             "fraction");
    sink.Add("net.ctxsw_per_event",
             Ratio(static_cast<double>(cpu.loop_ctxsw), t_events), "count");
    sink.Add("net.events_per_engine_batch",
             Ratio(static_cast<double>(wire->admitted_events),
                   static_cast<double>(wire->batches_submitted)),
             "events");
    sink.Add("net.shed_frac",
             Ratio(static_cast<double>(wire->shed_overloaded), wire_events),
             "fraction");
    sink.Add("net.timeout_frac",
             Ratio(static_cast<double>(wire->shed_timeout), wire_events),
             "fraction");
    sink.Add("net.codec_ns_per_event",
             ReplayCodec(replay_events, cfg_.batch, &tracer_), "ns");
    sink.Add("service.submit_ns_per_event", replay.PerEvent(replay.submit_ns),
             "ns");
    sink.Add("service.wait_ns_per_event", replay.PerEvent(replay.wait_ns),
             "ns");
    sink.Add("service.inflight_mean", replay.PerBatch(replay.inflight_sum),
             "batches");
    sink.Add("executor.queue_ops_mean", replay.PerBatch(replay.queued_sum),
             "events");
    sink.Add("executor.queue_ops_peak", replay.queued_peak, "events");
    sink.Add("executor.worker_cpu_us_per_event",
             Ratio(worker_cpu / 1e3, t_events), "us");
    sink.Add("executor.worker_busy_frac",
             Ratio(worker_cpu / 1e9, cpu.wall_s() * cfg_.workers),
             "fraction");
    model::CostBreakdown shard_total;
    sink.Add("shard.serve_ns_per_event",
             ReplayShard(space_, replay_events, &shard_total, &tracer_),
             "ns");
    Gate(shard_total.control_messages == served.control &&
             shard_total.data_messages == served.data &&
             shard_total.io_ops == served.io,
         "standalone-shard replay disagrees with the served breakdown");
    sink.Add("shard.bytes_per_object", bytes_per_object, "bytes");
    const double logged = static_cast<double>(admitted);
    sink.Add("wal.commit_p50_us", commit.commit_latency_p50_us, "us");
    sink.Add("wal.commit_p99_us", commit.commit_latency_p99_us, "us");
    sink.Add("wal.events_per_commit",
             Ratio(logged, static_cast<double>(commit.group_commits)),
             "events");
    sink.Add("wal.bytes_per_event",
             Ratio(static_cast<double>(commit.bytes_appended), logged),
             "bytes");
    sink.Add("wal.write_retries", static_cast<double>(wal_retries), "count");
    sink.Add("checkpoint.full_ms", full_ms, "ms");
    sink.Add("checkpoint.delta_ms", delta_ms, "ms");
    sink.Add("checkpoint.count", checkpoints, "count");
    sink.Add("durability.bytes_written_per_event",
             Ratio(static_cast<double>(cpu.storage_bytes), t_events),
             "bytes");
    sink.Add("recover.events_replayed",
             static_cast<double>(report.events_replayed), "events");
    sink.Add("recover.replay_eps",
             Ratio(static_cast<double>(report.events_replayed), recover_s),
             "events/s");
    sink.Add("recover.snapshot_mb", snapshot_mb, "MiB");
    tracer_.WriteAndSummarize(args_.out_dir + "/trace-" + cfg_.name +
                              "-seed" + std::to_string(args_.seed) +
                              ".jsonl");
    sink.Emit(true, static_cast<uint64_t>(t_attempted),
              static_cast<uint64_t>(t_failed));
    return 0;
  }

 private:
  // A ladder rung is 1 s; short runs (the smoke test) scale it down.
  double LadderSeconds() const {
    return std::clamp(args_.seconds / 30, 0.1, 1.0);
  }

  static uint64_t Attempted(const Pass& pass) {
    return pass.open.stats.events_sent + pass.closed.stats.events_sent;
  }

  static uint64_t Failed(const Pass& pass) {
    uint64_t failed = 0;
    for (const PhaseStats* stats : {&pass.open.stats, &pass.closed.stats}) {
      failed += stats->events_shed + stats->events_timeout;
    }
    return failed;
  }

  // Saturation CPU cost: the closed loop, whose batching is set by its
  // window rather than by how fast the disk or the host happens to be.
  static double CpuUsPerEvent(const Pass& pass) {
    return Ratio(pass.closed.cpu_window.ServerCpuUs(),
                 static_cast<double>(pass.closed.window_events));
  }

  std::string DurableRoot() const { return args_.out_dir + "/durable"; }

  // Deletes every durable directory and waits for the filesystem to commit
  // (and discard) the freed blocks.
  void RemoveDurableDirs() const {
    std::filesystem::remove_all(DurableRoot());
    sync();
  }

  // Snapshots (full and delta) in the current durable directory; every
  // generation is kept, so the count only grows.
  int CheckpointFiles() const {
    if (!cfg_.durable) return 0;
    int files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("checkpoint-", 0) == 0 &&
          (name.ends_with(".ckpt") || name.ends_with(".delta"))) {
        ++files;
      }
    }
    return files;
  }

  void Setup(const core::DurabilityOptions& durability) {
    core::ServiceOptions options;
    options.num_shards = cfg_.shards;
    service_ = std::make_unique<core::ObjectService>(cfg_.processors,
                                                     kCostModel, options);
    // A million-object durable store is bulk-loaded in process before it
    // serves; the small hot space is registered by a client over the wire.
    if (cfg_.durable) {
      Register(service_.get(), space_);
      const util::Status status = service_->EnableDurability(dir_, durability);
      if (!status.ok()) Fail("EnableDurability: " + status.ToString());
    }
    // Library threads alive before serving starts (the WAL writer).
    service_tids_.clear();
    const int self = CurrentTid();
    for (const int tid : ThreadIds()) {
      if (tid != self) service_tids_.push_back(tid);
    }
    // The durable server may queue 2^18 events (default 2^14): a disk stall
    // on a shared host would otherwise overflow the budget at the nominal
    // rate and shed requests; this way it delays them and shows in p99.
    net::ServerOptions server_options;
    if (cfg_.durable) {
      server_options.max_inflight_global = size_t{1} << 18;
      server_options.max_inflight_per_connection = size_t{1} << 16;
    }
    server_ = std::make_unique<net::Server>(service_.get(), server_options);
    const util::Status started = server_->Start();
    if (!started.ok()) Fail("server Start: " + started.ToString());
    loop_tid_.store(0);
    server_thread_ = std::thread([this] {
      loop_tid_.store(CurrentTid());
      const util::Status status = server_->Run();
      if (!status.ok()) Fail("server Run: " + status.ToString());
    });
    // Placement decides whether a round trip crosses CPUs: fix it for the
    // timed set-up as well as for the measurement.
    while (loop_tid_.load() == 0) std::this_thread::yield();
    PinThreads({CurrentTid(), loop_tid_.load()});
    if (!cfg_.durable) {
      net::Client admin;
      util::Status status = admin.Connect("127.0.0.1", server_->port());
      for (int64_t id = 0; status.ok() && id < space_.objects; ++id) {
        status = admin.Register(
            id, space_.scheme_masks[static_cast<size_t>(id)],
            static_cast<uint8_t>(core::AlgorithmKind::kDynamic));
      }
      if (!status.ok()) Fail("Register over the wire: " + status.ToString());
    }
    loadgen_ = LoadGen(cfg_.batch, &tracer_);
    loadgen_.Connect(server_->port(), kConnections);
  }

  void StopServer() {
    for (LoadConn& conn : loadgen_.conns()) conn.client.Close();
    server_->RequestDrain();
    server_thread_.join();
    server_.reset();
  }

  void Teardown() {
    StopServer();
    service_.reset();
  }

  Counters Sample() const {
    Counters now;
    now.wall_ns = NowNs();
    now.process_cpu = ProcessCpuNs();
    now.loadgen_cpu = ThreadCpuNs(CurrentTid());
    now.loop_cpu = ThreadCpuNs(loop_tid_.load());
    now.service_cpu = ThreadsCpuNs(service_tids_);
    now.loop_ctxsw = ThreadContextSwitches(loop_tid_.load());
    now.storage_bytes = StorageWriteBytes();
    return now;
  }

  // A durable closed loop's CPU is taken over its first
  // `checkpoint_interval` events, the first checkpoint interval of the
  // loop: any run of that many events holds exactly one checkpoint, so the
  // per-event cost is the steady state at the configured interval rather
  // than a whole-store snapshot or two spread over however many events the
  // disk allowed. A loop too slow to get there keeps its whole span (still
  // one checkpoint: the first falls after a fifth of an interval).
  Phase Measure(bool open_loop, double phase_s,
                uint64_t checkpoint_interval = 0) {
    ScopedSpan span(&tracer_,
                    open_loop ? "loadgen.open_loop" : "loadgen.closed_loop");
    Phase phase;
    const Counters start = Sample();
    const int files = CheckpointFiles();
    if (open_loop) {
      phase.stats = loadgen_.RunOpen(cfg_.nominal_eps, phase_s, span.id());
    } else {
      phase.stats = loadgen_.RunClosed(
          phase_s, cfg_.window, span.id(), checkpoint_interval,
          [&](uint64_t events) {
            phase.cpu_window = Sample() - start;
            phase.window_events = events;
          });
    }
    span.set_count(phase.stats.events_sent);
    phase.cpu = Sample() - start;
    phase.checkpoints = CheckpointFiles() - files;
    if (phase.window_events == 0) {
      phase.cpu_window = phase.cpu;
      phase.window_events = phase.stats.events_ok;
    }
    return phase;
  }

  // Highest ladder rung with p99 <= 5 ms (pooled over its on-schedule
  // windows, as p99_ms), no failures and no growing backlog. The ladder
  // climbs until the server is overloaded (failures or a growing backlog);
  // a low rung can miss the latency limit alone, when idle threads pay the
  // host's wake-up latency. A rung the generator could not hold (late in
  // most windows, so less than the rung's rate was offered) is not a server
  // result: it is reported as invalid and does not count.
  double RunLadder() {
    ScopedSpan span(&tracer_, "ladder");
    double best = 0;
    for (const double rate : kLadder) {
      ScopedSpan rung(&tracer_, "loadgen.rung", span.id());
      PhaseStats stats = loadgen_.RunOpen(rate, LadderSeconds(), rung.id());
      rung.set_count(stats.events_sent);
      const Latency latency(stats);
      const uint64_t failed = stats.events_shed + stats.events_timeout;
      // A send blocked for longer than the latency limit is the server not
      // draining its socket: backlog, not a slow generator.
      const bool overloaded =
          failed > 0 || stats.max_send_ms > kLatencyLimitMs ||
          stats.backlog_second_half >
              2 * stats.backlog_first_half + rate * 1e-3;
      const bool pass = latency.p99_ms <= kLatencyLimitMs && !overloaded;
      std::printf("ladder: %9.0f events/s  p99=%.3f ms  failed=%llu  "
                  "backlog %.1f -> %.1f  on-schedule windows %zu/%zu  %s\n",
                  rate, latency.p99_ms, static_cast<unsigned long long>(failed),
                  stats.backlog_first_half, stats.backlog_second_half,
                  latency.valid_windows, latency.windows,
                  overloaded        ? "fail (overloaded)"
                  : !pass           ? "fail (p99)"
                  : latency.valid() ? "pass"
                                    : "invalid (generator late)");
      if (overloaded) break;
      if (pass && latency.valid()) best = rate;
    }
    return best;
  }

  // Admitted events in a round-robin frame order across connections (each
  // connection owns its objects, so any interleaving is equivalent).
  std::vector<Event> AdmittedEvents(uint64_t* admitted) {
    std::vector<Event> events;
    std::vector<LoadConn>& conns = loadgen_.conns();
    uint64_t most = 0;
    for (const LoadConn& conn : conns) most = std::max(most, conn.frames_sent);
    for (uint64_t f = 0; f < most; ++f) {
      for (const LoadConn& conn : conns) {
        if (f >= conn.frames_sent || conn.outcome[f] != 1) continue;
        const std::span<const Event> frame = conn.Frame(f, cfg_.batch);
        events.insert(events.end(), frame.begin(), frame.end());
      }
    }
    *admitted = events.size();
    return events;
  }

  double SnapshotMb(const core::RecoveryReport& report) const {
    uintmax_t bytes = 0;
    const uint64_t last = report.checkpoint_sequence;
    const uint64_t first = last - report.delta_checkpoints_applied;
    for (uint64_t g = first; g <= last; ++g) {
      for (const char* ext : {".ckpt", ".delta"}) {
        const std::string path =
            dir_ + "/checkpoint-" + std::to_string(g) + ext;
        std::error_code ec;
        const uintmax_t size = std::filesystem::file_size(path, ec);
        if (!ec) bytes += size;
      }
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  }

  TcpConfig cfg_;
  Args args_;
  Tracer tracer_;
  LoadGen loadgen_;
  ObjectSpace space_;
  std::string dir_;
  std::unique_ptr<core::ObjectService> service_;
  std::unique_ptr<net::Server> server_;
  std::thread server_thread_;
  std::atomic<int> loop_tid_{0};
  std::vector<int> service_tids_;
};

// ---------------------------------------------------------------------------
// In-process engine workload: one submitter thread pipelining id-addressed
// SubmitBatch/WaitBatch calls, double-buffered.

struct InprocConfig {
  int64_t objects;
  int processors;
  double skew;
  int shards;
  int workers;
  size_t batch;
  size_t pool_events;
  int setup_repeats;
};

struct InprocPass {
  PipelineStats pipeline;
  int64_t process_cpu = 0;
  int64_t submitter_cpu = 0;
};

int RunInproc(const InprocConfig& cfg, const Args& args) {
  util::SetGlobalThreads(cfg.workers);
  PrintMachine("inproc_engine", cfg.workers, 0, 0);
  Tracer tracer(false);
  workload::ZipfObjectOptions zipf;
  zipf.num_processors = cfg.processors;
  zipf.num_objects = cfg.objects;
  zipf.skew = cfg.skew;
  workload::ZipfObjectGenerator generator(zipf, args.seed);
  ObjectSpace space;
  space.processors = cfg.processors;
  space.objects = cfg.objects;
  space.scheme_masks.resize(static_cast<size_t>(cfg.objects));
  for (int64_t id = 0; id < cfg.objects; ++id) {
    space.scheme_masks[static_cast<size_t>(id)] =
        generator.PersonalityFor(id).HomeSet().mask();
  }
  std::vector<Event> pool(cfg.pool_events);
  for (Event& event : pool) event = generator.Next();

  std::unique_ptr<core::ObjectService> service;
  std::vector<double> setups;
  core::ServiceOptions options;
  options.num_shards = cfg.shards;
  PinThreads({CurrentTid()});
  for (int r = 0; r < cfg.setup_repeats; ++r) {
    service.reset();
    const int64_t t0 = NowNs();
    service = std::make_unique<core::ObjectService>(cfg.processors,
                                                    kCostModel, options);
    Register(service.get(), space);
    setups.push_back(Seconds(NowNs() - t0));
  }

  // The served sequence: the pool, cycled, in batches of cfg.batch.
  size_t cursor = 0;
  uint64_t served_events = 0;
  auto next_batch = [&]() {
    if (cursor + cfg.batch > pool.size()) cursor = 0;
    const std::span<const Event> span(pool.data() + cursor, cfg.batch);
    cursor += cfg.batch;
    served_events += cfg.batch;
    return span;
  };
  // Pipelines pool batches for `seconds`, or for `max_batches` when
  // non-zero.
  auto run = [&](double seconds, uint64_t max_batches, uint64_t parent) {
    const int tid = CurrentTid();
    InprocPass pass;
    const int64_t process0 = ProcessCpuNs();
    const int64_t submitter0 = ThreadCpuNs(tid);
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    pass.pipeline = RunPipelined(
        service.get(),
        [&](uint64_t n) {
          const bool done =
              max_batches != 0 ? n >= max_batches : NowNs() >= end;
          return done ? std::span<const Event>() : next_batch();
        },
        &tracer, parent);
    pass.process_cpu = ProcessCpuNs() - process0;
    pass.submitter_cpu = ThreadCpuNs(tid) - submitter0;
    return pass;
  };

  // Warm-up: executor threads start and caches fill before timing. The
  // pipelined warm-up prefix is fingerprinted for the replay gate below.
  run(0, 1024, 0);
  const uint64_t prefix_events = served_events;
  PinThreads({CurrentTid()});  // the executor's workers exist now
  const Fingerprint prefix = FingerprintOf(*service);
  // A traced run measures twice (untraced, then traced) in the same time.
  const int passes = args.trace ? 2 : 1;
  std::vector<InprocPass> measured;
  for (int p = 0; p < passes; ++p) {
    tracer.set_enabled(p == 1);
    ScopedSpan span(&tracer, "pass");
    measured.push_back(run(args.seconds / passes, 0, span.id()));
    span.set_count(measured.back().pipeline.events);
  }
  const double rss_mb = PeakRssMb();
  Gate(service->TotalRequests() == static_cast<int64_t>(served_events),
       "engine request count differs from the events submitted");
  const model::CostBreakdown breakdown = service->TotalBreakdown();
  const double cost_per_event =
      Ratio(breakdown.Cost(kCostModel), static_cast<double>(served_events));
  const double bytes_per_object =
      Ratio(static_cast<double>(service->MemoryUsageBytes()),
            static_cast<double>(cfg.objects));
  service.reset();

  // The pipelined prefix must equal a synchronous ServeBatch replay of the
  // same sequence on a fresh service.
  {
    ScopedSpan span(&tracer, "replay.service_sync");
    span.set_count(prefix_events);
    core::ObjectService replay(cfg.processors, kCostModel, options);
    Register(&replay, space);
    cursor = 0;
    core::BatchResult result;
    for (uint64_t done = 0; done < prefix_events; done += cfg.batch) {
      const util::Status status = replay.ServeBatchInto(next_batch(), &result);
      if (!status.ok()) Fail("ServeBatch replay: " + status.ToString());
    }
    CheckFingerprint(prefix, FingerprintOf(replay), args,
                     "synchronous replay of the pipelined warm-up");
  }

  const PipelineStats& main = measured[0].pipeline;
  const auto cpu_us_per_event = [](const InprocPass& pass) {
    return Ratio(static_cast<double>(pass.process_cpu) / 1e3,
                 static_cast<double>(pass.pipeline.events));
  };
  MetricSink sink;
  if (!args.trace) {
    sink.Add("setup_s", Median(setups), "s");
    sink.Add("cost_per_event", cost_per_event, "cost");
    sink.Add("rss_mb", rss_mb, "MiB");
    sink.Add("cpu_us_per_event", cpu_us_per_event(measured[0]), "us");
    sink.Emit(true, main.events, 0);
    return 0;
  }
  const InprocPass& traced_pass = measured[1];
  const PipelineStats& traced = traced_pass.pipeline;
  const auto sat = [](const PipelineStats& pass) {
    return Ratio(static_cast<double>(pass.events), pass.wall_s);
  };
  const auto latency = [](const PipelineStats& pass, double q) {
    std::vector<double> values = pass.latency_ms;
    return Percentile(&values, q);
  };
  std::printf("tracing overhead: sat_eps untraced=%.1f traced=%.1f (%+.2f%%)"
              "  p99_ms untraced=%.4f traced=%.4f  cpu_us_per_event "
              "untraced=%.4f traced=%.4f\n",
              sat(main), sat(traced), 100 * (sat(traced) / sat(main) - 1),
              latency(main, 0.99), latency(traced, 0.99),
              cpu_us_per_event(measured[0]), cpu_us_per_event(traced_pass));
  const auto t_events = static_cast<double>(traced.events);
  const double worker_cpu = static_cast<double>(traced_pass.process_cpu -
                                                traced_pass.submitter_cpu);
  sink.Add("sat_eps", sat(main), "events/s");
  sink.Add("p50_ms", latency(main, 0.5), "ms");
  sink.Add("p99_ms", latency(main, 0.99), "ms");
  sink.Add("loadgen.late_p99_ms", 0, "ms");
  sink.Add("loadgen.cpu_frac",
           Ratio(static_cast<double>(traced_pass.submitter_cpu) / 1e9,
                 traced.wall_s),
           "fraction");
  sink.Add("loadgen.valid_window_frac", 1, "fraction");
  AddAbsent(&sink, {{"max_rate_eps", "events/s"},
                    {"failed_frac", "fraction"},
                    {"recover_s", "s"},
                    {"net.loop_cpu_us_per_event", "us"},
                    {"net.loop_idle_frac", "fraction"},
                    {"net.ctxsw_per_event", "count"}});
  sink.Add("net.events_per_engine_batch", static_cast<double>(cfg.batch),
           "events");
  AddAbsent(&sink, {{"net.shed_frac", "fraction"},
                    {"net.timeout_frac", "fraction"}});
  sink.Add("net.codec_ns_per_event", ReplayCodec(pool, 1, &tracer), "ns");
  sink.Add("service.submit_ns_per_event", traced.PerEvent(traced.submit_ns),
           "ns");
  sink.Add("service.wait_ns_per_event", traced.PerEvent(traced.wait_ns),
           "ns");
  sink.Add("service.inflight_mean", traced.PerBatch(traced.inflight_sum),
           "batches");
  sink.Add("executor.queue_ops_mean", traced.PerBatch(traced.queued_sum),
           "events");
  sink.Add("executor.queue_ops_peak", traced.queued_peak, "events");
  sink.Add("executor.worker_cpu_us_per_event",
           Ratio(worker_cpu / 1e3, t_events), "us");
  sink.Add("executor.worker_busy_frac",
           Ratio(worker_cpu / 1e9, traced.wall_s * cfg.workers), "fraction");
  model::CostBreakdown shard_total;
  sink.Add("shard.serve_ns_per_event",
           ReplayShard(space, pool, &shard_total, &tracer), "ns");
  sink.Add("shard.bytes_per_object", bytes_per_object, "bytes");
  AddAbsent(&sink, {{"wal.commit_p50_us", "us"},
                    {"wal.commit_p99_us", "us"},
                    {"wal.events_per_commit", "events"},
                    {"wal.bytes_per_event", "bytes"},
                    {"wal.write_retries", "count"},
                    {"checkpoint.full_ms", "ms"},
                    {"checkpoint.delta_ms", "ms"},
                    {"checkpoint.count", "count"},
                    {"durability.bytes_written_per_event", "bytes"},
                    {"recover.events_replayed", "events"},
                    {"recover.replay_eps", "events/s"},
                    {"recover.snapshot_mb", "MiB"}});
  tracer.WriteAndSummarize(args.out_dir + "/trace-inproc_engine-seed" +
                           std::to_string(args.seed) + ".jsonl");
  sink.Emit(true, traced.events, 0);
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--out_dir") {
      args.out_dir = value();
    } else if (flag == "--inject") {
      args.inject = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
      std::exit(2);
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    std::exit(2);
  }
  if (!args.inject.empty() && args.inject != "drop-reply" &&
      args.inject != "corrupt-fingerprint") {
    std::fprintf(stderr, "unknown --inject: %s\n", args.inject.c_str());
    std::exit(2);
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.out_dir);
  std::printf("perfbench: workload=%s seed=%llu seconds=%.3f trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "tcp_read_hot") {
    const TcpConfig cfg{"tcp_read_hot", 4096, 8, 0.99, 0.9, 1, 16, 2, 64,
                        100e3, 400e3, 5, false};
    return TcpBench(cfg, args).Run();
  }
  if (args.workload == "tcp_durable_ingest") {
    const TcpConfig cfg{"tcp_durable_ingest", 1000000, 8, 0.9, 0.3, 32, 16, 1,
                        8, 200e3, 1.5e6, 3, true};
    return TcpBench(cfg, args).Run();
  }
  if (args.workload == "inproc_engine") {
    const InprocConfig cfg{4000000, 16, 0.6, 16, 3, 4096, size_t{1} << 22, 3};
    return RunInproc(cfg, args);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
