// Networked serving under load: drives the net::Server over loopback TCP
// with pipelined connections and reports latency percentiles, shed rate,
// and goodput at a sweep of offered loads (DESIGN.md §15), written as a
// machine-readable JSON artifact (BENCH_net_serving.json).
//
// Usage: net_serving [--out=BENCH_net_serving.json]
//                    [--connections=4] [--objects=256] [--processors=8]
//                    [--events=4000] [--window=64] [--seed=42]
//                    [--levels=0.5,1,2] [--max_inflight=1024]
//                    [--max_p99_ms=2000] [--sweep=1]
//                    [--expect_requests=N] [--expect_control=N]
//                    [--expect_data=N] [--expect_io=N] [--expect_crc=N]
//
// Three claims, all fatal when violated:
//
//  1. No silent drops: every request sent gets exactly one reply — a cost,
//     or an honest transient rejection (kOverloaded / kTimeout /
//     kUnavailable). A missing reply is a hang and the bench aborts.
//  2. Overload degrades, never collapses: at 2x the measured saturation
//     throughput the server sheds with kOverloaded while the p99 latency
//     of *admitted* requests stays bounded (the admission budget caps the
//     queue, so waiting time can't grow without bound).
//  3. The wire adds no semantics: replaying exactly the admitted events
//     through an in-process ObjectService reproduces the served engine
//     fingerprint bit-for-bit (request counts, cost breakdown, and the
//     CRC32 of the per-object scheme table). Each connection owns a
//     disjoint object range, so per-object event order equals per-
//     connection send order and the fingerprint is interleaving-proof.
//
// With --sweep=0 only the closed-loop saturation phase runs; its window
// fits under the admission budget so nothing is shed, every event is
// admitted, and the fingerprint becomes a pure function of the seed — the
// --expect_* flags pin it as a committed golden (the CI net-smoke gate).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "objalloc/core/object_service.h"
#include "objalloc/net/client.h"
#include "objalloc/net/server.h"
#include "objalloc/net/wire.h"
#include "objalloc/util/logging.h"
#include "objalloc/util/rng.h"
#include "objalloc/util/stats.h"
#include "objalloc/util/status.h"

namespace {

using namespace objalloc;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kSchemeMask = 0b11;  // processors {0, 1}
constexpr uint8_t kAlgorithm = static_cast<uint8_t>(core::AlgorithmKind::kDynamic);

struct Event {
  int64_t object = 0;
  uint32_t processor = 0;
  bool is_write = false;
};

// One loadgen connection: a persistent client, its private event stream,
// and the record of what the server admitted (per-connection request ids
// are sequential from 1, so `events[id - 1]` is the event behind any id).
struct Conn {
  net::Client client;
  util::Rng rng{1};
  int64_t first_object = 0;
  int64_t object_count = 1;
  std::vector<Event> events;     // indexed by request_id - 1
  std::vector<bool> admitted;    // parallel to events
  // Per-phase scratch, reset by the driver.
  std::vector<Clock::time_point> send_time;  // parallel to events
  uint64_t sent = 0;
  uint64_t got = 0;
  uint64_t ok = 0;
  uint64_t shed_overloaded = 0;
  uint64_t shed_other = 0;  // kTimeout / kUnavailable
  std::vector<double> latencies_ms;
};

Event NextEvent(Conn* conn, int processors) {
  Event event;
  event.object =
      conn->first_object +
      static_cast<int64_t>(conn->rng.NextBounded(
          static_cast<uint64_t>(conn->object_count)));
  event.processor =
      static_cast<uint32_t>(conn->rng.NextBounded(
          static_cast<uint64_t>(processors)));
  event.is_write = conn->rng.NextDouble() < 0.3;
  return event;
}

uint64_t SendOne(Conn* conn, int processors) {
  const Event event = NextEvent(conn, processors);
  util::StatusOr<uint64_t> id = conn->client.SendServe(
      event.is_write, event.object, event.processor, /*deadline_ms=*/0);
  OBJALLOC_CHECK(id.ok()) << "send failed: " << id.status().ToString();
  OBJALLOC_CHECK_EQ(*id, conn->events.size() + 1)
      << "request ids must stay sequential for replay bookkeeping";
  conn->events.push_back(event);
  conn->admitted.push_back(false);
  conn->send_time.push_back(Clock::now());
  ++conn->sent;
  return *id;
}

void Record(Conn* conn, const net::Client::Reply& reply) {
  OBJALLOC_CHECK(reply.request_id >= 1 &&
                 reply.request_id <= conn->events.size())
      << "reply for a request never sent: id=" << reply.request_id;
  ++conn->got;
  if (reply.status.ok()) {
    ++conn->ok;
    conn->admitted[reply.request_id - 1] = true;
    const double ms =
        std::chrono::duration<double, std::milli>(
            Clock::now() - conn->send_time[reply.request_id - 1])
            .count();
    conn->latencies_ms.push_back(ms);
    return;
  }
  OBJALLOC_CHECK(util::IsTransientRejection(reply.status))
      << "server replied with a non-transient error to well-formed "
         "traffic: "
      << reply.status.ToString();
  if (reply.status.code() == util::StatusCode::kOverloaded) {
    ++conn->shed_overloaded;
  } else {
    ++conn->shed_other;
  }
}

// Drains every reply currently waiting (or arriving within `timeout_ms`).
// Returns false only when the poll timed out with nothing to read.
bool DrainReplies(Conn* conn, int timeout_ms) {
  bool drained_any = false;
  while (conn->got < conn->sent) {
    util::StatusOr<net::Client::Reply> reply =
        conn->client.WaitReply(timeout_ms);
    if (!reply.ok()) {
      OBJALLOC_CHECK(reply.status().code() == util::StatusCode::kTimeout)
          << "transport failure mid-run: " << reply.status().ToString();
      return drained_any;
    }
    Record(conn, *reply);
    drained_any = true;
    timeout_ms = 0;  // opportunistic after the first
  }
  return drained_any;
}

void AwaitAll(Conn* conn) {
  // Every request gets a reply; 10s of silence means the server hung,
  // which is precisely what this bench exists to rule out.
  while (conn->got < conn->sent) {
    util::StatusOr<net::Client::Reply> reply = conn->client.WaitReply(10000);
    OBJALLOC_CHECK(reply.ok())
        << "no reply within 10s with " << (conn->sent - conn->got)
        << " outstanding — server hung or dropped requests: "
        << reply.status().ToString();
    Record(conn, *reply);
  }
}

void ResetPhase(Conn* conn) {
  conn->sent = 0;
  conn->got = 0;
  conn->ok = 0;
  conn->shed_overloaded = 0;
  conn->shed_other = 0;
  conn->latencies_ms.clear();
}

// Closed loop: keep `window` requests in flight until `count` were sent,
// then drain. With window * connections below the admission budget this
// phase never sheds — the measured goodput is the saturation throughput.
void RunClosedLoop(Conn* conn, uint64_t count, size_t window,
                   int processors) {
  for (uint64_t i = 0; i < count; ++i) {
    while (conn->sent - conn->got >= window) {
      util::StatusOr<net::Client::Reply> reply = conn->client.WaitReply(10000);
      OBJALLOC_CHECK(reply.ok())
          << "closed loop stalled: " << reply.status().ToString();
      Record(conn, *reply);
    }
    SendOne(conn, processors);
    DrainReplies(conn, 0);
  }
  AwaitAll(conn);
}

// Open(ish) loop: sends paced at `interval` regardless of replies, so the
// offered load is what we say it is even when the server sheds. A high
// outstanding cap keeps client memory bounded without re-coupling the
// loop to the service rate.
void RunPaced(Conn* conn, uint64_t count, Clock::duration interval,
              int processors) {
  constexpr uint64_t kOutstandingCap = 8192;
  Clock::time_point next_send = Clock::now();
  for (uint64_t i = 0; i < count; ++i) {
    while (true) {
      const auto now = Clock::now();
      if (now >= next_send && conn->sent - conn->got < kOutstandingCap) break;
      const auto wait = next_send - now;
      const int wait_ms = static_cast<int>(std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::milliseconds>(wait)
                 .count()));
      DrainReplies(conn, wait_ms);
    }
    SendOne(conn, processors);
    next_send += interval;
    DrainReplies(conn, 0);
  }
  AwaitAll(conn);
}

std::vector<double> ParseDoubleList(const std::string& arg,
                                    const char* flag) {
  std::vector<double> values;
  size_t pos = 0;
  while (pos <= arg.size()) {
    size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(pos, comma - pos);
    double value = 0;
    try {
      size_t used = 0;
      value = std::stod(token, &used);
      if (used != token.size()) value = 0;
    } catch (const std::exception&) {
      value = 0;
    }
    if (value <= 0) {
      std::fprintf(stderr, "bad value in %s: '%s'\n", flag, token.c_str());
      std::exit(1);
    }
    values.push_back(value);
    pos = comma + 1;
    if (pos == arg.size() + 1) break;
  }
  return values;
}

struct LevelResult {
  double multiplier = 0;
  double offered_eps = 0;
  double goodput_eps = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed_overloaded = 0;
  uint64_t shed_other = 0;
  double shed_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
};

LevelResult Summarize(std::vector<Conn>& conns, double seconds) {
  LevelResult level;
  util::PercentileTracker tracker;
  for (Conn& conn : conns) {
    level.sent += conn.sent;
    level.ok += conn.ok;
    level.shed_overloaded += conn.shed_overloaded;
    level.shed_other += conn.shed_other;
    for (const double ms : conn.latencies_ms) {
      tracker.Add(ms);
      level.max_ms = std::max(level.max_ms, ms);
    }
  }
  level.goodput_eps = static_cast<double>(level.ok) / seconds;
  level.shed_rate =
      level.sent == 0
          ? 0
          : static_cast<double>(level.shed_overloaded + level.shed_other) /
                static_cast<double>(level.sent);
  if (level.ok > 0) {
    level.p50_ms = tracker.Percentile(0.5);
    level.p99_ms = tracker.Percentile(0.99);
    level.p999_ms = tracker.Percentile(0.999);
  }
  return level;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_net_serving.json";
  int connections = 4;
  int64_t objects = 256;
  int processors = 8;
  uint64_t events = 4000;  // per connection, per phase
  size_t window = 64;
  uint64_t seed = 42;
  std::vector<double> levels = {0.5, 1, 2};
  size_t max_inflight = 1024;
  double max_p99_ms = 2000;
  int sweep = 1;
  long long expect_requests = -1;
  long long expect_control = -1;
  long long expect_data = -1;
  long long expect_io = -1;
  long long expect_crc = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_flag = [&](const char* prefix, auto* out) {
      const size_t n = std::string(prefix).size();
      if (arg.rfind(prefix, 0) != 0) return false;
      long long value = std::atoll(arg.substr(n).c_str());
      if (value <= 0) {
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        std::exit(1);
      }
      *out = static_cast<std::decay_t<decltype(*out)>>(value);
      return true;
    };
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--levels=", 0) == 0) {
      levels = ParseDoubleList(arg.substr(9), "--levels=");
    } else if (arg.rfind("--max_p99_ms=", 0) == 0) {
      max_p99_ms = std::atof(arg.substr(13).c_str());
    } else if (arg == "--sweep=0") {
      sweep = 0;
    } else if (arg == "--sweep=1") {
      sweep = 1;
    } else if (int_flag("--connections=", &connections) ||
               int_flag("--objects=", &objects) ||
               int_flag("--processors=", &processors) ||
               int_flag("--events=", &events) ||
               int_flag("--window=", &window) ||
               int_flag("--seed=", &seed) ||
               int_flag("--max_inflight=", &max_inflight) ||
               int_flag("--expect_requests=", &expect_requests) ||
               int_flag("--expect_control=", &expect_control) ||
               int_flag("--expect_data=", &expect_data) ||
               int_flag("--expect_io=", &expect_io) ||
               int_flag("--expect_crc=", &expect_crc)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  OBJALLOC_CHECK(window * static_cast<size_t>(connections) < max_inflight)
      << "window * connections must sit below the admission budget, or the "
         "saturation phase sheds and the golden fingerprint stops being "
         "deterministic";
  OBJALLOC_CHECK(objects >= connections);

  // ---- The server under test, in-process but reached only via TCP.
  const model::CostModel cost_model =
      model::CostModel::StationaryComputing(0.25, 1.0);
  core::ServiceOptions service_options;
  service_options.num_shards = 4;
  core::ObjectService service(processors, cost_model, service_options);
  net::ServerOptions server_options;
  server_options.max_inflight_global = max_inflight;
  server_options.max_inflight_per_connection = max_inflight;
  server_options.max_batch_items = max_inflight;
  server_options.batch_max_events = max_inflight;
  server_options.batch_max_delay_us = 200;
  net::Server server(&service, server_options);
  OBJALLOC_CHECK(server.Start().ok());
  std::thread server_thread([&server] { server.Run(); });
  const uint16_t port = server.port();

  // ---- Register the object space over the wire, disjoint per connection.
  const int64_t per_conn = objects / connections;
  {
    net::Client admin;
    OBJALLOC_CHECK(admin.Connect("127.0.0.1", port).ok());
    for (int64_t id = 0; id < per_conn * connections; ++id) {
      OBJALLOC_CHECK(admin.Register(id, kSchemeMask, kAlgorithm).ok());
    }
  }

  std::vector<Conn> conns(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    Conn& conn = conns[static_cast<size_t>(c)];
    conn.rng = util::Rng(seed * 1000003 + static_cast<uint64_t>(c));
    conn.first_object = per_conn * c;
    conn.object_count = per_conn;
    OBJALLOC_CHECK(conn.client.Connect("127.0.0.1", port).ok());
  }

  // ---- Phase 1: closed-loop saturation. Defines "100% load".
  std::printf("saturation: %d connections x %llu events, window %zu...\n",
              connections, static_cast<unsigned long long>(events), window);
  auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (Conn& conn : conns) {
      threads.emplace_back([&conn, events, window, processors] {
        RunClosedLoop(&conn, events, window, processors);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double saturation_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  LevelResult saturation = Summarize(conns, saturation_seconds);
  OBJALLOC_CHECK_EQ(saturation.ok, saturation.sent)
      << "saturation phase shed despite the window fitting under the "
         "admission budget";
  const double saturation_eps = saturation.goodput_eps;
  std::printf("saturation: %.0f events/sec  p50/p99/p999 = "
              "%.2f/%.2f/%.2f ms\n",
              saturation_eps, saturation.p50_ms, saturation.p99_ms,
              saturation.p999_ms);

  // ---- Phase 2: offered-load sweep at multiples of saturation.
  std::vector<LevelResult> results;
  if (sweep != 0) {
    for (const double multiplier : levels) {
      const double offered_eps = multiplier * saturation_eps;
      const double per_conn_eps = offered_eps / connections;
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / per_conn_eps));
      for (Conn& conn : conns) ResetPhase(&conn);
      start = Clock::now();
      std::vector<std::thread> threads;
      for (Conn& conn : conns) {
        threads.emplace_back([&conn, events, interval, processors] {
          RunPaced(&conn, events, interval, processors);
        });
      }
      for (std::thread& thread : threads) thread.join();
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      LevelResult level = Summarize(conns, seconds);
      level.multiplier = multiplier;
      level.offered_eps = offered_eps;
      results.push_back(level);
      std::printf(
          "offered %.2fx (%9.0f eps): goodput %9.0f eps  shed %5.1f%% "
          "(%llu overloaded, %llu other)  p50/p99/p999 = %.2f/%.2f/%.2f ms\n",
          multiplier, offered_eps, level.goodput_eps, 100 * level.shed_rate,
          static_cast<unsigned long long>(level.shed_overloaded),
          static_cast<unsigned long long>(level.shed_other),
          level.p50_ms, level.p99_ms, level.p999_ms);
      // Claim 2: overload degrades, never collapses. The p99 of admitted
      // requests stays bounded because the admission budget caps the
      // queue; shedding (not queueing) absorbs the excess.
      OBJALLOC_CHECK(level.ok == 0 || level.p99_ms <= max_p99_ms)
          << "p99 of admitted requests exceeded --max_p99_ms at "
          << multiplier << "x offered load: " << level.p99_ms << " ms";
      if (multiplier >= 2) {
        OBJALLOC_CHECK(level.shed_overloaded > 0)
            << "2x saturation produced no kOverloaded sheds — the "
               "admission budget never engaged";
      }
    }
  }

  // ---- Phase 3: fingerprint parity. Replay exactly the admitted events
  // through a fresh in-process service and compare engine fingerprints.
  net::WireStats wire_stats;
  {
    net::Client admin;
    OBJALLOC_CHECK(admin.Connect("127.0.0.1", port).ok());
    util::StatusOr<net::WireStats> got = admin.QueryStats();
    OBJALLOC_CHECK(got.ok()) << got.status().ToString();
    wire_stats = *got;
  }
  OBJALLOC_CHECK_EQ(wire_stats.protocol_errors, 0u)
      << "well-formed traffic tripped the protocol-error path";

  uint64_t total_admitted = 0;
  core::ObjectService replay(processors, cost_model, service_options);
  {
    core::ObjectConfig config;
    config.initial_scheme = model::ProcessorSet(kSchemeMask);
    config.algorithm = static_cast<core::AlgorithmKind>(kAlgorithm);
    for (int64_t id = 0; id < per_conn * connections; ++id) {
      OBJALLOC_CHECK(replay.AddObject(id, config).ok());
    }
    std::vector<workload::MultiObjectEvent> admitted;
    for (const Conn& conn : conns) {
      admitted.clear();
      for (size_t i = 0; i < conn.events.size(); ++i) {
        if (!conn.admitted[i]) continue;
        workload::MultiObjectEvent event;
        event.object = conn.events[i].object;
        const auto processor =
            static_cast<model::ProcessorId>(conn.events[i].processor);
        event.request = conn.events[i].is_write
                            ? model::Request::Write(processor)
                            : model::Request::Read(processor);
        admitted.push_back(event);
      }
      total_admitted += admitted.size();
      if (!admitted.empty()) {
        auto batch = replay.ServeBatch(
            std::span<const workload::MultiObjectEvent>(admitted));
        OBJALLOC_CHECK(batch.ok()) << batch.status().ToString();
      }
    }
  }
  const model::CostBreakdown replay_breakdown = replay.TotalBreakdown();
  OBJALLOC_CHECK_EQ(wire_stats.admitted_events, total_admitted)
      << "server admitted counter disagrees with client-side ok replies";
  OBJALLOC_CHECK_EQ(wire_stats.total_requests, replay.TotalRequests())
      << "engine request count diverged from the in-process replay";
  OBJALLOC_CHECK(wire_stats.control_messages ==
                     replay_breakdown.control_messages &&
                 wire_stats.data_messages == replay_breakdown.data_messages &&
                 wire_stats.io_ops == replay_breakdown.io_ops)
      << "cost breakdown diverged from the in-process replay: the wire "
         "must add no semantics";
  OBJALLOC_CHECK_EQ(wire_stats.scheme_crc, replay.SchemeCrc())
      << "scheme table diverged from the in-process replay";
  std::printf("fingerprint parity: %llu admitted events replayed "
              "in-process, bit-identical (requests=%lld control=%lld "
              "data=%lld io=%lld scheme_crc=%u)\n",
              static_cast<unsigned long long>(total_admitted),
              static_cast<long long>(wire_stats.total_requests),
              static_cast<long long>(wire_stats.control_messages),
              static_cast<long long>(wire_stats.data_messages),
              static_cast<long long>(wire_stats.io_ops),
              wire_stats.scheme_crc);

  // ---- Golden-fingerprint gate (CI net-smoke, --sweep=0 runs only).
  bool golden_ok = true;
  auto check_golden = [&](const char* name, long long expected,
                          long long actual) {
    if (expected < 0) return;
    if (expected != actual) {
      std::fprintf(stderr,
                   "golden fingerprint mismatch: %s expected %lld got %lld\n",
                   name, expected, actual);
      golden_ok = false;
    }
  };
  if (expect_requests >= 0 || expect_control >= 0 || expect_data >= 0 ||
      expect_io >= 0 || expect_crc >= 0) {
    OBJALLOC_CHECK(sweep == 0)
        << "--expect_* goldens require --sweep=0: overload sheds are "
           "timing-dependent, so the admitted set is only deterministic "
           "when nothing sheds";
    check_golden("requests", expect_requests, wire_stats.total_requests);
    check_golden("control", expect_control, wire_stats.control_messages);
    check_golden("data", expect_data, wire_stats.data_messages);
    check_golden("io", expect_io, wire_stats.io_ops);
    check_golden("scheme_crc", expect_crc,
                 static_cast<long long>(wire_stats.scheme_crc));
    if (!golden_ok) {
      server.RequestDrain();
      server_thread.join();
      return 1;
    }
    std::printf("golden fingerprint matches expected values\n");
  }

  // ---- Graceful drain: the server must answer everything and exit clean.
  for (Conn& conn : conns) conn.client.Close();
  server.RequestDrain();
  server_thread.join();

  std::ofstream out(out_path);
  OBJALLOC_CHECK(out.good()) << "cannot write " << out_path;
  out << "{\n  \"benchmark\": \"net_serving\",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"connections\": " << connections << ",\n";
  out << "  \"objects\": " << per_conn * connections << ",\n";
  out << "  \"processors\": " << processors << ",\n";
  out << "  \"events_per_connection\": " << events << ",\n";
  out << "  \"window\": " << window << ",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"max_inflight\": " << max_inflight << ",\n";
  out << "  \"saturation_events_per_sec\": " << saturation_eps << ",\n";
  out << "  \"saturation_p50_ms\": " << saturation.p50_ms << ",\n";
  out << "  \"saturation_p99_ms\": " << saturation.p99_ms << ",\n";
  out << "  \"saturation_p999_ms\": " << saturation.p999_ms << ",\n";
  out << "  \"levels\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    out << "    {\"offered_multiplier\": " << r.multiplier
        << ", \"offered_events_per_sec\": " << r.offered_eps
        << ", \"goodput_events_per_sec\": " << r.goodput_eps
        << ", \"sent\": " << r.sent << ", \"ok\": " << r.ok
        << ", \"shed_overloaded\": " << r.shed_overloaded
        << ", \"shed_other\": " << r.shed_other
        << ", \"shed_rate\": " << r.shed_rate
        << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
        << ", \"p999_ms\": " << r.p999_ms << ", \"max_ms\": " << r.max_ms
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"fingerprint\": {\"requests\": " << wire_stats.total_requests
      << ", \"control\": " << wire_stats.control_messages
      << ", \"data\": " << wire_stats.data_messages
      << ", \"io\": " << wire_stats.io_ops
      << ", \"scheme_crc\": " << wire_stats.scheme_crc
      << ", \"admitted\": " << total_admitted
      << ", \"parity\": \"bit-identical\"}\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
