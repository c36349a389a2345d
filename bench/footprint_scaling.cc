// Memory-footprint scaling of the storage engine: bytes/object, build and
// serve throughput, and checkpoint/recovery time at object counts from
// hundreds to millions. The companion to service_scaling — that bench asks
// how fast the engine serves; this one asks how much engine there is per
// object, and whether it stays flat as the population grows by four orders
// of magnitude.
//
// Usage: footprint_scaling [--out=BENCH_footprint_scaling.json]
//                          [--objects=512,100000,1000000] [--events=1000000]
//                          [--processors=16] [--shards=16] [--batch=8192]
//                          [--max_bytes_per_object=N]
//                          [--grid_events=100000]
//                          [--expect_control=N] [--expect_data=N]
//                          [--expect_io=N] [--expect_crc=N]
//
// Per object-count row: register the population (Zipf workload
// personalities pick each object's kind and initial scheme), read
// ObjectService::MemoryUsageBytes() — the page-level accounting walk, not
// an RSS guess — and the process's huge-page-backed bytes (huge_page_bytes,
// from /proc/self/smaps_rollup), serve a Zipf event stream, then stream a
// checkpoint to disk and recover from it, timing both directions. 10^7
// objects is opt-in via --objects; the default sweep tops out at 10^6.
//
// --max_bytes_per_object is the CI footprint gate: rows with >= 10^6
// objects (where per-object cost dominates fixed overhead and slab-page
// slack) must fit the budget or the bench exits non-zero.
//
// Determinism rides along: before the sweep, a shards {1,4,16} x threads
// {1,2,hw} grid serves the same 512-object Zipf trace and every config
// must produce byte-identical breakdowns and scheme CRCs; the --expect_*
// flags pin that fingerprint to committed golden values, extending the
// bit-identity gate to the Zipf generator and the slab storage layer.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "objalloc/core/object_service.h"
#include "objalloc/util/logging.h"
#include "objalloc/util/parallel.h"
#include "objalloc/workload/zipf_objects.h"

namespace {

using namespace objalloc;

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// Peak RSS of the process so far, in bytes (ru_maxrss is KiB on Linux).
// Monotone across rows — meaningful as "the sweep up to here fit in X".
size_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

// Bytes of the process's anonymous memory on transparent huge pages right
// now: the AnonHugePages line of /proc/self/smaps_rollup (read-only), or 0
// where the kernel has no such file. Shows that the engine's large tables
// (shard directories of 2 MiB or more, reserved slab runs) really sit on
// 2 MiB pages.
size_t HugePageBytes() {
  std::ifstream rollup("/proc/self/smaps_rollup");
  const std::string key = "AnonHugePages:";
  for (std::string line; std::getline(rollup, line);) {
    if (line.compare(0, key.size(), key) == 0) {
      return static_cast<size_t>(std::stoull(line.substr(key.size()))) * 1024;
    }
  }
  return 0;
}

// Registration config from the object's workload personality: read-mostly
// objects get the static allocator, the rest the dynamic one — both
// inlined kinds — and every object starts allocated at its own hot set.
core::ObjectConfig ConfigFor(
    const workload::ZipfObjectGenerator::Personality& personality) {
  core::ObjectConfig config;
  config.initial_scheme = personality.HomeSet();
  config.algorithm = personality.read_fraction >= 0.85
                         ? core::AlgorithmKind::kStatic
                         : core::AlgorithmKind::kDynamic;
  return config;
}

std::vector<long long> ParseCountList(const std::string& arg,
                                      const char* flag) {
  std::vector<long long> values;
  size_t pos = 0;
  while (pos <= arg.size()) {
    size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(pos, comma - pos);
    long long value = 0;
    try {
      size_t used = 0;
      value = std::stoll(token, &used);
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

struct Row {
  long long objects = 0;
  double register_per_sec = 0;
  size_t memory_bytes = 0;
  double bytes_per_object = 0;
  size_t huge_page_bytes = 0;
  double events_per_sec = 0;
  double checkpoint_seconds = 0;
  size_t checkpoint_bytes = 0;
  double recover_seconds = 0;
  size_t peak_rss_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_footprint_scaling.json";
  std::vector<long long> object_counts = {512, 100000, 1000000};
  size_t events = 1000000;
  int processors = 16;
  int shards = 16;
  size_t batch_size = 8192;
  long long max_bytes_per_object = 0;  // 0 = no gate
  size_t grid_events = 100000;
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
    } else if (arg.rfind("--objects=", 0) == 0) {
      object_counts = ParseCountList(arg.substr(10), "--objects=");
    } else if (int_flag("--events=", &events) ||
               int_flag("--processors=", &processors) ||
               int_flag("--shards=", &shards) ||
               int_flag("--batch=", &batch_size) ||
               int_flag("--max_bytes_per_object=", &max_bytes_per_object) ||
               int_flag("--grid_events=", &grid_events) ||
               int_flag("--expect_control=", &expect_control) ||
               int_flag("--expect_data=", &expect_data) ||
               int_flag("--expect_io=", &expect_io) ||
               int_flag("--expect_crc=", &expect_crc)) {
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }

  const uint64_t kSeed = 0xf007f00d;
  const int hw = util::HardwareConcurrency();
  const model::CostModel cost_model =
      model::CostModel::StationaryComputing(0.25, 1.0);

  // --- Determinism grid -------------------------------------------------
  // Small population, full shard x thread sweep: every configuration must
  // reproduce one fingerprint, and the goldens pin it across PRs.
  struct Fingerprint {
    model::CostBreakdown breakdown;
    int64_t requests = 0;
    uint32_t scheme_crc = 0;
    bool operator==(const Fingerprint& other) const {
      return breakdown == other.breakdown && requests == other.requests &&
             scheme_crc == other.scheme_crc;
    }
  };
  Fingerprint reference;
  {
    const long long grid_objects = 512;
    workload::ZipfObjectOptions options;
    options.num_processors = processors;
    options.num_objects = grid_objects;
    options.length = grid_events;
    workload::ZipfObjectGenerator generator(options, kSeed);
    std::vector<workload::MultiObjectEvent> trace;
    trace.reserve(grid_events);
    for (size_t k = 0; k < grid_events; ++k) trace.push_back(generator.Next());

    bool have_reference = false;
    const int grid_shards[] = {1, 4, 16};
    const int grid_threads[] = {1, 2, hw > 2 ? hw : 2};
    for (int grid_shard : grid_shards) {
      for (int threads : grid_threads) {
        util::ScopedThreads scope(threads);
        core::ServiceOptions service_options;
        service_options.num_shards = grid_shard;
        core::ObjectService service(processors, cost_model, service_options);
        service.ReserveObjects(static_cast<size_t>(grid_objects));
        for (long long id = 0; id < grid_objects; ++id) {
          OBJALLOC_CHECK(
              service.AddObject(id, ConfigFor(generator.PersonalityFor(id)))
                  .ok());
        }
        std::span<const workload::MultiObjectEvent> all(trace);
        for (size_t pos = 0; pos < all.size(); pos += batch_size) {
          auto batch = service.ServeBatch(
              all.subspan(pos, std::min(batch_size, all.size() - pos)));
          OBJALLOC_CHECK(batch.ok()) << batch.status().ToString();
        }
        Fingerprint fingerprint;
        fingerprint.breakdown = service.TotalBreakdown();
        fingerprint.requests = service.TotalRequests();
        fingerprint.scheme_crc = service.SchemeCrc();
        if (!have_reference) {
          reference = fingerprint;
          have_reference = true;
        }
        OBJALLOC_CHECK(fingerprint == reference)
            << "shards=" << grid_shard << " threads=" << threads
            << " diverged from the reference run: results must be "
               "byte-identical across every configuration";
      }
    }
    std::printf("determinism: 9 configs byte-identical over %lld objects "
                "(breakdown %lld/%lld/%lld, scheme crc %08x)\n",
                grid_objects,
                static_cast<long long>(reference.breakdown.control_messages),
                static_cast<long long>(reference.breakdown.data_messages),
                static_cast<long long>(reference.breakdown.io_ops),
                reference.scheme_crc);
  }

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
  check_golden("control", expect_control,
               reference.breakdown.control_messages);
  check_golden("data", expect_data, reference.breakdown.data_messages);
  check_golden("io", expect_io, reference.breakdown.io_ops);
  check_golden("scheme_crc", expect_crc,
               static_cast<long long>(reference.scheme_crc));
  if (!golden_ok) return 1;
  if (expect_control >= 0 || expect_data >= 0 || expect_io >= 0 ||
      expect_crc >= 0) {
    std::printf("golden fingerprint matches expected values\n");
  }

  // --- Footprint sweep --------------------------------------------------
  const std::string durable_dir =
      (std::filesystem::temp_directory_path() / "objalloc_footprint_bench")
          .string();
  std::vector<Row> rows;
  bool budget_ok = true;
  for (long long objects : object_counts) {
    workload::ZipfObjectOptions options;
    options.num_processors = processors;
    options.num_objects = objects;
    options.length = events;
    workload::ZipfObjectGenerator generator(options, kSeed);

    core::ServiceOptions service_options;
    service_options.num_shards = shards;
    core::ObjectService service(processors, cost_model, service_options);
    service.ReserveObjects(static_cast<size_t>(objects));
    auto start = std::chrono::steady_clock::now();
    for (long long id = 0; id < objects; ++id) {
      OBJALLOC_CHECK(
          service.AddObject(id, ConfigFor(generator.PersonalityFor(id))).ok());
    }
    auto stop = std::chrono::steady_clock::now();

    Row row;
    row.objects = objects;
    row.register_per_sec =
        static_cast<double>(objects) / Seconds(start, stop);
    row.memory_bytes = service.MemoryUsageBytes();
    row.bytes_per_object =
        static_cast<double>(row.memory_bytes) / static_cast<double>(objects);
    row.huge_page_bytes = HugePageBytes();

    workload::ZipfEventSource source(options, kSeed + 1);
    start = std::chrono::steady_clock::now();
    auto served = service.ServeStream(source, batch_size);
    stop = std::chrono::steady_clock::now();
    OBJALLOC_CHECK(served.ok()) << served.status().ToString();
    row.events_per_sec = static_cast<double>(events) / Seconds(start, stop);

    // Checkpoint the served state (EnableDurability streams the
    // generation-1 snapshot page by page), then recover from it — the
    // restore path is the same streaming reader plus the route rebuild.
    std::filesystem::remove_all(durable_dir);
    std::filesystem::create_directories(durable_dir);
    start = std::chrono::steady_clock::now();
    util::Status durable = service.EnableDurability(durable_dir);
    stop = std::chrono::steady_clock::now();
    OBJALLOC_CHECK(durable.ok()) << durable.ToString();
    row.checkpoint_seconds = Seconds(start, stop);
    row.checkpoint_bytes = static_cast<size_t>(std::filesystem::file_size(
        std::filesystem::path(durable_dir) / "checkpoint-1.ckpt"));
    OBJALLOC_CHECK(service.DisableDurability().ok());
    const uint32_t before_crc = service.SchemeCrc();

    start = std::chrono::steady_clock::now();
    auto recovered = core::ObjectService::Recover(durable_dir);
    stop = std::chrono::steady_clock::now();
    OBJALLOC_CHECK(recovered.ok()) << recovered.status().ToString();
    row.recover_seconds = Seconds(start, stop);
    OBJALLOC_CHECK_EQ(recovered->object_count(),
                      static_cast<size_t>(objects));
    OBJALLOC_CHECK_EQ(recovered->SchemeCrc(), before_crc)
        << "recovery changed the allocation state";
    std::filesystem::remove_all(durable_dir);

    row.peak_rss_bytes = PeakRssBytes();
    rows.push_back(row);
    std::printf("objects=%-9lld %8.1f B/obj  huge pages %4zu MB  "
                "%10.0f reg/sec  %10.0f events/sec  ckpt %6.3fs (%zu MB)  "
                "recover %6.3fs  peak rss %zu MB\n",
                row.objects, row.bytes_per_object, row.huge_page_bytes >> 20,
                row.register_per_sec,
                row.events_per_sec, row.checkpoint_seconds,
                row.checkpoint_bytes >> 20, row.recover_seconds,
                row.peak_rss_bytes >> 20);

    if (max_bytes_per_object > 0 && objects >= 1000000 &&
        row.bytes_per_object > static_cast<double>(max_bytes_per_object)) {
      std::fprintf(stderr,
                   "footprint gate: %lld objects cost %.1f bytes/object, "
                   "budget %lld\n",
                   objects, row.bytes_per_object, max_bytes_per_object);
      budget_ok = false;
    }
  }
  if (!budget_ok) return 1;
  if (max_bytes_per_object > 0) {
    std::printf("footprint gate: all rows within %lld bytes/object\n",
                max_bytes_per_object);
  }

  std::ofstream out(out_path);
  OBJALLOC_CHECK(out.good()) << "cannot write " << out_path;
  out << "{\n  \"benchmark\": \"footprint_scaling\",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"processors\": " << processors << ",\n";
  out << "  \"shards\": " << shards << ",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"batch_size\": " << batch_size << ",\n";
  out << "  \"fingerprint\": {\"control\": "
      << reference.breakdown.control_messages
      << ", \"data\": " << reference.breakdown.data_messages
      << ", \"io\": " << reference.breakdown.io_ops
      << ", \"scheme_crc\": " << reference.scheme_crc << "},\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"objects\": " << r.objects
        << ", \"memory_bytes\": " << r.memory_bytes
        << ", \"bytes_per_object\": " << r.bytes_per_object
        << ", \"huge_page_bytes\": " << r.huge_page_bytes
        << ", \"register_per_sec\": " << r.register_per_sec
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"checkpoint_seconds\": " << r.checkpoint_seconds
        << ", \"checkpoint_bytes\": " << r.checkpoint_bytes
        << ", \"recover_seconds\": " << r.recover_seconds
        << ", \"peak_rss_bytes\": " << r.peak_rss_bytes << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
