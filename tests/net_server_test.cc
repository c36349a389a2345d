// The TCP serving front-end's robustness envelope (DESIGN.md §15), over
// real loopback sockets: wire traffic is bit-identical to the in-process
// path, budgets shed with kOverloaded instead of queueing, deadlines reply
// kTimeout, slow clients and idle connections are evicted, protocol chaos
// never takes the server down, and RequestDrain exits cleanly with every
// admitted request answered. Runs under TSan in CI (chaos-tsan job): the
// event loop, the engine's shard workers, and the chaos clients race here
// on purpose.

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "objalloc/core/object_service.h"
#include "objalloc/model/cost_model.h"
#include "objalloc/net/chaos.h"
#include "objalloc/net/client.h"
#include "objalloc/net/server.h"
#include "objalloc/net/wire.h"
#include "objalloc/util/parallel.h"
#include "objalloc/util/status.h"
#include "objalloc/workload/multi_object.h"
#include "tag_colliding_ids.h"

namespace objalloc::net {
namespace {

using core::ObjectService;
using core::ServiceOptions;
using model::CostModel;

constexpr int kProcessors = 8;
constexpr uint64_t kSchemeMask = 0b0111;  // processors {0,1,2}

CostModel TestModel() { return CostModel::StationaryComputing(0.25, 1.0); }

ObjectService MakeService() {
  return ObjectService(kProcessors, TestModel(),
                       ServiceOptions{.num_shards = 4});
}

core::ObjectConfig TestConfig() {
  core::ObjectConfig config;
  config.initial_scheme = model::ProcessorSet(kSchemeMask);
  config.algorithm = core::AlgorithmKind::kDynamic;
  return config;
}

// One connection's traffic: `count` seeded reads and writes (one in three
// a write) over the objects [first_object, first_object + objects).
std::vector<workload::MultiObjectEvent> ConnectionTraffic(int64_t first_object,
                                                          int64_t objects,
                                                          size_t count,
                                                          uint64_t seed) {
  std::vector<workload::MultiObjectEvent> events;
  uint64_t state = seed;
  for (size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    workload::MultiObjectEvent event;
    event.object = first_object + static_cast<int64_t>((state >> 33) %
                                                       objects);
    const auto processor =
        static_cast<model::ProcessorId>((state >> 13) % kProcessors);
    event.request = (state >> 7) % 3 == 0 ? model::Request::Write(processor)
                                          : model::Request::Read(processor);
    events.push_back(event);
  }
  return events;
}

// Starts the server on an ephemeral loopback port and runs its loop on a
// background thread; the destructor drains and joins.
class ServerHarness {
 public:
  explicit ServerHarness(ObjectService* service, ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<Server>(service, options);
    start_status_ = server_->Start();
    if (start_status_.ok()) {
      thread_ = std::thread([this] { run_status_ = server_->Run(); });
    }
  }

  ~ServerHarness() { Shutdown(); }

  void Shutdown() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
  }

  Server& server() { return *server_; }
  uint16_t port() const { return server_->port(); }
  const util::Status& start_status() const { return start_status_; }
  const util::Status& run_status() const { return run_status_; }

 private:
  std::unique_ptr<Server> server_;
  std::thread thread_;
  util::Status start_status_ = util::Status::Ok();
  util::Status run_status_ = util::Status::Ok();
};

TEST(NetServerTest, PingRegisterReadWrite) {
  ObjectService service = MakeService();
  ServerHarness harness(&service);
  ASSERT_TRUE(harness.start_status().ok()) << harness.start_status().ToString();

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  EXPECT_TRUE(client.Ping().ok());

  ASSERT_TRUE(client.Register(7, kSchemeMask, /*algorithm=*/1).ok());
  // Registering the same object twice is the library's error, not a
  // connection-killer.
  EXPECT_FALSE(client.Register(7, kSchemeMask, 1).ok());
  EXPECT_TRUE(client.connected());

  util::StatusOr<double> read = client.Read(7, /*processor=*/0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_GE(*read, 0.0);
  util::StatusOr<double> write = client.Write(7, /*processor=*/5);
  ASSERT_TRUE(write.ok());
  EXPECT_GT(*write, 0.0);  // write outside the scheme moves data

  // Caller errors come back typed and leave the connection alive.
  EXPECT_EQ(client.Read(999, 0).status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(client.Read(7, kProcessors + 3).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(client.Register(8, kSchemeMask, 77).code(),
            util::StatusCode::kInvalidArgument);
  // The engine serves only SA (0) and DA (1); the adaptive kind is refused.
  EXPECT_EQ(client.Register(8, kSchemeMask, /*algorithm=*/2).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());

  harness.Shutdown();
  EXPECT_TRUE(harness.run_status().ok());
  EXPECT_EQ(service.TotalRequests(), 2);
}

TEST(NetServerTest, BatchIsAllOrNothing) {
  ObjectService service = MakeService();
  ServerHarness harness(&service);
  ASSERT_TRUE(harness.start_status().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(client.Register(id, kSchemeMask, 1).ok());
  }

  BatchRequest good;
  for (int i = 0; i < 16; ++i) {
    good.items.push_back({i % 4, static_cast<uint32_t>(i % kProcessors),
                          static_cast<uint8_t>(i % 3 == 0)});
  }
  util::StatusOr<std::vector<double>> costs = client.Batch(good);
  ASSERT_TRUE(costs.ok()) << costs.status().ToString();
  EXPECT_EQ(costs->size(), 16u);

  // One unknown object rejects the whole wire batch with no state change.
  const int64_t before = service.TotalRequests();
  BatchRequest bad = good;
  bad.items[9].object = 424242;
  EXPECT_EQ(client.Batch(bad).status().code(), util::StatusCode::kNotFound);
  harness.Shutdown();
  EXPECT_EQ(service.TotalRequests(), before);
}

// The engine-visible state a wire kStats reply carries: what a refused
// frame must leave unchanged.
struct Fingerprint {
  int64_t total_requests = 0;
  int64_t control_messages = 0;
  int64_t data_messages = 0;
  int64_t io_ops = 0;
  uint32_t scheme_crc = 0;

  static Fingerprint Of(const WireStats& stats) {
    return {stats.total_requests, stats.control_messages, stats.data_messages,
            stats.io_ops, stats.scheme_crc};
  }
  static Fingerprint Of(const ObjectService& service) {
    const model::CostBreakdown breakdown = service.TotalBreakdown();
    return {service.TotalRequests(), breakdown.control_messages,
            breakdown.data_messages, breakdown.io_ops, service.SchemeCrc()};
  }
  bool operator==(const Fingerprint&) const = default;
};

// A valid wire batch of `count` items over `ids`: processors and one write
// in three vary with the item's position `first + i` in its stream.
BatchRequest ValidBatch(const std::vector<int64_t>& ids, size_t count,
                        size_t first = 0) {
  BatchRequest request;
  for (size_t i = first; i < first + count; ++i) {
    request.items.push_back({ids[(i * 7) % ids.size()],
                             static_cast<uint32_t>(i % kProcessors),
                             static_cast<uint8_t>(i % 3 == 0)});
  }
  return request;
}

// The engine events of `request`, in order.
std::vector<workload::MultiObjectEvent> EventsOf(const BatchRequest& request) {
  std::vector<workload::MultiObjectEvent> events;
  for (const BatchItem& item : request.items) {
    const auto processor = static_cast<model::ProcessorId>(item.processor);
    events.push_back({item.object, item.is_write != 0
                                       ? model::Request::Write(processor)
                                       : model::Request::Read(processor)});
  }
  return events;
}

// Twelve registered ids, `present` of a tag-colliding pair among them: at
// most 12 per shard keeps every shard's directory at 16 buckets, so a probe
// for the pair's `absent` matches `present`'s bucket.
std::vector<int64_t> RegisteredIds(const tests::TagCollidingIds& pair) {
  std::vector<int64_t> ids = {pair.present};
  for (int64_t id = 2'000'000; ids.size() < 12; ++id) ids.push_back(id);
  return ids;
}

// A kBatch frame is checked whole, before anything is queued, with the
// engine's own refusal rule: an id with no registered object draws
// kNotFound — a far id, and one whose directory tag matches a registered
// object's (only the confirm against the record refuses it) — and a
// registered id with a processor outside [0, n) draws kOutOfRange; at one
// item the unknown id decides, across items the first bad one does. Bad
// items sit at the head, the tail and on both sides of the check's
// kPrefetchDistance stage boundaries (items 15-17 and 31-33), in frames of
// 1, 17, 33 and max_batch_items items. Every refusal counts the whole
// frame in rejected_events and leaves the engine's fingerprint as it was.
// A parse error comes before the check, and the check before the budgets.
TEST(NetServerTest, BatchCheckAppliesTheEngineRefusalRule) {
  const tests::TagCollidingIds pair = tests::FindTagCollidingIds();
  ASSERT_GE(pair.present, 0) << "no tag-and-home pair among 2^20 ids";
  const std::vector<int64_t> ids = RegisteredIds(pair);
  constexpr int64_t kFarId = 5'000'000;
  constexpr size_t kMaxItems = 64;

  ObjectService service = MakeService();
  ObjectService reference = MakeService();
  for (int64_t id : ids) {
    ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
    ASSERT_TRUE(reference.AddObject(id, TestConfig()).ok());
  }
  ServerOptions options;
  options.max_batch_items = kMaxItems;
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  size_t served = 0;  // items of valid frames so far, the stream position
  auto serve_valid = [&](size_t count) {
    const BatchRequest request = ValidBatch(ids, count, served);
    served += count;
    util::StatusOr<std::vector<double>> costs = client.Batch(request);
    ASSERT_TRUE(costs.ok()) << costs.status().ToString();
    util::StatusOr<core::BatchResult> expected =
        reference.ServeBatch(EventsOf(request));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*costs, expected->costs);
  };
  // Sends `request`, expects `code` and `message`, the whole frame (or one
  // event for an unparsed frame) in rejected_events, and no engine change.
  auto expect_refused = [&](const BatchRequest& request,
                            util::StatusCode code, const std::string& message,
                            uint64_t rejected) {
    util::StatusOr<WireStats> before = client.QueryStats();
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    util::StatusOr<std::vector<double>> reply = client.Batch(request);
    EXPECT_EQ(reply.status().code(), code) << reply.status().ToString();
    EXPECT_EQ(reply.status().message(), message);
    util::StatusOr<WireStats> after = client.QueryStats();
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after->rejected_events - before->rejected_events, rejected);
    EXPECT_EQ(after->admitted_events, before->admitted_events);
    EXPECT_EQ(Fingerprint::Of(*after), Fingerprint::Of(*before));
    EXPECT_EQ(Fingerprint::Of(*after), Fingerprint::Of(reference));
  };

  struct Bad {
    const char* name;
    int64_t object;  // -1: the frame's own object at that item
    uint32_t processor;
    util::StatusCode code;
  };
  const std::string kUnknown = "object not registered";
  const std::string kRange = "processor out of range";
  const Bad kinds[] = {
      {"far unknown id", kFarId, 0, util::StatusCode::kNotFound},
      {"tag-colliding unknown id", pair.absent, 1, util::StatusCode::kNotFound},
      {"processor n", -1, kProcessors, util::StatusCode::kOutOfRange},
      {"processor 2^31", -1, 0x80000000u, util::StatusCode::kOutOfRange},
      {"unknown id and processor n", kFarId, kProcessors,
       util::StatusCode::kNotFound},
      {"tag-colliding id and processor 2^31", pair.absent, 0x80000000u,
       util::StatusCode::kNotFound},
  };
  for (const size_t size : {size_t{1}, size_t{17}, size_t{33}, kMaxItems}) {
    serve_valid(size);
    for (const size_t at : {size_t{0}, size_t{15}, size_t{16}, size_t{17},
                            size_t{31}, size_t{32}, size_t{33}, size - 1}) {
      if (at >= size) continue;
      for (const Bad& bad : kinds) {
        SCOPED_TRACE(std::string(bad.name) + " at item " + std::to_string(at) +
                     " of " + std::to_string(size));
        BatchRequest request = ValidBatch(ids, size);
        if (bad.object >= 0) request.items[at].object = bad.object;
        request.items[at].processor = bad.processor;
        expect_refused(request, bad.code,
                       bad.code == util::StatusCode::kNotFound ? kUnknown
                                                               : kRange,
                       size);
      }
    }
  }
  // Two bad items: the first decides, whichever kind it is.
  for (const auto& [first, second] :
       {std::pair<size_t, size_t>{0, kMaxItems - 1}, {15, 16}, {32, 33}}) {
    SCOPED_TRACE("bad items " + std::to_string(first) + " and " +
                 std::to_string(second));
    BatchRequest unknown_first = ValidBatch(ids, kMaxItems);
    unknown_first.items[first].object = pair.absent;
    unknown_first.items[second].processor = kProcessors;
    expect_refused(unknown_first, util::StatusCode::kNotFound, kUnknown,
                   kMaxItems);
    BatchRequest range_first = ValidBatch(ids, kMaxItems);
    range_first.items[first].processor = kProcessors;
    range_first.items[second].object = kFarId;
    expect_refused(range_first, util::StatusCode::kOutOfRange, kRange,
                   kMaxItems);
  }
  // A parse error decides before the check and counts one event, also
  // right after a full frame was checked.
  serve_valid(kMaxItems);
  BatchRequest oversized = ValidBatch(ids, kMaxItems + 1);
  oversized.items[0].object = kFarId;
  expect_refused(oversized, util::StatusCode::kInvalidArgument,
                 "batch item count exceeds maximum", 1);
  expect_refused(BatchRequest{}, util::StatusCode::kInvalidArgument,
                 "empty batch", 1);
  serve_valid(kMaxItems);

  harness.Shutdown();
  EXPECT_EQ(Fingerprint::Of(service), Fingerprint::Of(reference));
}

// The check comes before the admission budgets: with the connection's
// in-flight budget held by a queued frame, a valid frame is shed as
// kOverloaded but a frame with a bad item is refused for it and counted in
// rejected_events.
TEST(NetServerTest, BatchCheckPrecedesTheAdmissionBudgets) {
  constexpr size_t kItems = 32;
  const std::vector<int64_t> ids = {1, 2, 3};
  ObjectService service = MakeService();
  for (int64_t id : ids) {
    ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
  ServerOptions options;
  options.max_batch_items = kItems;
  options.max_inflight_per_connection = kItems;
  // Nothing is served while the three frames land (see
  // OverloadShedsWithKOverloadedNeverQueues).
  options.batch_max_events = 4096;
  options.batch_max_delay_us = 100000;
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  const BatchRequest valid = ValidBatch(ids, kItems);
  BatchRequest bad = valid;
  bad.items[kItems - 1].processor = kProcessors;
  util::StatusOr<uint64_t> queued = client.SendBatch(valid);
  util::StatusOr<uint64_t> shed = client.SendBatch(valid);
  util::StatusOr<uint64_t> refused = client.SendBatch(bad);
  ASSERT_TRUE(queued.ok() && shed.ok() && refused.ok());
  for (int i = 0; i < 3; ++i) {
    util::StatusOr<Client::Reply> reply = client.WaitReply(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const util::StatusCode expected =
        reply->request_id == *queued ? util::StatusCode::kOk
        : reply->request_id == *shed ? util::StatusCode::kOverloaded
                                     : util::StatusCode::kOutOfRange;
    EXPECT_EQ(reply->status.code(), expected) << reply->status.ToString();
  }
  util::StatusOr<WireStats> stats = client.QueryStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted_events, kItems);
  EXPECT_EQ(stats->shed_overloaded, kItems);
  EXPECT_EQ(stats->rejected_events, kItems);
  EXPECT_EQ(stats->total_requests, static_cast<int64_t>(kItems));
}

// The check on the executor path, while engine batches are in flight: one
// connection pipelines valid executor-sized frames while another sends
// frames with a bad item. Every bad frame is refused whole, every valid
// one gets the costs a serial in-process run gives it, and the engine ends
// where the valid frames alone leave it.
TEST(NetServerTest, BatchCheckRefusesWhileExecutorBatchesAreInFlight) {
  constexpr size_t kItems = ObjectService::kInlineBatchEvents;
  // Exactly the connection's default in-flight budget.
  constexpr size_t kValidFrames = 4;
  util::ScopedThreads scope(4);
  const tests::TagCollidingIds pair = tests::FindTagCollidingIds();
  ASSERT_GE(pair.present, 0) << "no tag-and-home pair among 2^20 ids";
  const std::vector<int64_t> ids = RegisteredIds(pair);

  std::vector<BatchRequest> valid;
  std::vector<double> reference_costs;
  ObjectService reference = MakeService();
  {
    util::ScopedThreads serial(1);
    for (int64_t id : ids) {
      ASSERT_TRUE(reference.AddObject(id, TestConfig()).ok());
    }
    for (size_t f = 0; f < kValidFrames; ++f) {
      valid.push_back(ValidBatch(ids, kItems, f * kItems));
      util::StatusOr<core::BatchResult> result =
          reference.ServeBatch(EventsOf(valid.back()));
      ASSERT_TRUE(result.ok());
      reference_costs.insert(reference_costs.end(), result->costs.begin(),
                             result->costs.end());
    }
  }

  ObjectService service = MakeService();
  ASSERT_GE(service.CompletionFd(), 0) << "the executor path is off";
  for (int64_t id : ids) {
    ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
  ServerOptions options;
  options.max_batch_items = kItems;
  options.batch_max_events = kItems;
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());
  Client good;
  Client bad;
  ASSERT_TRUE(good.Connect("127.0.0.1", harness.port()).ok());
  ASSERT_TRUE(bad.Connect("127.0.0.1", harness.port()).ok());

  std::vector<uint64_t> sent;
  for (const BatchRequest& request : valid) {
    util::StatusOr<uint64_t> id = good.SendBatch(request);
    ASSERT_TRUE(id.ok());
    sent.push_back(*id);
  }
  size_t refused = 0;
  for (const size_t at : {size_t{0}, size_t{16}, size_t{33}, kItems - 1}) {
    for (int kind = 0; kind < 3; ++kind) {
      SCOPED_TRACE("kind " + std::to_string(kind) + " at item " +
                   std::to_string(at));
      BatchRequest request = ValidBatch(ids, kItems, at);
      if (kind == 0) request.items[at].object = pair.absent;
      if (kind == 1) request.items[at].object = 5'000'000;
      if (kind == 2) request.items[at].processor = kProcessors;
      util::StatusOr<std::vector<double>> reply = bad.Batch(request);
      EXPECT_EQ(reply.status().code(), kind == 2
                                           ? util::StatusCode::kOutOfRange
                                           : util::StatusCode::kNotFound)
          << reply.status().ToString();
      EXPECT_EQ(reply.status().message(), kind == 2 ? "processor out of range"
                                                    : "object not registered");
      ++refused;
    }
  }
  for (size_t f = 0; f < kValidFrames; ++f) {
    util::StatusOr<Client::Reply> reply = good.WaitReply(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();
    const auto it = std::find(sent.begin(), sent.end(), reply->request_id);
    ASSERT_NE(it, sent.end());
    const size_t first = static_cast<size_t>(it - sent.begin()) * kItems;
    ASSERT_EQ(reply->costs.size(), kItems);
    for (size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(reply->costs[i], reference_costs[first + i]) << first + i;
    }
  }
  util::StatusOr<WireStats> stats = bad.QueryStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rejected_events, refused * kItems);
  EXPECT_EQ(stats->admitted_events, kValidFrames * kItems);
  EXPECT_EQ(Fingerprint::Of(*stats), Fingerprint::Of(reference));
}

// Single-event frames are not pre-checked: the engine refuses a bad one on
// its own, inside the coalesced batch. One connection's unknown id draws
// kNotFound, and its processor 0x80000000 — negative as a ProcessorId —
// kOutOfRange, while the valid frames another connection put in the same
// engine batch get the costs an in-process run gives them.
TEST(NetServerTest, RefusedFramesLeaveTheirCoalescedBatchServed) {
  constexpr size_t kValid = 6;
  const std::vector<workload::MultiObjectEvent> traffic =
      ConnectionTraffic(0, 2, kValid, 55);
  ObjectService reference = MakeService();
  for (int64_t id = 0; id < 2; ++id) {
    ASSERT_TRUE(reference.AddObject(id, TestConfig()).ok());
  }
  util::StatusOr<core::BatchResult> expected = reference.ServeBatch(
      std::span<const workload::MultiObjectEvent>(traffic));
  ASSERT_TRUE(expected.ok());

  ObjectService service = MakeService();
  ServerOptions options;
  options.batch_max_delay_us = 500'000;  // every frame lands in one window
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());
  Client good;
  Client bad;
  ASSERT_TRUE(good.Connect("127.0.0.1", harness.port()).ok());
  ASSERT_TRUE(bad.Connect("127.0.0.1", harness.port()).ok());
  for (int64_t id = 0; id < 2; ++id) {
    ASSERT_TRUE(good.Register(id, kSchemeMask, 1).ok());
  }

  std::vector<uint64_t> ids;
  auto send_good = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      util::StatusOr<uint64_t> id = good.SendServe(
          traffic[i].request.is_write(), traffic[i].object,
          static_cast<uint32_t>(traffic[i].request.processor));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
  };
  send_good(0, kValid / 2);
  util::StatusOr<uint64_t> unknown = bad.SendServe(false, 424242, 0);
  util::StatusOr<uint64_t> negative = bad.SendServe(true, 0, 0x80000000u);
  ASSERT_TRUE(unknown.ok() && negative.ok());
  send_good(kValid / 2, kValid);

  for (size_t i = 0; i < kValid; ++i) {
    util::StatusOr<Client::Reply> reply = good.WaitReply(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();
    const auto it = std::find(ids.begin(), ids.end(), reply->request_id);
    ASSERT_NE(it, ids.end());
    const size_t index = static_cast<size_t>(it - ids.begin());
    EXPECT_EQ(reply->cost, expected->costs[index]) << "request " << index;
  }
  for (int i = 0; i < 2; ++i) {
    util::StatusOr<Client::Reply> reply = bad.WaitReply(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status.code(), reply->request_id == *unknown
                                        ? util::StatusCode::kNotFound
                                        : util::StatusCode::kOutOfRange)
        << reply->status.ToString();
  }
  EXPECT_TRUE(bad.Ping().ok()) << "a refused frame must not close the peer";

  const ServerStats stats = harness.server().Stats();
  EXPECT_EQ(stats.batches_submitted, 1u) << "the frames were not coalesced";
  EXPECT_EQ(stats.admitted_events, kValid + 2);
  EXPECT_EQ(stats.rejected_events, 2u);
  harness.Shutdown();
  EXPECT_EQ(service.TotalRequests(), static_cast<int64_t>(kValid));
  EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
  EXPECT_EQ(service.SchemeCrc(), reference.SchemeCrc());
}

// The acceptance bar of the tentpole: traffic served over TCP leaves the
// engine bit-identical to the same traffic served in process. Two
// connections with disjoint object sets pipeline concurrently — per-object
// event order is then exactly per-connection send order, so the
// interleaving the server happens to pick cannot perturb the fingerprint.
TEST(NetServerTest, WireTrafficMatchesInProcessFingerprint) {
  constexpr int64_t kObjectsPerConn = 8;
  constexpr size_t kEventsPerConn = 600;
  const std::vector<workload::MultiObjectEvent> conn1 =
      ConnectionTraffic(0, kObjectsPerConn, kEventsPerConn, 11);
  const std::vector<workload::MultiObjectEvent> conn2 =
      ConnectionTraffic(kObjectsPerConn, kObjectsPerConn, kEventsPerConn, 22);

  // In-process reference: one service, both sequences (order across
  // connections is irrelevant — the objects are disjoint).
  ObjectService reference = MakeService();
  for (int64_t id = 0; id < 2 * kObjectsPerConn; ++id) {
    ASSERT_TRUE(reference.AddObject(id, TestConfig()).ok());
  }
  for (const auto* events : {&conn1, &conn2}) {
    core::BatchResult result;
    core::BatchTicket ticket;
    ASSERT_TRUE(reference
                    .SubmitBatch(std::span<const workload::MultiObjectEvent>(
                                     *events),
                                 &result, &ticket)
                    .ok());
    ASSERT_TRUE(reference.WaitBatch(&ticket).ok());
  }

  // Networked run: the same traffic through two pipelined connections.
  ObjectService service = MakeService();
  ServerOptions options;
  options.batch_max_delay_us = 100;
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());

  Client admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", harness.port()).ok());
  for (int64_t id = 0; id < 2 * kObjectsPerConn; ++id) {
    ASSERT_TRUE(admin.Register(id, kSchemeMask, 1).ok());
  }

  auto drive = [&](const std::vector<workload::MultiObjectEvent>& events) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
    constexpr size_t kWindow = 64;
    size_t completed = 0;
    for (const workload::MultiObjectEvent& event : events) {
      util::StatusOr<uint64_t> id = client.SendServe(
          event.request.is_write(), event.object,
          static_cast<uint32_t>(event.request.processor));
      ASSERT_TRUE(id.ok());
      while (client.outstanding() >= kWindow) {
        util::StatusOr<Client::Reply> reply = client.WaitReply(5000);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();
        ++completed;
      }
    }
    while (client.outstanding() > 0) {
      util::StatusOr<Client::Reply> reply = client.WaitReply(5000);
      ASSERT_TRUE(reply.ok());
      ASSERT_TRUE(reply->status.ok());
      ++completed;
    }
    EXPECT_EQ(completed, events.size());
  };
  std::thread t1(drive, std::cref(conn1));
  std::thread t2(drive, std::cref(conn2));
  t1.join();
  t2.join();
  harness.Shutdown();
  ASSERT_TRUE(harness.run_status().ok());

  EXPECT_EQ(service.TotalRequests(), reference.TotalRequests());
  EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
  EXPECT_EQ(service.SchemeCrc(), reference.SchemeCrc());
}

// The same bar with engine batches on the shard executor, in two phases
// over one service. Every wire batch carries kInlineBatchEvents items and
// is never split across engine batches, so at 4 threads every engine
// batch is served by the executor. Phase one cuts one engine batch per
// wire batch: the loop retires them through the completion fd, with up to
// two in flight. In phase two the window never closes on its own, so the
// drain submits the queued batch to the executor and must answer it.
TEST(NetServerTest, ExecutorBatchesMatchInProcessAndDrainAnswersAll) {
  constexpr size_t kItems = ObjectService::kInlineBatchEvents;
  constexpr int64_t kObjectsPerConn = 8;
  constexpr size_t kBatchesPerConn = 8;
  constexpr size_t kWindow = 2;  // wire batches outstanding per connection
  constexpr uint32_t kNeverStaleUs = 30'000'000;
  util::ScopedThreads scope(4);

  const std::vector<workload::MultiObjectEvent> traffic[2] = {
      ConnectionTraffic(0, kObjectsPerConn, kBatchesPerConn * kItems, 33),
      ConnectionTraffic(kObjectsPerConn, kObjectsPerConn,
                        kBatchesPerConn * kItems, 44)};

  // Serial in-process reference: per-event costs depend only on the
  // object's own history, and the two connections' objects are disjoint.
  std::vector<double> reference_costs[2];
  ObjectService reference = MakeService();
  {
    util::ScopedThreads serial(1);
    for (int64_t id = 0; id < 2 * kObjectsPerConn; ++id) {
      ASSERT_TRUE(reference.AddObject(id, TestConfig()).ok());
    }
    for (int conn = 0; conn < 2; ++conn) {
      util::StatusOr<core::BatchResult> result = reference.ServeBatch(
          std::span<const workload::MultiObjectEvent>(traffic[conn]));
      ASSERT_TRUE(result.ok());
      reference_costs[conn] = result->costs;
    }
  }

  ObjectService service = MakeService();
  ASSERT_GE(service.CompletionFd(), 0) << "the executor path is off";
  for (int64_t id = 0; id < 2 * kObjectsPerConn; ++id) {
    ASSERT_TRUE(service.AddObject(id, TestConfig()).ok());
  }
  auto wire_batch = [&](int conn, size_t batch) {
    BatchRequest request;
    for (size_t i = 0; i < kItems; ++i) {
      const workload::MultiObjectEvent& event =
          traffic[conn][batch * kItems + i];
      request.items.push_back(
          {event.object, static_cast<uint32_t>(event.request.processor),
           static_cast<uint8_t>(event.request.is_write() ? 1 : 0)});
    }
    return request;
  };
  // The current client's request ids, in send order, for the connection's
  // wire batches from `base` on (ids restart with each client).
  std::vector<uint64_t> ids[2];
  size_t base[2] = {0, 0};
  size_t answered[2] = {0, 0};
  auto expect_reply = [&](int conn, const Client::Reply& reply) {
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    const auto it =
        std::find(ids[conn].begin(), ids[conn].end(), reply.request_id);
    ASSERT_NE(it, ids[conn].end()) << "reply to unknown id";
    const size_t first =
        (base[conn] + static_cast<size_t>(it - ids[conn].begin())) * kItems;
    ASSERT_EQ(reply.costs.size(), kItems);
    for (size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(reply.costs[i], reference_costs[conn][first + i])
          << "connection " << conn << " event " << first + i;
    }
    ++answered[conn];
  };

  // Phase one: a window of exactly one wire batch that never goes stale.
  // Connection 0 keeps its last batch for phase two.
  {
    ServerOptions options;
    options.batch_max_events = kItems;
    options.max_batch_items = kItems;
    options.batch_max_delay_us = kNeverStaleUs;
    ServerHarness harness(&service, options);
    ASSERT_TRUE(harness.start_status().ok());
    auto drive = [&](int conn) {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
      const size_t batches = conn == 0 ? kBatchesPerConn - 1 : kBatchesPerConn;
      for (size_t batch = 0; batch < batches; ++batch) {
        while (client.outstanding() >= kWindow) {
          util::StatusOr<Client::Reply> reply = client.WaitReply(10000);
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          expect_reply(conn, *reply);
        }
        util::StatusOr<uint64_t> id = client.SendBatch(wire_batch(conn, batch));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids[conn].push_back(*id);
      }
      while (client.outstanding() > 0) {
        util::StatusOr<Client::Reply> reply = client.WaitReply(10000);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        expect_reply(conn, *reply);
      }
    };
    std::thread t1(drive, 0);
    std::thread t2(drive, 1);
    t1.join();
    t2.join();
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    EXPECT_EQ(harness.server().Stats().batches_submitted,
              2 * kBatchesPerConn - 1);
    harness.Shutdown();
    ASSERT_TRUE(harness.run_status().ok());
  }

  // Phase two: connection 0's last wire batch waits in a window that
  // neither fills nor goes stale until the drain submits it. (An open
  // window also stops the loop reading sockets, so one batch is all the
  // drain can be sure to find.)
  ServerOptions options;
  options.batch_max_delay_us = kNeverStaleUs;
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  util::StatusOr<uint64_t> id =
      client.SendBatch(wire_batch(0, kBatchesPerConn - 1));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ids[0] = {*id};
  base[0] = kBatchesPerConn - 1;
  // Drain stops reading sockets: wait until the batch is admitted.
  const auto admit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().Stats().admitted_events < kItems &&
         std::chrono::steady_clock::now() < admit_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.server().Stats().admitted_events, kItems);
  EXPECT_EQ(harness.server().Stats().batches_submitted, 0u);
  harness.Shutdown();
  ASSERT_TRUE(harness.run_status().ok());
  EXPECT_EQ(harness.server().Stats().batches_submitted, 1u);
  util::StatusOr<Client::Reply> reply = client.WaitReply(2000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  expect_reply(0, *reply);
  for (int conn = 0; conn < 2; ++conn) {
    EXPECT_EQ(answered[conn], kBatchesPerConn) << "connection " << conn;
  }

  EXPECT_EQ(service.TotalRequests(), reference.TotalRequests());
  EXPECT_EQ(service.TotalBreakdown(), reference.TotalBreakdown());
  EXPECT_EQ(service.SchemeCrc(), reference.SchemeCrc());
}

// Replies are coalesced: a window's worth of pipelined reads on one
// connection is answered by about one send per engine batch, not one per
// reply — and every request id still gets exactly its own, correct reply.
TEST(NetServerTest, RepliesCoalescePerConnection) {
  constexpr int kReads = 256;
  constexpr int64_t kObjects = 8;
  auto read_of = [](int i) {
    return std::pair<int64_t, uint32_t>(
        i % kObjects, static_cast<uint32_t>((i * 5) % kProcessors));
  };

  // In-process reference for the per-request costs (one connection, so the
  // served order is the send order).
  ObjectService reference = MakeService();
  std::vector<workload::MultiObjectEvent> events;
  for (int i = 0; i < kReads; ++i) {
    const auto [object, processor] = read_of(i);
    events.push_back({object, model::Request::Read(
                                  static_cast<model::ProcessorId>(processor))});
  }
  for (int64_t id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(reference.AddObject(id, TestConfig()).ok());
  }
  core::BatchResult expected;
  ASSERT_TRUE(reference
                  .ServeBatchInto(
                      std::span<const workload::MultiObjectEvent>(events),
                      &expected)
                  .ok());

  ObjectService service = MakeService();
  ServerOptions options;
  options.batch_max_delay_us = 20000;  // the whole burst lands in one window
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  for (int64_t id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(client.Register(id, kSchemeMask, 1).ok());
  }
  const ServerStats before = harness.server().Stats();

  std::vector<uint64_t> ids;
  for (int i = 0; i < kReads; ++i) {
    const auto [object, processor] = read_of(i);
    util::StatusOr<uint64_t> id = client.SendServe(false, object, processor);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::vector<int> replies(kReads, 0);
  for (int i = 0; i < kReads; ++i) {
    util::StatusOr<Client::Reply> reply = client.WaitReply(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();
    const auto it = std::find(ids.begin(), ids.end(), reply->request_id);
    ASSERT_NE(it, ids.end()) << "reply to unknown id " << reply->request_id;
    const size_t index = static_cast<size_t>(it - ids.begin());
    ++replies[index];
    EXPECT_EQ(reply->cost, expected.costs[index]) << "request " << index;
  }
  for (int i = 0; i < kReads; ++i) {
    EXPECT_EQ(replies[i], 1) << "request " << i;
  }

  const ServerStats after = harness.server().Stats();
  const uint64_t batches = after.batches_submitted - before.batches_submitted;
  const uint64_t sends = after.reply_sends - before.reply_sends;
  EXPECT_GE(batches, 1u);
  EXPECT_LE(sends, 2 * batches) << sends << " sends for " << batches
                                << " batches of " << kReads << " replies";
  harness.Shutdown();
  EXPECT_TRUE(harness.run_status().ok());
}

TEST(NetServerTest, OverloadShedsWithKOverloadedNeverQueues) {
  ObjectService service = MakeService();
  ServerOptions options;
  // A tiny admission budget and a long batching window: everything past
  // the budget must shed immediately instead of queueing behind it.
  options.max_batch_items = 4;
  options.max_inflight_per_connection = 8;
  options.max_inflight_global = 8;
  // A window that never fills (4096 > the budget) and a delay far past the
  // send burst: nothing is served while the burst lands, so admission
  // counts are exact, not racy.
  options.batch_max_events = 4096;
  options.batch_max_delay_us = 100000;  // 100ms
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  ASSERT_TRUE(client.Register(1, kSchemeMask, 1).ok());

  constexpr int kSent = 64;
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE(client.SendServe(false, 1, 0).ok());
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kSent; ++i) {
    util::StatusOr<Client::Reply> reply = client.WaitReply(10000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply->status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(reply->status.code(), util::StatusCode::kOverloaded)
          << reply->status.ToString();
      ASSERT_TRUE(util::IsTransientRejection(reply->status));
      ++overloaded;
    }
  }
  harness.Shutdown();
  // Exactly the budget was admitted (all sends land well inside the 100ms
  // window, so no slot freed up in between); the rest shed.
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(overloaded, kSent - 8);
  const ServerStats stats = harness.server().Stats();
  EXPECT_EQ(stats.admitted_events, 8u);
  EXPECT_EQ(stats.shed_overloaded, static_cast<uint64_t>(kSent - 8));
  EXPECT_EQ(service.TotalRequests(), 8);
}

TEST(NetServerTest, DeadlineExpiresInQueueWithKTimeout) {
  ObjectService service = MakeService();
  ServerOptions options;
  options.batch_max_events = 4096;
  options.batch_max_delay_us = 300000;  // 300ms — far past the deadline
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  ASSERT_TRUE(client.Register(1, kSchemeMask, 1).ok());

  const auto start = std::chrono::steady_clock::now();
  util::StatusOr<double> result = client.Read(1, 0, /*deadline_ms=*/5);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status().code(), util::StatusCode::kTimeout)
      << result.status().ToString();
  // The reply must come from the deadline sweep, not the batch window.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            250);
  harness.Shutdown();
  EXPECT_EQ(harness.server().Stats().shed_timeout, 1u);
  EXPECT_EQ(service.TotalRequests(), 0);
}

TEST(NetServerTest, SlowClientIsEvictedAtWriteBufferCap) {
  ObjectService service = MakeService();
  ServerOptions options;
  options.max_frame_bytes = 4096;
  options.max_write_buffer_bytes = 8192;
  // Tiny kernel send buffer: replies back up into the userspace buffer
  // after a few KB instead of a few MB, so eviction triggers quickly even
  // under TSan's slowdown.
  options.socket_send_buffer_bytes = 4096;
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  // Tiny kernel receive buffer on the client too. Replies are flushed once
  // per connection per loop iteration, so they reach the client as a few
  // large segments; a default (~128 KB) receive buffer would hold the whole
  // burst below and nothing would ever back up into the server's buffer.
  const int receive_buffer_bytes = 4096;
  ASSERT_EQ(setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF,
                       &receive_buffer_bytes, sizeof(receive_buffer_bytes)),
            0);

  // A bounded burst, never read: ~84 KB of replies dwarf the 4 KB kernel
  // send and receive buffers plus the 8 KB cap, so the flush path must
  // evict us. The burst is bounded (not a race-until-evicted loop) because
  // queueing megabytes against a stalled peer drives loopback TCP into
  // retransmission backoff under sanitizer slowdowns, which reads as a
  // hang.
  for (int i = 0; i < 3000; ++i) {
    if (!client.SendServe(false, 1, 0).ok()) break;  // send path saw the RST
  }
  bool evicted = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!evicted && std::chrono::steady_clock::now() < give_up) {
    evicted = harness.server().Stats().connections_evicted > 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(evicted);

  // A well-behaved connection still serves.
  Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", harness.port()).ok());
  EXPECT_TRUE(healthy.Ping().ok());
}

TEST(NetServerTest, IdleConnectionsAreClosed) {
  ObjectService service = MakeService();
  ServerOptions options;
  options.idle_timeout_ms = 50;
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  ASSERT_TRUE(client.Ping().ok());
  // Go quiet past the timeout: the server hangs up.
  util::StatusOr<Client::Reply> reply = client.WaitReply(5000);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), util::StatusCode::kUnavailable);
  harness.Shutdown();
  EXPECT_GE(harness.server().Stats().connections_idle_closed, 1u);
}

TEST(NetServerTest, GracefulDrainAnswersEverythingAdmitted) {
  ObjectService service = MakeService();
  ServerOptions options;
  options.batch_max_delay_us = 50000;  // drain must not wait for the window
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  ASSERT_TRUE(client.Register(1, kSchemeMask, 1).ok());
  constexpr int kSent = 32;
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE(client.SendServe(i % 2 == 0, 1,
                                 static_cast<uint32_t>(i % kProcessors))
                    .ok());
  }
  // Wait for every request to be admitted (drain stops reading sockets, so
  // anything still in flight on the wire would be dropped — correctly).
  const auto admit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().Stats().admitted_events <
             static_cast<uint64_t>(kSent) &&
         std::chrono::steady_clock::now() < admit_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.server().Stats().admitted_events,
            static_cast<uint64_t>(kSent));
  harness.Shutdown();  // RequestDrain + join: flush-then-exit
  EXPECT_TRUE(harness.run_status().ok());

  int answered = 0;
  while (answered < kSent) {
    util::StatusOr<Client::Reply> reply = client.WaitReply(2000);
    if (!reply.ok()) break;  // EOF after the last flushed reply
    EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
    ++answered;
  }
  // Every admitted request was answered before the server exited.
  EXPECT_EQ(answered, kSent);
  EXPECT_EQ(service.TotalRequests(), kSent);
  // And new connections are refused after the drain.
  Client late;
  const util::Status connect_status =
      late.Connect("127.0.0.1", harness.port());
  EXPECT_TRUE(!connect_status.ok() || !late.Ping().ok());
}

// The disconnect-storm / malformed-input sweep. Under TSan this is the
// CI chaos gate: every profile against a live server with real traffic,
// zero crashes, zero hangs, liveness probe green after each storm.
TEST(NetServerTest, SurvivesEveryChaosProfile) {
  ObjectService service = MakeService();
  ServerOptions options;
  options.idle_timeout_ms = 2000;
  ServerHarness harness(&service, options);
  ASSERT_TRUE(harness.start_status().ok());

  Client admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", harness.port()).ok());
  constexpr int64_t kObjects = 4;
  for (int64_t id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(admin.Register(id, kSchemeMask, 1).ok());
  }

  ChaosOptions chaos;
  chaos.port = harness.port();
  chaos.iterations = 24;
  chaos.object_count = kObjects;
  chaos.num_processors = kProcessors;
  for (ChaosProfile profile : AllChaosProfiles()) {
    chaos.seed = 0x9E3779B97F4A7C15ull ^ static_cast<uint64_t>(profile);
    const ChaosReport report = RunChaos(profile, chaos);
    EXPECT_TRUE(report.server_alive_after)
        << "server down after " << ChaosProfileName(profile);
    EXPECT_GT(report.connections_established, 0)
        << ChaosProfileName(profile);
    if (profile == ChaosProfile::kByteDribble) {
      // Dribbled-but-valid frames must actually serve.
      EXPECT_GT(report.ok_replies_seen, 0);
    }
    if (profile == ChaosProfile::kCorruptFrame ||
        profile == ChaosProfile::kWrongVersion ||
        profile == ChaosProfile::kOversizedFrame) {
      // Strict parse-and-reject: the server said so before hanging up.
      EXPECT_GT(report.error_replies_seen, 0) << ChaosProfileName(profile);
    }
  }

  // The engine stayed coherent under the storm: well-formed traffic still
  // round-trips on a FRESH connection (the idle sweep correctly closed the
  // admin connection during the storm — that is the feature working).
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", harness.port()).ok());
  EXPECT_TRUE(probe.Ping().ok());
  util::StatusOr<double> cost = probe.Read(0, 0);
  EXPECT_TRUE(cost.ok()) << cost.status().ToString();
  harness.Shutdown();
  EXPECT_TRUE(harness.run_status().ok());
  EXPECT_GT(harness.server().Stats().protocol_errors, 0u);
}

TEST(NetServerTest, ServerOptionsValidate) {
  ServerOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_batch_items = options.batch_max_events + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.max_write_buffer_bytes = options.max_frame_bytes - 1;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.max_inflight_per_connection = options.max_batch_items - 1;
  EXPECT_FALSE(options.Validate().ok());
}

}  // namespace
}  // namespace objalloc::net
