// net::Server — the TCP serving front-end (DESIGN.md §15): an epoll event
// loop that coalesces requests from many connections into the engine's
// zero-alloc SubmitBatch/WaitBatch path, wrapped in a robustness envelope
// built for overload, slow clients, and malformed input.
//
// Threading: ONE event-loop thread (the caller of Run) owns every
// connection, every buffer, and the ObjectService — which keeps the
// service's single-caller contract intact; the engine's own shard workers
// are the parallelism. RequestDrain and Stats are the only cross-thread
// entry points (atomics + eventfd, and relaxed counter loads).
//
// Batching: parsed event-bearing requests queue in arrival order (FIFO
// across connections — per-connection pipelining composes into
// cross-connection batches). A batch is cut when it holds
// `batch_max_events` events or the oldest queued request has waited
// `batch_max_delay_us`, and handed to SubmitBatch through a
// core::BatchPipeline; while the shards serve it the loop keeps reading
// sockets and admits the next batch. The loop sleeps until
// an fd or a timer asks for work: socket readiness, the engine's
// completion eventfd (ObjectService::CompletionFd), the drain eventfd, or
// the earliest of the batching window, a queued deadline and the idle
// sweep, at microsecond precision (epoll_pwait2). While a window is open
// it sleeps on the control fds alone and reads the sockets once, when the
// window closes. Results return to each connection as replies keyed by
// request id — replies may be reordered relative to submission
// (shed/timeout replies overtake queued work), which is why ids exist.
// Replies only append to the connection's buffer; each connection with new
// bytes is flushed once, at the end of the loop iteration — one send per
// connection per wakeup, not per reply.
//
// The overload state machine (accept → shed → drain):
//
//   accept   Budgets hold: requests are parsed, queued, batched,
//            served. Caller errors (unknown object, bad processor,
//            malformed payload) are rejected individually with their
//            library status — the engine refuses each bad event on its
//            own, so one bad client cannot poison a coalesced batch.
//   shed     A budget is exceeded — per-connection in-flight, global
//            in-flight, shard-executor queue depth, WAL backlog bytes, or
//            (optionally) degraded durability. The request is refused as
//            soon as it is read (at the latest when the open batching
//            window closes) with kOverloaded (kUnavailable for the
//            degraded case), never silently dropped and never queued: the
//            queue stays bounded, so admitted-request latency stays
//            bounded — overload degrades goodput, not tail latency.
//            Requests whose deadline elapses while queued are replied
//            kTimeout and never reach the engine.
//   drain    RequestDrain (SIGTERM via net::DrainSignal, or a test):
//            stop accepting connections and reading sockets, serve
//            everything already queued, flush replies, WaitDurable
//            (SyncDurable when durability is attached), close, and Run
//            returns Ok — the process exits 0.
//
// Connection chaos handling: a frame that breaks the protocol (bad
// version, unknown type, oversized or undersized length, CRC mismatch)
// draws a best-effort kProtocolError reply and the connection is dropped —
// parse-and-reject, no resynchronization guessing. Slow clients are
// bounded by `max_write_buffer_bytes` of queued replies and evicted at the
// cap; idle connections are closed after `idle_timeout_ms`. Disconnects at
// any byte boundary are absorbed: requests already admitted still serve
// (their replies are discarded when the connection is gone).

#ifndef OBJALLOC_NET_SERVER_H_
#define OBJALLOC_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "objalloc/core/batch_pipeline.h"
#include "objalloc/core/object_service.h"
#include "objalloc/net/wire.h"
#include "objalloc/util/status.h"

struct epoll_event;

namespace objalloc::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
  int listen_backlog = 128;

  // Connection-level bounds.
  size_t max_connections = 256;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  size_t max_batch_items = 4096;          // items in one wire batch op
  size_t max_write_buffer_bytes = 4u << 20;  // slow-client eviction cap
  uint32_t idle_timeout_ms = 0;           // 0 = never
  // SO_SNDBUF for accepted sockets; 0 keeps the kernel default. A small
  // value makes a non-reading peer back up into the userspace write
  // buffer (and hit the eviction cap) quickly instead of hiding behind
  // megabytes of kernel buffering.
  int socket_send_buffer_bytes = 0;

  // Cross-connection batching window.
  size_t batch_max_events = 4096;
  uint32_t batch_max_delay_us = 200;

  // Admission budgets (events, not frames).
  size_t max_inflight_global = 16384;
  size_t max_inflight_per_connection = 4096;

  // Engine backpressure: shed while the shard-executor rings or the WAL
  // writer are this far behind.
  uint64_t shed_executor_queue_ops = 1u << 16;
  size_t shed_wal_backlog_bytes = 64u << 20;
  // Degraded durability (DurabilityState::kDegraded) sheds *writes* with
  // kUnavailable when set; reads always keep serving.
  bool shed_writes_when_degraded = false;

  // Applied to requests that carry deadline_ms == 0; 0 = no deadline.
  uint32_t default_deadline_ms = 0;

  // Drain on SIGTERM via net::DrainSignal (examples turn this on; tests
  // drive RequestDrain directly).
  bool drain_on_sigterm = false;

  util::Status Validate() const;
};

// Front-end counters (events unless noted). The loop thread is the only
// writer; Stats() reads each counter with a relaxed atomic load, so a
// snapshot is per-counter consistent, not across counters. A single-event
// frame the engine refuses has reached the engine: it counts in both
// admitted_events and rejected_events.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  // over max_connections
  uint64_t connections_evicted = 0;  // write buffer over the cap
  uint64_t connections_idle_closed = 0;
  uint64_t protocol_errors = 0;      // frames that broke framing (per conn)
  uint64_t admitted_events = 0;      // reached the engine
  uint64_t shed_overloaded = 0;      // kOverloaded / kUnavailable replies
  uint64_t shed_timeout = 0;         // kTimeout replies
  uint64_t rejected_events = 0;      // caller errors
  uint64_t batches_submitted = 0;    // engine batches
  uint64_t registrations = 0;
  uint64_t reply_sends = 0;          // send() calls flushing replies
};

class Server {
 public:
  // `service` must outlive the server; the server becomes its single
  // caller for the duration of Run.
  Server(core::ObjectService* service, const ServerOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens (and installs the SIGTERM drain handler when
  // configured). After Ok, port() returns the bound port.
  util::Status Start();

  uint16_t port() const { return port_; }

  // Runs the event loop until a drain completes. Returns Ok after a clean
  // drain; an error only for loop-level failures (epoll breakage), never
  // for per-connection chaos.
  util::Status Run();

  // Thread- and signal-safe: flips the drain latch and wakes the loop.
  void RequestDrain();

  ServerStats Stats() const;

 private:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    std::string in;   // unparsed request bytes
    std::string out;  // unflushed reply bytes
    size_t inflight_events = 0;
    TimePoint last_activity;
    bool close_after_flush = false;  // protocol error: flush reply, drop
    bool want_write = false;         // EPOLLOUT currently registered
    bool dirty = false;              // listed in dirty_ for this iteration
  };

  // One queued wire request: `events` many engine events, stored
  // contiguously in pending_events_ in the same order. A batch op is one
  // Pending with events > 1 — checked whole at admission, it enters an
  // engine batch whole.
  struct Pending {
    uint64_t connection = 0;
    uint64_t request_id = 0;
    MsgType type = MsgType::kRead;
    uint32_t events = 0;
    TimePoint deadline;  // TimePoint::max() = none
    // Deadline elapsed while queued: already replied kTimeout; the batch
    // builder discards its events instead of serving them.
    bool expired = false;
  };

  // An engine batch's pipeline tag: the requests it answers, in order —
  // each owns the next `events` results.
  using Pipeline = core::BatchPipeline<std::vector<Pending>>;

  util::Status RunLoop();
  // epoll_pwait2 until an fd is ready or the next timer is due.
  int WaitForEvents(epoll_event* events, int max_events);
  void AcceptReady();
  void HandleReadable(Connection* conn);
  void ParseFrames(Connection* conn);
  void HandleRequest(Connection* conn, const Frame& frame);
  void HandleRegister(Connection* conn, const Frame& frame);
  void HandleStats(Connection* conn, const Frame& frame);
  // Admission for event-bearing requests: budgets, backpressure, kBatch
  // validation, deadline stamping, enqueue. Replies on rejection.
  void AdmitServe(Connection* conn, const Frame& frame);
  void AdmitBatchOp(Connection* conn, const Frame& frame);
  // Queues one admitted request and its events.
  void Enqueue(Connection* conn, const Frame& frame, uint32_t deadline_ms,
               std::span<const workload::MultiObjectEvent> events);
  // Shed/reject/reply helpers. Replies append to conn->out and mark the
  // connection dirty; FlushDirty sends them at the end of the iteration.
  void ReplyStatus(Connection* conn, MsgType request_type, uint64_t request_id,
                   const util::Status& status);
  void ReplyOk(Connection* conn, MsgType request_type, uint64_t request_id,
               std::string_view payload);
  void SendProtocolError(Connection* conn, uint64_t request_id,
                         const std::string& reason);
  // Returns Ok when `events` more events fit every budget, else the
  // taxonomy-correct rejection (kOverloaded / kUnavailable).
  util::Status CheckAdmission(const Connection& conn, size_t events,
                              bool has_write);
  // Expires queued requests whose deadline passed (kTimeout replies).
  void SweepDeadlines(TimePoint now);
  // Cuts and submits an engine batch from the pending queue when the
  // window or drain policy says so; retires the batches that landed (with
  // `force`, everything: the queue is served to completion).
  void MaybeSubmit(TimePoint now, bool force);
  void SubmitPending(TimePoint now);
  // The pipeline's retire callback: replies for one finished engine batch.
  void FinalizeBatch(Pipeline::Slot& slot, const util::Status& status);
  // Serves every in-flight engine batch to completion and replies.
  void DrainPipeline();
  void MarkDirty(Connection* conn);
  // One FlushConnection per dirty connection; the only reply flush path.
  void FlushDirty();
  void FlushConnection(Connection* conn);
  void UpdateWriteInterest(Connection* conn);
  void CloseConnection(uint64_t id);
  void SweepIdle(TimePoint now);
  void DrainAndExit();
  void Count(uint64_t ServerStats::*counter, uint64_t n = 1);

  core::ObjectService* service_;
  ServerOptions options_;
  int epoll_fd_ = -1;          // every fd
  int control_epoll_fd_ = -1;  // wake, drain signal, completion only
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: RequestDrain wakes the loop
  int completion_fd_ = -1;  // the service's; -1 on the serial engine
  uint16_t port_ = 0;
  bool started_ = false;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;

  uint64_t next_connection_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  std::vector<uint64_t> dirty_;  // connections with replies to flush

  // Arrival-ordered request queue; events in pending_events_ parallel the
  // Pending records (request k's events are the next Pending::events after
  // request k-1's). Both bounded by max_inflight_global.
  std::deque<Pending> pending_;
  std::deque<workload::MultiObjectEvent> pending_events_;
  size_t global_inflight_ = 0;     // queued + submitted, events
  TimePoint oldest_pending_;       // arrival of pending_.front()
  TimePoint min_deadline_ = TimePoint::max();

  Pipeline pipeline_;
  // The next engine batch, built from the queue: SubmitBatch copies the
  // events, the requests swap into the pipeline as its tag.
  std::vector<workload::MultiObjectEvent> batch_events_;
  std::vector<Pending> batch_requests_;

  std::string encode_scratch_;  // reply payload build buffer
  // A kBatch frame's parsed items and their engine events, which
  // admission checks and Enqueue queues; recycled across frames.
  BatchRequest batch_request_;
  std::vector<workload::MultiObjectEvent> frame_events_;

  // Written by the loop thread only (Count); mutable so the const Stats()
  // can take atomic_refs for its relaxed loads.
  mutable ServerStats stats_;
  core::ServiceLoad last_load_;  // sampled once per loop iteration
};

}  // namespace objalloc::net

#endif  // OBJALLOC_NET_SERVER_H_
