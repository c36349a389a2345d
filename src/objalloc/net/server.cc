#include "objalloc/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <functional>

#include "objalloc/net/signal_drain.h"
#include "objalloc/util/logging.h"

namespace objalloc::net {

namespace {

// epoll user-data tags for the non-connection fds; connection ids start
// well above them.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kSignalTag = 2;
constexpr uint64_t kCompletionTag = 3;
constexpr uint64_t kFirstConnectionId = 8;

// Every ServerStats counter, for the snapshot in Server::Stats.
constexpr uint64_t ServerStats::*kCounters[] = {
    &ServerStats::connections_accepted, &ServerStats::connections_refused,
    &ServerStats::connections_evicted,  &ServerStats::connections_idle_closed,
    &ServerStats::protocol_errors,      &ServerStats::admitted_events,
    &ServerStats::shed_overloaded,      &ServerStats::shed_timeout,
    &ServerStats::rejected_events,      &ServerStats::batches_submitted,
    &ServerStats::registrations,        &ServerStats::reply_sends,
};
static_assert(sizeof(ServerStats) == sizeof(kCounters) / sizeof(kCounters[0]) *
                                        sizeof(uint64_t),
              "every ServerStats field is a counter listed in kCounters");

util::Status Errno(const char* what) {
  return util::Status::Internal(std::string(what) + ": " +
                                std::strerror(errno));
}

// The engine event a wire item asks for. A processor of 2^31 or more
// becomes negative, which the engine refuses as out of range.
workload::MultiObjectEvent ToEvent(const BatchItem& item) {
  const auto processor = static_cast<model::ProcessorId>(item.processor);
  return {item.object, item.is_write != 0 ? model::Request::Write(processor)
                                          : model::Request::Read(processor)};
}

// The reply to a request the engine refused with `outcome`.
util::Status RefusalStatus(core::EventOutcome outcome) {
  return outcome == core::EventOutcome::kUnknownObject
             ? util::Status::NotFound("object not registered")
             : util::Status::OutOfRange("processor out of range");
}

// Empties a non-blocking eventfd's counter.
void DrainEventFd(int fd) {
  uint64_t counter = 0;
  while (read(fd, &counter, sizeof(counter)) > 0) {
  }
}

}  // namespace

util::Status ServerOptions::Validate() const {
  if (max_frame_bytes < kFrameOverheadBytes + 64) {
    return util::Status::InvalidArgument("max_frame_bytes too small to frame");
  }
  if (batch_max_events == 0) {
    return util::Status::InvalidArgument("batch_max_events must be positive");
  }
  if (max_batch_items == 0 || max_batch_items > batch_max_events) {
    return util::Status::InvalidArgument(
        "max_batch_items must be in [1, batch_max_events] — a wire batch "
        "enters one engine batch whole");
  }
  if (max_inflight_per_connection == 0 || max_inflight_global == 0) {
    return util::Status::InvalidArgument("in-flight budgets must be positive");
  }
  if (max_inflight_per_connection < max_batch_items) {
    return util::Status::InvalidArgument(
        "per-connection budget below max_batch_items would shed every "
        "full-size batch");
  }
  if (max_connections == 0) {
    return util::Status::InvalidArgument("max_connections must be positive");
  }
  if (max_write_buffer_bytes < max_frame_bytes) {
    return util::Status::InvalidArgument(
        "max_write_buffer_bytes below max_frame_bytes cannot hold one reply");
  }
  return util::Status::Ok();
}

Server::Server(core::ObjectService* service, const ServerOptions& options)
    : service_(service), options_(options), pipeline_(service) {
  OBJALLOC_CHECK(service != nullptr) << "Server requires a service";
}

Server::~Server() {
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (control_epoll_fd_ >= 0) close(control_epoll_fd_);
}

util::Status Server::Start() {
  if (started_) return util::Status::FailedPrecondition("already started");
  util::Status valid = options_.Validate();
  if (!valid.ok()) return valid;

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("bad bind_address: " +
                                         options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (listen(listen_fd_, options_.listen_backlog) != 0) return Errno("listen");

  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) != 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  control_epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (control_epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");
  // Pipelined engine batches announce completion on this fd; the serial
  // engine (-1) completes every batch inside SubmitBatch.
  completion_fd_ = service_->CompletionFd();

  // Every fd goes into epoll_fd_; the control fds (drain, completions)
  // also into control_epoll_fd_, which is all the loop waits on while a
  // batching window is open.
  auto watch = [this](int fd, uint64_t tag, bool control) {
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
    return !control ||
           epoll_ctl(control_epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  };
  if (!watch(listen_fd_, kListenTag, false)) return Errno("epoll_ctl(listen)");
  if (!watch(wake_fd_, kWakeTag, true)) return Errno("epoll_ctl(wake)");
  if (completion_fd_ >= 0 && !watch(completion_fd_, kCompletionTag, true)) {
    return Errno("epoll_ctl(completion)");
  }
  if (options_.drain_on_sigterm) {
    DrainSignal::Install();
    if (!watch(DrainSignal::fd(), kSignalTag, true)) {
      return Errno("epoll_ctl(drain signal)");
    }
  }

  batch_events_.reserve(options_.batch_max_events);
  next_connection_id_ = kFirstConnectionId;  // ids above the fd tags
  started_ = true;
  return util::Status::Ok();
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

ServerStats Server::Stats() const {
  ServerStats snapshot;
  for (uint64_t ServerStats::*counter : kCounters) {
    snapshot.*counter = std::atomic_ref<uint64_t>(stats_.*counter)
                            .load(std::memory_order_relaxed);
  }
  return snapshot;
}

void Server::Count(uint64_t ServerStats::*counter, uint64_t n) {
  // The loop thread is the only writer, so load + store is an increment;
  // relaxed atomics only keep Stats() readers from tearing a value.
  std::atomic_ref<uint64_t> value(stats_.*counter);
  value.store(value.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
}

util::Status Server::Run() {
  if (!started_) return util::Status::FailedPrecondition("Start first");
  util::Status status = RunLoop();
  if (!status.ok()) return status;
  DrainAndExit();
  return util::Status::Ok();
}

util::Status Server::RunLoop() {
  epoll_event events[64];
  while (true) {
    const bool drain =
        drain_requested_.load(std::memory_order_acquire) ||
        (options_.drain_on_sigterm && DrainSignal::Requested());
    if (drain) return util::Status::Ok();

    const int n = WaitForEvents(events, std::size(events));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("epoll_pwait2");
    }

    // One load sample per iteration drives every admission decision until
    // the next wakeup — O(1) relaxed reads, no pipeline fence.
    last_load_ = service_->Load();
    const TimePoint now = Clock::now();

    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptReady();
        continue;
      }
      if (tag == kWakeTag) {
        DrainEventFd(wake_fd_);
        continue;
      }
      if (tag == kCompletionTag) {
        DrainEventFd(completion_fd_);  // MaybeSubmit finalizes what landed
        continue;
      }
      if (tag == kSignalTag) continue;  // drain flag checked at loop top
      auto it = connections_.find(tag);
      if (it == connections_.end()) continue;  // closed earlier this wakeup
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(tag);
        continue;
      }
      if (events[i].events & EPOLLOUT) {  // socket drained: flush below
        conn->last_activity = now;
        MarkDirty(conn);
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
    }

    SweepDeadlines(now);
    MaybeSubmit(now, /*force=*/false);
    SweepIdle(now);
    FlushDirty();
  }
}

int Server::WaitForEvents(epoll_event* events, int max_events) {
  // Socket readiness, accepts, drain requests and engine completions all
  // arrive as fds; only the batching window, queued deadlines and the idle
  // sweep need a timer. The window is armed only while a slot is free to
  // take the batch — with both in flight, a completion wakes the loop.
  const TimePoint now = Clock::now();
  const bool window_open = !pending_.empty() && !pipeline_.full();
  TimePoint wake = min_deadline_;
  if (window_open) {
    wake = std::min(wake, oldest_pending_ + std::chrono::microseconds(
                                                options_.batch_max_delay_us));
  }
  if (options_.idle_timeout_ms > 0 && !connections_.empty()) {
    wake = std::min(wake, now + std::chrono::milliseconds(std::max<uint32_t>(
                                    options_.idle_timeout_ms / 4, 10)));
  }
  if (wake == TimePoint::max()) {
    return epoll_pwait2(epoll_fd_, events, max_events, nullptr, nullptr);
  }
  const int64_t ns = std::max<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count(),
      0);
  timespec timeout = {static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
  if (window_open) {
    // Frames arriving inside an open window join the same batch whether
    // they are read now or when it closes, so sleep through it on the
    // control fds alone and read every socket once, at the deadline —
    // not once per arriving frame.
    const int n = epoll_pwait2(control_epoll_fd_, events, max_events,
                               &timeout, nullptr);
    if (n != 0) return n;
    timeout = {0, 0};
  }
  return epoll_pwait2(epoll_fd_, events, max_events, &timeout, nullptr);
}

void Server::AcceptReady() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays registered
    }
    if (connections_.size() >= options_.max_connections || draining_) {
      close(fd);
      Count(&ServerStats::connections_refused);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.socket_send_buffer_bytes > 0) {
      const int bytes = options_.socket_send_buffer_bytes;
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    }

    auto conn = std::make_unique<Connection>();
    conn->id = next_connection_id_++;
    conn->fd = fd;
    conn->last_activity = Clock::now();
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    connections_.emplace(conn->id, std::move(conn));
    Count(&ServerStats::connections_accepted);
  }
}

void Server::HandleReadable(Connection* conn) {
  // ONE bounded read per wakeup, then parse. Draining a blasting client
  // until EAGAIN would livelock the loop (reading forever, never replying,
  // never visiting other connections); level-triggered epoll re-delivers
  // whatever is still queued on the next iteration.
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn->in.append(buffer, static_cast<size_t>(n));
      conn->last_activity = Clock::now();
      break;
    }
    if (n == 0) {  // peer closed — mid-frame disconnects land here too
      CloseConnection(conn->id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(conn->id);
    return;
  }
  ParseFrames(conn);
}

void Server::ParseFrames(Connection* conn) {
  // Replies only append to conn->out (flushed at the end of the loop
  // iteration), so no handler below can close the connection under us.
  size_t offset = 0;
  while (!conn->close_after_flush) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const DecodeResult result =
        DecodeFrame(std::string_view(conn->in).substr(offset),
                    options_.max_frame_bytes, &frame, &consumed, &error);
    if (result == DecodeResult::kNeedMore) break;
    if (result == DecodeResult::kError) {
      Count(&ServerStats::protocol_errors);
      SendProtocolError(conn, 0, error);
      break;
    }
    offset += consumed;
    HandleRequest(conn, frame);
  }
  if (offset > 0) conn->in.erase(0, offset);
  if (conn->close_after_flush) conn->in.clear();
}

void Server::HandleRequest(Connection* conn, const Frame& frame) {
  if (!IsRequestType(static_cast<uint8_t>(frame.type))) {
    // Framing-valid but a reply/error type from a client: protocol abuse.
    Count(&ServerStats::protocol_errors);
    SendProtocolError(conn, frame.request_id,
                      "reply message type sent as a request");
    return;
  }
  switch (frame.type) {
    case MsgType::kPing:
      ReplyOk(conn, frame.type, frame.request_id, {});
      return;
    case MsgType::kRegister:
      HandleRegister(conn, frame);
      return;
    case MsgType::kRead:
    case MsgType::kWrite:
      AdmitServe(conn, frame);
      return;
    case MsgType::kBatch:
      AdmitBatchOp(conn, frame);
      return;
    case MsgType::kStats:
      HandleStats(conn, frame);
      return;
    default:
      return;  // unreachable: IsRequestType filtered
  }
}

void Server::HandleRegister(Connection* conn, const Frame& frame) {
  RegisterRequest request;
  util::Status status = ParseRegister(frame.payload, &request);
  if (status.ok() &&
      request.algorithm > static_cast<uint8_t>(core::AlgorithmKind::kDynamic)) {
    status = util::Status::InvalidArgument(
        "algorithm kind not served (static or dynamic only)");
  }
  if (status.ok() && draining_) {
    status = util::Status::Unavailable("server draining");
  }
  if (status.ok()) {
    core::ObjectConfig config;
    config.initial_scheme = model::ProcessorSet(request.scheme_mask);
    config.algorithm = static_cast<core::AlgorithmKind>(request.algorithm);
    status = service_->AddObject(request.object, config);
  }
  if (status.ok()) {
    Count(&ServerStats::registrations);
    ReplyOk(conn, frame.type, frame.request_id, {});
  } else {
    ReplyStatus(conn, frame.type, frame.request_id, status);
  }
}

void Server::HandleStats(Connection* conn, const Frame& frame) {
  // Engine aggregates need a quiet pipeline; finish what is in flight
  // first (stats is a rare, diagnostic op — the stall is the price).
  DrainPipeline();
  WireStats wire;
  wire.objects = service_->object_count();
  wire.total_requests = service_->TotalRequests();
  const model::CostBreakdown breakdown = service_->TotalBreakdown();
  wire.control_messages = breakdown.control_messages;
  wire.data_messages = breakdown.data_messages;
  wire.io_ops = breakdown.io_ops;
  wire.scheme_crc = service_->SchemeCrc();
  wire.durability_state = static_cast<uint8_t>(last_load_.durability);
  // The loop thread is the only writer: plain reads are current.
  wire.admitted_events = stats_.admitted_events;
  wire.shed_overloaded = stats_.shed_overloaded;
  wire.shed_timeout = stats_.shed_timeout;
  wire.rejected_events = stats_.rejected_events;
  wire.protocol_errors = stats_.protocol_errors;
  wire.connections_accepted = stats_.connections_accepted;
  wire.connections_evicted = stats_.connections_evicted;
  wire.connections_idle_closed = stats_.connections_idle_closed;
  wire.batches_submitted = stats_.batches_submitted;
  encode_scratch_.clear();
  EncodeStats(wire, &encode_scratch_);
  ReplyOk(conn, frame.type, frame.request_id, encode_scratch_);
}

util::Status Server::CheckAdmission(const Connection& conn, size_t events,
                                    bool has_write) {
  if (draining_) return util::Status::Unavailable("server draining");
  if (conn.inflight_events + events > options_.max_inflight_per_connection) {
    return util::Status::Overloaded("connection in-flight budget exceeded");
  }
  if (global_inflight_ + events > options_.max_inflight_global) {
    return util::Status::Overloaded("server in-flight budget exceeded");
  }
  if (last_load_.executor_queued_ops > options_.shed_executor_queue_ops) {
    return util::Status::Overloaded("shard executor backlogged");
  }
  if (last_load_.wal_backlog_bytes > options_.shed_wal_backlog_bytes) {
    return util::Status::Overloaded("WAL backlogged");
  }
  if (has_write && options_.shed_writes_when_degraded &&
      last_load_.durability == core::DurabilityState::kDegraded) {
    return util::Status::Unavailable("durability degraded; writes shed");
  }
  return util::Status::Ok();
}

void Server::AdmitServe(Connection* conn, const Frame& frame) {
  ServeRequest request;
  util::Status status = ParseServe(frame.payload, &request);
  if (!status.ok()) {
    Count(&ServerStats::rejected_events);
    ReplyStatus(conn, frame.type, frame.request_id, status);
    return;
  }
  const bool is_write = frame.type == MsgType::kWrite;
  status = CheckAdmission(*conn, 1, is_write);
  if (!status.ok()) {
    Count(&ServerStats::shed_overloaded);
    ReplyStatus(conn, frame.type, frame.request_id, status);
    return;
  }
  const workload::MultiObjectEvent event =
      ToEvent({request.object, request.processor, is_write});
  Enqueue(conn, frame, request.deadline_ms, std::span(&event, 1));
}

void Server::AdmitBatchOp(Connection* conn, const Frame& frame) {
  // A frame that fails to parse counts as one rejected event: no items
  // may carry over from the previous frame.
  batch_request_.items.clear();
  util::Status status =
      ParseBatch(frame.payload, options_.max_batch_items, &batch_request_);
  const std::vector<BatchItem>& items = batch_request_.items;
  if (status.ok() && items.empty()) {
    status = util::Status::InvalidArgument("empty batch");
  }
  bool has_write = false;
  if (status.ok()) {
    // All-or-nothing (wire.h): the engine's own refusal rule, over the
    // whole frame, before anything is queued.
    frame_events_.clear();
    for (const BatchItem& item : items) {
      frame_events_.push_back(ToEvent(item));
      has_write |= item.is_write != 0;
    }
    const core::EventOutcome refused =
        service_->FirstRefusal(frame_events_).outcome;
    if (refused != core::EventOutcome::kServed) status = RefusalStatus(refused);
  }
  if (!status.ok()) {
    Count(&ServerStats::rejected_events, items.empty() ? 1 : items.size());
    ReplyStatus(conn, frame.type, frame.request_id, status);
    return;
  }
  status = CheckAdmission(*conn, items.size(), has_write);
  if (!status.ok()) {
    Count(&ServerStats::shed_overloaded, items.size());
    ReplyStatus(conn, frame.type, frame.request_id, status);
    return;
  }
  Enqueue(conn, frame, batch_request_.deadline_ms, frame_events_);
}

void Server::Enqueue(Connection* conn, const Frame& frame,
                     uint32_t deadline_ms,
                     std::span<const workload::MultiObjectEvent> events) {
  const TimePoint now = Clock::now();
  if (deadline_ms == 0) deadline_ms = options_.default_deadline_ms;
  Pending pending;
  pending.connection = conn->id;
  pending.request_id = frame.request_id;
  pending.type = frame.type;
  pending.events = static_cast<uint32_t>(events.size());
  pending.deadline = deadline_ms == 0
                         ? TimePoint::max()
                         : now + std::chrono::milliseconds(deadline_ms);
  if (pending_.empty()) oldest_pending_ = now;
  if (pending.deadline < min_deadline_) min_deadline_ = pending.deadline;
  pending_.push_back(pending);
  pending_events_.insert(pending_events_.end(), events.begin(), events.end());
  conn->inflight_events += events.size();
  global_inflight_ += events.size();
  Count(&ServerStats::admitted_events, events.size());
}

void Server::SweepDeadlines(TimePoint now) {
  if (min_deadline_ > now) return;
  TimePoint next_min = TimePoint::max();
  for (Pending& pending : pending_) {
    if (pending.expired) continue;
    if (pending.deadline <= now) {
      pending.expired = true;
      global_inflight_ -= pending.events;
      auto it = connections_.find(pending.connection);
      if (it != connections_.end()) {
        Connection* conn = it->second.get();
        conn->inflight_events -= pending.events;
        ReplyStatus(conn, pending.type, pending.request_id,
                    util::Status::Timeout("deadline elapsed in queue"));
      }
      Count(&ServerStats::shed_timeout, pending.events);
    } else if (pending.deadline < next_min) {
      next_min = pending.deadline;
    }
  }
  min_deadline_ = next_min;
}

void Server::MaybeSubmit(TimePoint now, bool force) {
  // Retire, oldest first, the batches that already landed (the completion
  // fd woke us for them), so replies flow and slots free up.
  (void)pipeline_.Reap(std::bind_front(&Server::FinalizeBatch, this));

  while (!pending_.empty()) {
    const bool window_full = pending_events_.size() >= options_.batch_max_events;
    const bool window_stale =
        now - oldest_pending_ >=
        std::chrono::microseconds(options_.batch_max_delay_us);
    if (!force && !window_full && !window_stale) return;
    // Both slots in flight: a completion wakes us (the drain path instead
    // lets Submit wait the oldest out).
    if (!force && pipeline_.full()) return;
    SubmitPending(now);
  }
  if (force) DrainPipeline();
}

void Server::SubmitPending(TimePoint now) {
  batch_events_.clear();
  batch_requests_.clear();
  while (!pending_.empty() &&
         batch_events_.size() < options_.batch_max_events) {
    Pending& front = pending_.front();
    if (!front.expired &&
        batch_events_.size() + front.events > options_.batch_max_events) {
      break;  // batch full; the request waits whole for the next batch
    }
    if (!front.expired) {
      batch_requests_.push_back(front);
      batch_events_.insert(batch_events_.end(), pending_events_.begin(),
                           pending_events_.begin() + front.events);
    }
    pending_events_.erase(pending_events_.begin(),
                          pending_events_.begin() + front.events);
    pending_.pop_front();
  }
  if (!pending_.empty()) oldest_pending_ = now;
  if (batch_events_.empty()) return;  // everything at the front had expired

  (void)pipeline_.Submit(batch_events_, batch_requests_,
                         std::bind_front(&Server::FinalizeBatch, this));
  Count(&ServerStats::batches_submitted);
  // Without a completion fd nothing would wake the loop for a pipelined
  // batch, so serve it to completion now.
  if (completion_fd_ < 0) DrainPipeline();
}

void Server::FinalizeBatch(Pipeline::Slot& slot, const util::Status& status) {
  // A failed batch (fault mode below threshold) replies its error to every
  // request — never leave a client hanging.
  size_t first = 0;
  for (const Pending& request : slot.tag) {
    const size_t begin = first;
    first += request.events;
    global_inflight_ -= request.events;
    // The engine refuses a bad single-event frame on its own; a kBatch
    // frame was checked whole at admission.
    const bool refused = status.ok() && request.type != MsgType::kBatch &&
                         slot.result.outcome[begin] >=
                             core::EventOutcome::kUnknownObject;
    if (refused) Count(&ServerStats::rejected_events);
    auto it = connections_.find(request.connection);
    if (it == connections_.end()) continue;  // peer gone; reply discarded
    Connection* conn = it->second.get();
    conn->inflight_events -= request.events;
    if (!status.ok()) {
      ReplyStatus(conn, request.type, request.request_id, status);
      continue;
    }
    if (refused) {
      ReplyStatus(conn, request.type, request.request_id,
                  RefusalStatus(slot.result.outcome[begin]));
      continue;
    }
    encode_scratch_.clear();
    if (request.type == MsgType::kBatch) {
      EncodeCosts(std::span<const double>(slot.result.costs)
                      .subspan(begin, request.events),
                  &encode_scratch_);
    } else {
      EncodeCost(slot.result.costs[begin], &encode_scratch_);
    }
    ReplyOk(conn, request.type, request.request_id, encode_scratch_);
  }
}

void Server::DrainPipeline() {
  (void)pipeline_.Drain(std::bind_front(&Server::FinalizeBatch, this));
}

void Server::ReplyStatus(Connection* conn, MsgType request_type,
                         uint64_t request_id, const util::Status& status) {
  const auto reply_type = static_cast<MsgType>(
      static_cast<uint8_t>(request_type) | kReplyBit);
  AppendFrame(reply_type, WireStatus(status.code()), request_id,
              status.message(), &conn->out);
  MarkDirty(conn);
}

void Server::ReplyOk(Connection* conn, MsgType request_type,
                     uint64_t request_id, std::string_view payload) {
  const auto reply_type = static_cast<MsgType>(
      static_cast<uint8_t>(request_type) | kReplyBit);
  AppendFrame(reply_type, 0, request_id, payload, &conn->out);
  MarkDirty(conn);
}

void Server::SendProtocolError(Connection* conn, uint64_t request_id,
                               const std::string& reason) {
  AppendFrame(MsgType::kProtocolError,
              WireStatus(util::StatusCode::kInvalidArgument), request_id,
              reason, &conn->out);
  conn->close_after_flush = true;
  MarkDirty(conn);
}

void Server::MarkDirty(Connection* conn) {
  if (conn->dirty) return;
  conn->dirty = true;
  dirty_.push_back(conn->id);
}

void Server::FlushDirty() {
  // Flushing may close a connection, so look each one up again by id.
  for (uint64_t id : dirty_) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    it->second->dirty = false;
    FlushConnection(it->second.get());
  }
  dirty_.clear();
}

void Server::FlushConnection(Connection* conn) {
  // Replies accumulate for a whole iteration, so the buffer peaks here,
  // before the send: that peak is what the cap bounds. A slow client's
  // unread replies may not hold the server's memory hostage — evict; the
  // socket close is the backpressure.
  if (conn->out.size() > options_.max_write_buffer_bytes) {
    Count(&ServerStats::connections_evicted);
    CloseConnection(conn->id);
    return;
  }
  while (!conn->out.empty()) {
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as EPIPE,
    // not a process-killing SIGPIPE.
    const ssize_t n =
        send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    Count(&ServerStats::reply_sends);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn->id);  // peer reset mid-reply
    return;
  }
  if (conn->out.empty() && conn->close_after_flush) {
    CloseConnection(conn->id);
    return;
  }
  UpdateWriteInterest(conn);
}

void Server::UpdateWriteInterest(Connection* conn) {
  const bool want = !conn->out.empty();
  if (want == conn->want_write) return;
  conn->want_write = want;
  epoll_event ev = {};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = conn->id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  // Its queued requests stay admitted and will serve; their replies are
  // discarded at finalize when the connection lookup fails. The global
  // budget is released then, the per-connection one dies here.
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  connections_.erase(it);
}

void Server::SweepIdle(TimePoint now) {
  if (options_.idle_timeout_ms == 0) return;
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  for (auto it = connections_.begin(); it != connections_.end();) {
    const Connection& conn = *(it++)->second;  // erasing conn keeps `it`
    if (conn.inflight_events == 0 && conn.out.empty() &&
        now - conn.last_activity > limit) {
      Count(&ServerStats::connections_idle_closed);
      CloseConnection(conn.id);
    }
  }
}

void Server::DrainAndExit() {
  draining_ = true;
  // Close the listener outright — leaving it open would keep the kernel
  // accepting into the backlog, stranding clients that will never be read.
  if (listen_fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close(listen_fd_);
    listen_fd_ = -1;
  }

  // Serve everything already admitted (expired requests still get their
  // kTimeout replies via the sweep), then quiesce the engine.
  SweepDeadlines(Clock::now());
  MaybeSubmit(Clock::now(), /*force=*/true);
  OBJALLOC_CHECK_EQ(global_inflight_, 0u);

  if (service_->Load().durability == core::DurabilityState::kDurable) {
    (void)service_->SyncDurable();
  }

  // Bounded-grace flush of the remaining reply bytes: slow clients get
  // half a second, then the process leaves anyway.
  const TimePoint give_up = Clock::now() + std::chrono::milliseconds(500);
  while (true) {
    FlushDirty();
    bool any = false;
    for (const auto& [id, conn] : connections_) {
      if (conn->out.empty()) continue;
      MarkDirty(conn.get());
      any = true;
    }
    if (!any || Clock::now() >= give_up) break;
    epoll_event events[16];
    epoll_wait(epoll_fd_, events, std::size(events), 20);
  }
  while (!connections_.empty()) CloseConnection(connections_.begin()->first);
}

}  // namespace objalloc::net
