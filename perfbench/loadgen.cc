#include "loadgen.h"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <limits>

#include "gate.h"
#include "objalloc/util/status.h"

namespace perfbench {

namespace {

using objalloc::util::StatusCode;

constexpr uint64_t kSpanStride = 64;
constexpr int64_t kReplyTimeoutNs = 10'000'000'000;  // silence = lost reply

void RecordFailure(PhaseStats* stats, int64_t due) {
  stats->window_latency_ms[stats->WindowOf(due)].push_back(
      std::numeric_limits<double>::infinity());
}

}  // namespace

void PhaseStats::Start(double seconds, double window_s) {
  const auto length = static_cast<int64_t>(seconds * 1e9);
  const int64_t windows = std::max<int64_t>(
      1, length / std::max<int64_t>(1, static_cast<int64_t>(window_s * 1e9)));
  start_ns = NowNs();
  end_ns = start_ns + length;
  window_ns = std::max<int64_t>(1, length / windows);
  window_latency_ms.assign(static_cast<size_t>(windows), {});
  window_max_late_ms.assign(static_cast<size_t>(windows), 0);
}

size_t PhaseStats::WindowOf(int64_t t_ns) const {
  const auto last = static_cast<int64_t>(window_latency_ms.size()) - 1;
  return static_cast<size_t>(
      std::clamp<int64_t>((t_ns - start_ns) / window_ns, 0, last));
}

size_t PhaseStats::ValidWindows(double late_limit_ms) const {
  return static_cast<size_t>(
      std::count_if(window_max_late_ms.begin(), window_max_late_ms.end(),
                    [&](double late) { return late <= late_limit_ms; }));
}

std::vector<double> PhaseStats::ValidLatencies(double late_limit_ms) const {
  std::vector<double> pooled;
  for (size_t w = 0; w < window_latency_ms.size(); ++w) {
    if (window_max_late_ms[w] > late_limit_ms) continue;
    pooled.insert(pooled.end(), window_latency_ms[w].begin(),
                  window_latency_ms[w].end());
  }
  return pooled;
}

double PhaseStats::Throughput() const {
  return static_cast<double>(events_ok_in_phase) * 1e9 /
         static_cast<double>(std::max<int64_t>(1, end_ns - start_ns));
}

void LoadGen::SetStream(size_t c,
                        std::vector<objalloc::workload::MultiObjectEvent> events,
                        size_t expected_frames) {
  LoadConn& conn = conns_[c];
  if (events.empty() || events.size() % static_cast<size_t>(batch_) != 0) {
    Fail("event stream length must be a positive multiple of the frame size");
  }
  conn.events = std::move(events);
  // Touched now, so that peak RSS does not depend on how many frames the
  // run happens to send.
  conn.outcome.assign(expected_frames, 0);
  conn.outcome.clear();
  conn.due_ns.assign(expected_frames, 0);
  conn.due_ns.clear();
}

void LoadGen::Connect(uint16_t port, int connections) {
  conns_.resize(static_cast<size_t>(connections));
  for (LoadConn& conn : conns_) {
    const objalloc::util::Status status =
        conn.client.Connect("127.0.0.1", port);
    if (!status.ok()) Fail("connect: " + status.ToString());
  }
}

uint64_t LoadGen::Outstanding() const {
  uint64_t outstanding = 0;
  for (const LoadConn& conn : conns_) {
    outstanding += conn.frames_sent - conn.replies;
  }
  return outstanding;
}

void LoadGen::SendFrame(size_t c, int64_t due_ns, PhaseStats* stats) {
  LoadConn& conn = conns_[c];
  const auto frame = conn.Frame(conn.frames_sent, batch_);
  objalloc::util::StatusOr<uint64_t> id = 0;
  if (batch_ == 1) {
    const auto& event = frame[0];
    id = conn.client.SendServe(event.request.is_write(), event.object,
                               static_cast<uint32_t>(event.request.processor));
  } else {
    objalloc::net::BatchRequest request;
    request.items.reserve(static_cast<size_t>(batch_));
    for (const auto& event : frame) {
      request.items.push_back(objalloc::net::BatchItem{
          event.object, static_cast<uint32_t>(event.request.processor),
          static_cast<uint8_t>(event.request.is_write())});
    }
    id = conn.client.SendBatch(request);
  }
  if (!id.ok()) Fail("send: " + id.status().ToString());
  if (*id != conn.frames_sent + 1) Fail("request ids must be sequential");
  ++conn.frames_sent;
  conn.outcome.push_back(0);
  conn.due_ns.push_back(due_ns);
  stats->events_sent += static_cast<uint64_t>(batch_);
}

void LoadGen::Drain(size_t c, int64_t now_ns, PhaseStats* stats,
                    uint64_t parent) {
  LoadConn& conn = conns_[c];
  while (true) {
    objalloc::util::StatusOr<objalloc::net::Client::Reply> reply =
        conn.client.WaitReply(0);
    if (!reply.ok()) {
      if (reply.status().code() == StatusCode::kTimeout) return;
      Fail("transport failure: " + reply.status().ToString());
    }
    if (drop_next_reply_) {
      drop_next_reply_ = false;
      continue;
    }
    const uint64_t id = reply->request_id;
    if (id < 1 || id > conn.frames_sent) {
      Fail("reply for request id " + std::to_string(id) + " never sent");
    }
    uint8_t& outcome = conn.outcome[id - 1];
    if (outcome != 0) {
      Fail("second reply for request id " + std::to_string(id));
    }
    ++conn.replies;
    const auto events = static_cast<uint64_t>(batch_);
    if (reply->status.ok()) {
      if (batch_ > 1 && reply->costs.size() != events) {
        Fail("batch reply carries the wrong number of costs");
      }
      outcome = 1;
      stats->events_ok += events;
      const int64_t due = conn.due_ns[id - 1];
      if (timed_) {
        stats->window_latency_ms[stats->WindowOf(due)].push_back(
            static_cast<double>(now_ns - due) / 1e6);
      } else if (now_ns < stats->end_ns) {
        stats->events_ok_in_phase += events;
      }
      if (tracer_->enabled() && sampled_++ % kSpanStride == 0) {
        tracer_->Record("loadgen.request", parent, due, now_ns, events);
      }
      continue;
    }
    switch (reply->status.code()) {
      case StatusCode::kOverloaded:
      case StatusCode::kUnavailable:
        if (timed_) RecordFailure(stats, conn.due_ns[id - 1]);
        outcome = 2;
        stats->events_shed += events;
        break;
      case StatusCode::kTimeout:
        if (timed_) RecordFailure(stats, conn.due_ns[id - 1]);
        outcome = 3;
        stats->events_timeout += events;
        break;
      default:
        Fail("non-transient error reply to well-formed traffic: " +
             reply->status.ToString());
    }
  }
}

bool LoadGen::PollAndDrain(int64_t timeout_ns, PhaseStats* stats,
                           uint64_t parent) {
  pollfd fds[16];
  const size_t n = std::min<size_t>(conns_.size(), 16);
  for (size_t c = 0; c < n; ++c) {
    fds[c].fd = conns_[c].client.fd();
    fds[c].events = POLLIN;
    fds[c].revents = 0;
  }
  if (timeout_ns < 0) timeout_ns = kReplyTimeoutNs;
  int ready = 0;
  if (timed_) {
    // The open loop busy-polls instead of sleeping: a halted vCPU wakes
    // late on a loaded host, and that delay would be charged to the server
    // as latency. The generator owns a core in the thread budget.
    const int64_t deadline = NowNs() + timeout_ns;
    const timespec zero = {0, 0};
    do {
      ready = ppoll(fds, n, &zero, nullptr);
    } while (ready == 0 && NowNs() < deadline);
  } else {
    const timespec timeout = {static_cast<time_t>(timeout_ns / 1000000000),
                              static_cast<long>(timeout_ns % 1000000000)};
    ready = ppoll(fds, n, &timeout, nullptr);
  }
  if (ready <= 0) return false;
  const int64_t now = NowNs();
  for (size_t c = 0; c < n; ++c) {
    if (fds[c].revents != 0) Drain(c, now, stats, parent);
  }
  return true;
}

void LoadGen::AwaitAll(PhaseStats* stats, uint64_t parent) {
  while (Outstanding() > 0) {
    size_t client_outstanding = 0;
    for (const LoadConn& conn : conns_) {
      client_outstanding += conn.client.outstanding();
    }
    if (client_outstanding == 0) {
      Fail(std::to_string(Outstanding()) +
           " request(s) consumed by the client without a recorded reply");
    }
    if (!PollAndDrain(-1, stats, parent)) {
      Fail("no reply within 10 s with " + std::to_string(Outstanding()) +
           " request(s) outstanding");
    }
  }
}

PhaseStats LoadGen::RunClosed(
    double seconds, size_t window, uint64_t parent_span, uint64_t mark_events,
    const std::function<void(uint64_t events)>& at_mark) {
  PhaseStats stats;
  timed_ = false;
  stats.Start(seconds, kWindowSeconds);
  const int64_t start = stats.start_ns;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  auto refill = [&](int64_t now) {
    for (size_t c = 0; c < conns_.size(); ++c) {
      while (conns_[c].frames_sent - conns_[c].replies < window) {
        SendFrame(c, now, &stats);
      }
    }
  };
  refill(start);
  int64_t now = start;
  bool marked = mark_events == 0;
  while (now < end) {
    PollAndDrain(end - now, &stats, parent_span);
    if (!marked && stats.events_ok_in_phase >= mark_events) {
      marked = true;
      at_mark(stats.events_ok_in_phase);
    }
    now = NowNs();
    if (now < end) refill(now);
  }
  AwaitAll(&stats, parent_span);
  return stats;
}

PhaseStats LoadGen::RunOpen(double rate_eps, double seconds,
                            uint64_t parent_span) {
  PhaseStats stats;
  const double interval = static_cast<double>(batch_) * 1e9 / rate_eps;
  const auto total = static_cast<uint64_t>(seconds * rate_eps / batch_);
  stats.late_ms.reserve(total);
  timed_ = true;
  stats.Start(seconds, kWindowSeconds);
  for (std::vector<double>& window : stats.window_latency_ms) {
    window.reserve(total / stats.window_latency_ms.size() + 1);
  }
  const int64_t start = stats.start_ns;
  const int64_t half = start + static_cast<int64_t>(seconds * 0.5e9);
  double backlog_sum[2] = {0, 0};
  uint64_t backlog_samples[2] = {0, 0};
  uint64_t k = 0;
  auto due_of = [&](uint64_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * interval);
  };
  while (k < total) {
    int64_t now = NowNs();
    while (k < total && due_of(k) <= now) {
      const int64_t due = due_of(k);
      const double late = static_cast<double>(now - due) / 1e6;
      stats.late_ms.push_back(late);
      double& window_late = stats.window_max_late_ms[stats.WindowOf(due)];
      window_late = std::max(window_late, late);
      SendFrame(k % conns_.size(), due, &stats);
      ++k;
      const int64_t sent = NowNs();
      stats.max_send_ms =
          std::max(stats.max_send_ms, static_cast<double>(sent - now) / 1e6);
      now = sent;
    }
    const int side = now < half ? 0 : 1;
    backlog_sum[side] += static_cast<double>(Outstanding());
    ++backlog_samples[side];
    if (k < total) {
      PollAndDrain(std::max<int64_t>(due_of(k) - now, 0), &stats,
                   parent_span);
    }
  }
  for (int side = 0; side < 2; ++side) {
    const double mean =
        backlog_samples[side] == 0
            ? 0
            : backlog_sum[side] / static_cast<double>(backlog_samples[side]);
    (side == 0 ? stats.backlog_first_half : stats.backlog_second_half) =
        mean * batch_;
  }
  AwaitAll(&stats, parent_span);
  return stats;
}

}  // namespace perfbench
