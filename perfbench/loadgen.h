// The load generator: ONE thread drives every connection through one
// ppoll loop. Each connection owns a pre-generated event stream over a
// disjoint object range and sends it as frames of `batch` events (single
// kRead/kWrite frames when batch == 1, kBatch frames otherwise).
//
// Two loop shapes:
//   closed  each connection keeps `window` frames in flight; the events
//           completed inside the window give saturation throughput.
//   open    frames are due on a fixed absolute schedule (rate events/s,
//           round-robin over connections) whatever the replies do; latency
//           is timed from each frame's *due* time, and how late the
//           generator actually sent is recorded per frame. The open loop
//           busy-polls (zero-timeout ppoll) between due times; the closed
//           loop sleeps in ppoll with nanosecond timeouts.
//
// Exactly-once replies are a correctness gate: a reply for an id never
// sent, a second reply for one id, or a request left without a reply ends
// the process with exit code 1 (see Fail in gate.h).

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "objalloc/net/client.h"
#include "objalloc/workload/multi_object.h"
#include "probe.h"

namespace perfbench {

struct LoadConn {
  objalloc::net::Client client;
  // The connection's event stream, cycled: frame f carries events
  // [f * batch, (f + 1) * batch) modulo the stream length.
  std::vector<objalloc::workload::MultiObjectEvent> events;
  uint64_t frames_sent = 0;
  uint64_t replies = 0;
  // Per frame (request id - 1): 0 pending, 1 ok, 2 shed, 3 timed out.
  std::vector<uint8_t> outcome;
  std::vector<int64_t> due_ns;

  std::span<const objalloc::workload::MultiObjectEvent> Frame(
      uint64_t f, int batch) const {
    const auto size = static_cast<size_t>(batch);
    return {events.data() + (f * size) % events.size(), size};
  }
};

struct PhaseStats {
  uint64_t events_sent = 0;
  uint64_t events_ok = 0;
  uint64_t events_shed = 0;     // kOverloaded / kUnavailable
  uint64_t events_timeout = 0;  // kTimeout
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double max_send_ms = 0;  // longest blocking send (server backpressure)
  // Closed loop: events whose ok reply arrived before end_ns.
  uint64_t events_ok_in_phase = 0;
  // Open loop: per ok frame, latency from its due time, filed under the
  // window it was due in; failed frames are filed as +inf. Windows only
  // decide validity: one in which the generator sent a frame more than the
  // late limit after its due time is not a server result, and every
  // latency due in it is left out.
  int64_t window_ns = 1;
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> window_max_late_ms;  // by due time
  std::vector<double> late_ms;             // per sent frame
  double backlog_first_half = 0;           // mean events outstanding
  double backlog_second_half = 0;

  // Opens the phase now, `seconds` long, cut into windows of `window_s`.
  void Start(double seconds, double window_s);
  size_t WindowOf(int64_t t_ns) const;
  // Windows in which the generator was never more than `late_limit_ms`
  // late.
  size_t ValidWindows(double late_limit_ms) const;
  // Every latency of the valid windows, pooled.
  std::vector<double> ValidLatencies(double late_limit_ms) const;
  // Closed loop: ok events per second over the whole phase.
  double Throughput() const;
};

class LoadGen {
 public:
  // Windows of the open loop's latency statistics and of the closed loop's
  // throughput.
  static constexpr double kWindowSeconds = 0.05;

  LoadGen(int batch, Tracer* tracer) : batch_(batch), tracer_(tracer) {}

  // Connects `connections` clients; events are assigned by the caller.
  void Connect(uint16_t port, int connections);
  // Hands connection c its pre-generated event stream and sizes its
  // per-frame records for `expected_frames` (a reallocation mid-phase would
  // stall the loop).
  void SetStream(size_t c,
                 std::vector<objalloc::workload::MultiObjectEvent> events,
                 size_t expected_frames);
  std::vector<LoadConn>& conns() { return conns_; }

  // When `mark_events` > 0, calls `at_mark(events)` once, as soon as at
  // least that many events of the phase have completed ok.
  PhaseStats RunClosed(
      double seconds, size_t window, uint64_t parent_span,
      uint64_t mark_events = 0,
      const std::function<void(uint64_t events)>& at_mark = nullptr);
  PhaseStats RunOpen(double rate_eps, double seconds, uint64_t parent_span);

  // Fault injection for the benchmark's own smoke test: swallow the next
  // reply as if the wire had lost it.
  void DropNextReply() { drop_next_reply_ = true; }

 private:
  void SendFrame(size_t c, int64_t due_ns, PhaseStats* stats);
  // Consumes every reply already readable on connection c.
  void Drain(size_t c, int64_t now_ns, PhaseStats* stats, uint64_t parent);
  // Waits until every sent frame has exactly one reply.
  void AwaitAll(PhaseStats* stats, uint64_t parent);
  // ppoll over every connection for at most `timeout_ns` (<0 = 10 s);
  // drains whatever became readable. Returns false if nothing arrived.
  bool PollAndDrain(int64_t timeout_ns, PhaseStats* stats, uint64_t parent);
  uint64_t Outstanding() const;

  int batch_;
  Tracer* tracer_;
  bool timed_ = false;  // open loop: record latency, busy-poll
  std::vector<LoadConn> conns_;
  bool drop_next_reply_ = false;
  uint64_t sampled_ = 0;  // request spans are sampled 1 in kSpanStride
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
