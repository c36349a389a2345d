// The objalloc wire protocol (DESIGN.md §15): length-prefixed, CRC-framed,
// versioned messages over a byte stream.
//
// Frame layout (all integers little-endian):
//
//   offset 0   u32  length      bytes that FOLLOW this field (header+payload)
//   offset 4   u32  crc         CRC32 over bytes [8, 4+length)
//   offset 8   u8   version     kWireVersion
//   offset 9   u8   type        MsgType
//   offset 10  u16  status      replies: the util::StatusCode; requests: 0
//   offset 12  u64  request_id  echoed verbatim in the reply
//   offset 20  ...  payload     length - 16 bytes, op-specific
//
// The CRC covers everything after itself — version, type, status,
// request id, payload — so any single-bit corruption in those bytes is
// detected structurally; corruption of the length field moves the frame
// boundary and is caught by the CRC landing on the wrong span (or by the
// bounds checks). Decoding is strict parse-and-reject: a frame with an
// unknown version, an unknown type, a length below the fixed header or
// above the negotiated maximum, or a CRC mismatch is a *protocol error* —
// the server replies kProtocolError and drops the connection; it never
// guesses at resynchronization (a byte stream that lied once cannot be
// trusted about where the next frame starts).
//
// Reply types are `request type | kReplyBit`. A reply's `status` carries
// the util::StatusCode taxonomy (util/status.h) verbatim, so wire replies
// and library errors agree: kOverloaded = shed by an admission budget,
// kTimeout = deadline elapsed while queued, kUnavailable = degraded
// serving — all transient (IsTransientRejection); kNotFound/kOutOfRange/
// kInvalidArgument = caller errors. Error replies carry the human-readable
// message as their payload.
//
// Payload schemas (request → ok-reply payload):
//   kPing      ()                                    → ()
//   kRegister  (i64 object, u64 scheme_mask, u8 alg) → ()
//   kRead      (i64 object, u32 processor, u32 deadline_ms) → (f64 cost)
//   kWrite     same as kRead                          → (f64 cost)
//   kBatch     (u32 count, u32 deadline_ms,
//               count × {i64 object, u32 processor, u8 is_write})
//                                                     → (u32 count, count × f64)
//   kStats     ()                                     → (WireStats, fixed-width)
//
// A kBatch frame is all-or-nothing on its own: one invalid item rejects the
// whole wire batch with no state change. The server checks the frame with
// the engine's own refusal rule (ObjectService::FirstRefusal), so an item
// is invalid exactly when the engine would refuse it: kNotFound for an id
// with no registered object, else kOutOfRange for a processor outside
// [0, n); the first invalid item decides. (Inside the engine, and for a
// single-event frame, the refusal is per event.)

#ifndef OBJALLOC_NET_WIRE_H_
#define OBJALLOC_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "objalloc/util/status.h"

namespace objalloc::net {

inline constexpr uint8_t kWireVersion = 1;

// Fixed bytes per frame: the length field plus the CRC/version/type/status/
// request-id header it counts.
inline constexpr size_t kFrameHeaderBytes = 16;   // after the length field
inline constexpr size_t kFrameOverheadBytes = 4 + kFrameHeaderBytes;

// Default cap a decoder enforces on `length`. Oversized frames are
// protocol errors before any allocation happens — the length field of a
// hostile peer must never size a buffer.
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

inline constexpr uint8_t kReplyBit = 0x80;

enum class MsgType : uint8_t {
  kPing = 1,
  kRegister = 2,
  kRead = 3,
  kWrite = 4,
  kBatch = 5,
  kStats = 6,
  // Replies: request | kReplyBit.
  kPingReply = kPing | kReplyBit,
  kRegisterReply = kRegister | kReplyBit,
  kReadReply = kRead | kReplyBit,
  kWriteReply = kWrite | kReplyBit,
  kBatchReply = kBatch | kReplyBit,
  kStatsReply = kStats | kReplyBit,
  // Sent (best effort) before the server drops a connection that broke
  // framing; request_id echoes the last good id or 0.
  kProtocolError = 0xFF,
};

// True for the request types a client may send.
bool IsRequestType(uint8_t type);

// One decoded frame. `payload` views into the decode buffer — valid only
// while the buffer is.
struct Frame {
  uint8_t version = 0;
  MsgType type = MsgType::kPing;
  uint16_t status = 0;
  uint64_t request_id = 0;
  std::string_view payload;
};

enum class DecodeResult {
  kFrame,     // *frame and *consumed are set
  kNeedMore,  // buffer holds a frame prefix; read more bytes
  kError,     // framing broken (version/type/length/CRC) — drop the peer
};

// Strict frame decoder. Never reads past `buffer`, never allocates, and
// treats every malformed input as kError with a reason in *error.
DecodeResult DecodeFrame(std::string_view buffer, size_t max_frame_bytes,
                         Frame* frame, size_t* consumed, std::string* error);

// Appends one framed message to *out (length, CRC, header, payload).
void AppendFrame(MsgType type, uint16_t status, uint64_t request_id,
                 std::string_view payload, std::string* out);

// ---------------------------------------------------------------------
// Typed payloads. Encode* appends the payload bytes only (frame them with
// AppendFrame); Parse* validates length and field ranges strictly.

struct RegisterRequest {
  int64_t object = 0;
  uint64_t scheme_mask = 0;
  uint8_t algorithm = 0;  // AlgorithmKind as u8; wire accepts kStatic/kDynamic
};

struct ServeRequest {
  int64_t object = 0;
  uint32_t processor = 0;
  uint32_t deadline_ms = 0;  // 0 = server default
};

struct BatchItem {
  int64_t object = 0;
  uint32_t processor = 0;
  uint8_t is_write = 0;
};

struct BatchRequest {
  uint32_t deadline_ms = 0;
  std::vector<BatchItem> items;
};

// Engine + front-end counters, the payload of kStatsReply. Fixed-width so
// the codec fuzz can bit-flip it like everything else.
struct WireStats {
  uint64_t objects = 0;
  int64_t total_requests = 0;
  int64_t control_messages = 0;
  int64_t data_messages = 0;
  int64_t io_ops = 0;
  uint32_t scheme_crc = 0;
  uint64_t admitted_events = 0;
  uint64_t shed_overloaded = 0;
  uint64_t shed_timeout = 0;
  uint64_t rejected_events = 0;
  uint64_t protocol_errors = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_evicted = 0;
  uint64_t connections_idle_closed = 0;
  uint64_t batches_submitted = 0;
  uint8_t durability_state = 0;  // core::DurabilityState
};

void EncodeRegister(const RegisterRequest& request, std::string* out);
util::Status ParseRegister(std::string_view payload, RegisterRequest* out);

void EncodeServe(const ServeRequest& request, std::string* out);
util::Status ParseServe(std::string_view payload, ServeRequest* out);

void EncodeBatch(const BatchRequest& request, std::string* out);
// `max_items` bounds the declared count before anything is reserved.
util::Status ParseBatch(std::string_view payload, size_t max_items,
                        BatchRequest* out);

void EncodeCost(double cost, std::string* out);
util::Status ParseCost(std::string_view payload, double* out);

void EncodeCosts(std::span<const double> costs, std::string* out);
util::Status ParseCosts(std::string_view payload, size_t max_items,
                        std::vector<double>* out);

void EncodeStats(const WireStats& stats, std::string* out);
util::Status ParseStats(std::string_view payload, WireStats* out);

// Wire status <-> util::StatusCode. The wire carries the enum value
// verbatim; unknown values parse as kInternal (a peer speaking a newer
// taxonomy is reported, not trusted).
uint16_t WireStatus(util::StatusCode code);
util::StatusCode CodeFromWireStatus(uint16_t status);

// Builds the Status a reply frame describes: Ok for status 0, otherwise
// the code plus the reply payload as message.
util::Status StatusFromReply(const Frame& frame);

}  // namespace objalloc::net

#endif  // OBJALLOC_NET_WIRE_H_
