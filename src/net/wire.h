#ifndef PIVOT_NET_WIRE_H_
#define PIVOT_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace pivot {

// Wire formats shared by the two transport backends (DESIGN.md,
// "Transport model").
//
// Both the in-memory mesh (net/network.h) and the socket transport
// (net/socket.h) carry the same *reliable frame* — a per-channel sequence
// number plus a CRC32 over the whole frame — built and parsed only by the
// reliable-channel core (net/channel.h), so duplicate suppression,
// corruption detection and NACK-triggered retransmission behave
// identically whether a frame crossed a std::deque or a TCP connection.
//
// The socket transport additionally wraps every message in a *stream
// frame*: a length prefix and a one-byte type, so heartbeats, NACKs,
// handshakes and abort notices can share one connection with protocol
// data. The incremental StreamFrameReader below survives partial writes
// and short reads (a frame may arrive one byte at a time) and rejects an
// implausible length prefix before allocating anything for the payload.

// ----- little-endian scalar helpers ------------------------------------

void PutU64Le(uint8_t* out, uint64_t v);
uint64_t GetU64Le(const uint8_t* in);
void PutU32Le(uint8_t* out, uint32_t v);
uint32_t GetU32Le(const uint8_t* in);

// ----- reliable frame (seq + CRC32) ------------------------------------

// Layout (little-endian):
//   [0, 8)   sequence number (per directed channel, starting at 0)
//   [8]      flags (reserved, 0)
//   [9, 13)  payload length
//   [13, 17) CRC32 over the whole frame with this field zeroed
//   [17, ..) payload
inline constexpr size_t kSeqFrameHeader = 17;

Bytes BuildSeqFrame(uint64_t seq, const Bytes& payload);

// Validates the frame and extracts (seq, payload). Any damage — too
// short, length mismatch, checksum mismatch — returns false; callers
// must not trust any header field of a frame that fails here.
bool ParseSeqFrame(const Bytes& frame, uint64_t* seq, Bytes* payload);

// ----- stream framing (socket transport) -------------------------------

// Outer layout: [u32 length][u8 type][body...], length = 1 + body size.
inline constexpr size_t kStreamHeaderBytes = 5;

// Stream frame types. kData carries a reliable frame; everything else is
// control traffic.
enum class StreamFrameType : uint8_t {
  kData = 1,       // body: reliable frame (seq + CRC32)
  kNack = 2,       // body: u64 requested sequence number
  kHeartbeat = 3,  // body: u64 heartbeat counter
  kAbort = 4,      // body: i64 origin party, u8 status code, string message
  kHello = 5,      // body: handshake (see HelloFrame)
  kHelloAck = 6,   // body: handshake echo from the acceptor
};

struct StreamFrame {
  uint8_t type = 0;
  Bytes body;
};

Bytes EncodeStreamFrame(StreamFrameType type, const Bytes& body);

// Incremental parser for the byte stream of one connection. Feed it
// whatever read(2) returned — any split, including one byte at a time —
// and it appends every completed frame to `out`. A length prefix above
// `max_frame_bytes` fails *before* any payload allocation, so a corrupted
// or hostile header cannot drive an out-of-memory allocation. The parser
// is connection-scoped: when a connection drops mid-frame, discard the
// parser (and with it the partial frame) along with the socket.
class StreamFrameReader {
 public:
  explicit StreamFrameReader(uint64_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  [[nodiscard]] Status Feed(const uint8_t* data, size_t n,
                            std::vector<StreamFrame>* out);

  // True while a partially received frame is pending — used to report
  // that a dropped connection cut a frame in half.
  bool mid_frame() const { return header_fill_ > 0 || body_expected_ > 0; }

 private:
  uint64_t max_frame_bytes_;
  uint8_t header_[kStreamHeaderBytes] = {0};
  size_t header_fill_ = 0;
  size_t body_expected_ = 0;  // body bytes still missing (incl. type byte)
  StreamFrame pending_;
};

// ----- handshake -------------------------------------------------------

inline constexpr uint32_t kHandshakeMagic = 0x50564853;  // 'PVHS'
// Bumped whenever any wire format above changes incompatibly.
inline constexpr uint32_t kTransportVersion = 1;

// Mesh-negotiation handshake. The dialer sends kHello, the acceptor
// validates and answers kHelloAck with its own identity. `incarnation`
// identifies one SocketNetwork instance: a reconnect presenting the same
// incarnation may resume the channel via NACK retransmission, while a
// changed incarnation means the peer process (or attempt) restarted and
// its channel state is gone — the run must abort and resume from
// checkpoints instead.
struct HelloFrame {
  uint32_t version = kTransportVersion;
  int32_t party_id = 0;
  int32_t num_parties = 0;
  uint64_t incarnation = 0;
};

Bytes EncodeHello(const HelloFrame& hello);
Result<HelloFrame> DecodeHello(const Bytes& body);

// ----- control bodies --------------------------------------------------

Bytes EncodeNackBody(uint64_t seq);
Result<uint64_t> DecodeNackBody(const Bytes& body);

Bytes EncodeHeartbeatBody(uint64_t counter);

struct AbortFrame {
  int32_t origin_party = -1;
  StatusCode code = StatusCode::kAborted;
  std::string message;
};

Bytes EncodeAbortBody(const AbortFrame& abort);
Result<AbortFrame> DecodeAbortBody(const Bytes& body);

}  // namespace pivot

#endif  // PIVOT_NET_WIRE_H_
