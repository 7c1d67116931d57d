#ifndef PIVOT_NET_ENDPOINT_H_
#define PIVOT_NET_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace pivot {

// Party-local view of the party mesh — the transport abstraction every
// protocol layer (MPC engine, conversions, trainer, serving) is written
// against. Its implementation is ReliableEndpoint (net/channel.h), the
// one reliable-channel core, over one of two carriers:
//
//   InMemoryNetwork (net/network.h)  all m parties as threads of one
//                                    process, connected through FIFO
//                                    queues — the default for tests,
//                                    benches, and single-machine runs.
//   SocketNetwork   (net/socket.h)   one party per process, connected
//                                    through real TCP or Unix-domain
//                                    sockets with heartbeats, reconnect
//                                    and crash-resume supervision.
//
// A protocol run is therefore bit-identical across backends. An Endpoint
// is thread-compatible: owned and driven by a single party thread.
//
// Traffic counters are *logical* (application payloads, not frame headers
// or retransmissions) so the paper's communication-cost accounting is
// unaffected by the reliability layer. They are atomic because the
// harness thread reads them (progress reporting, stats aggregation)
// while the party thread is still running.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  int id() const { return id_; }
  int num_parties() const { return num_parties_; }

  // Point-to-point send (to != id()). Fails once the mesh has aborted or
  // an injected fault has crashed this party, so send-only loops also
  // terminate promptly. The payload is framed (seq + CRC32) and buffered
  // for retransmission, and pending NACKs from peers are serviced first.
  [[nodiscard]] virtual Status Send(int to, Bytes msg) = 0;

  // Blocking receive of the next message from `from`. Delivers exactly
  // the next in-sequence payload, masking duplicate/dropped/damaged
  // frames via suppression and NACK-triggered retransmission. Timeout
  // errors name the channel (sender, receiver, elapsed ms, queue depth)
  // and, on the socket backend, the peer's liveness (connection state,
  // last-heartbeat age). Abort errors name the originating party.
  virtual Result<Bytes> Recv(int from) = 0;

  // Sends `msg` to every other party.
  [[nodiscard]] virtual Status Broadcast(const Bytes& msg);

  // Receives one message from every other party; slot id() holds `own`.
  virtual Result<std::vector<Bytes>> GatherAll(Bytes own);

  // Cumulative logical traffic through this endpoint.
  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  uint64_t messages_received() const {
    return messages_received_.load(std::memory_order_relaxed);
  }
  // Reliability-layer counters.
  uint64_t retransmits() const {
    return retransmits_.load(std::memory_order_relaxed);
  }
  uint64_t duplicates_suppressed() const {
    return dup_suppressed_.load(std::memory_order_relaxed);
  }
  uint64_t corrupt_frames() const {
    return corrupt_frames_.load(std::memory_order_relaxed);
  }
  uint64_t nacks_sent() const {
    return nacks_sent_.load(std::memory_order_relaxed);
  }
  // Round estimate: number of send-phase -> recv-phase transitions this
  // party performed — the sequential communication rounds a LAN
  // deployment pays latency for.
  uint64_t Rounds() const { return rounds_.load(std::memory_order_relaxed); }

 protected:
  Endpoint(int id, int num_parties) : id_(id), num_parties_(num_parties) {}

  // Counter plumbing for backends. Send/Recv phase flips feed the round
  // estimate; Count* track logical payloads only.
  void NoteSendPhase() { in_send_phase_ = true; }
  void NoteRecvPhase() {
    if (in_send_phase_) {
      rounds_.fetch_add(1, std::memory_order_relaxed);
      in_send_phase_ = false;
    }
  }
  void CountSend(size_t payload_bytes) {
    bytes_sent_.fetch_add(payload_bytes, std::memory_order_relaxed);
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountRecv(size_t payload_bytes) {
    bytes_received_.fetch_add(payload_bytes, std::memory_order_relaxed);
    messages_received_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountRetransmit() {
    retransmits_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountDuplicate() {
    dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountCorruptFrame() {
    corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountNack() { nacks_sent_.fetch_add(1, std::memory_order_relaxed); }

 private:
  int id_;
  int num_parties_;
  bool in_send_phase_ = false;
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> messages_received_{0};
  std::atomic<uint64_t> rounds_{0};
  std::atomic<uint64_t> retransmits_{0};
  std::atomic<uint64_t> dup_suppressed_{0};
  std::atomic<uint64_t> corrupt_frames_{0};
  std::atomic<uint64_t> nacks_sent_{0};
};

}  // namespace pivot

#endif  // PIVOT_NET_ENDPOINT_H_
