#ifndef PIVOT_NET_NETWORK_H_
#define PIVOT_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/channel.h"
#include "net/endpoint.h"
#include "net/fault.h"

namespace pivot {

// In-process multi-party message fabric.
//
// The paper runs its m clients on a LAN cluster connected through libscapi
// sockets; this reproduction runs the same SPMD protocol code against the
// Endpoint abstraction (net/endpoint.h) over one of two backends. This
// file is the in-memory one: each party on its own thread, connected
// through an in-memory mesh of FIFO channels (see DESIGN.md, substitution
// table). Per-endpoint byte and message counters preserve the
// communication-cost measurements that the evaluation reports. The
// socket backend (net/socket.h) runs one party per process over real
// file descriptors.
//
// Usage: construct one `InMemoryNetwork` for the party group, hand
// `endpoint(i)` to party i's thread, and exchange length-delimited byte
// messages. Receives block until the peer's message arrives, with a
// generous timeout so protocol bugs surface as errors instead of hangs.
//
// Reliable channels (DESIGN.md, "Fault model"): the mesh is one of the
// two carriers of the reliable-channel core (net/channel.h). It supplies
// m^2 data queues and m^2 control queues (NACKs travel apart from the
// data mesh, so retransmission requests can neither interleave with nor
// be faulted like protocol payloads) and the optional NetworkSim delay;
// framing, retransmission and fault injection live in ReliableEndpoint.
//
// Fault tolerance: the mesh implements security-with-abort. The first
// party whose protocol body fails calls InMemoryNetwork::Abort, which
// poisons every queue so peers blocked in Recv/GatherAll wake immediately
// with a kAborted Status naming the originating party, instead of waiting
// out the recv timeout. A deterministic FaultPlan (net/fault.h) can be
// installed before the party threads start to inject message/party faults
// for chaos testing.

// Optional emulation of the paper's LAN testbed: a fixed per-message
// latency plus a serialization delay proportional to message size. With
// the defaults (all zero) messages are delivered instantly; the efficiency
// benches enable it so that communication-bound cost shapes (Figures 4-5)
// match the paper's environment. In-memory backend only: the socket
// backend pays real wire latency.
struct NetworkSim {
  int latency_us = 0;          // one-way per-message latency
  double bandwidth_gbps = 0.0; // 0 = infinite bandwidth

  bool enabled() const { return latency_us > 0 || bandwidth_gbps > 0; }
};

// Aggregate traffic snapshot across all endpoints of a network. Byte and
// message counts are *logical* (application payloads, not frame headers
// or retransmissions) so the paper's communication-cost accounting is
// unaffected by the reliability layer; the reliability counters report
// the recovery work separately.
struct NetworkStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t rounds = 0;  // max per-party round estimate (send->recv flips)
  uint64_t retransmits = 0;            // frames resent on NACK
  uint64_t duplicates_suppressed = 0;  // frames below the expected seq
  uint64_t corrupt_frames = 0;         // CRC/length check failures
  uint64_t nacks_sent = 0;             // probes + evidence-backed NACKs
  uint64_t reconnects = 0;   // socket backend: successful re-dials
  uint64_t heartbeats = 0;   // socket backend: heartbeat frames sent

  // Sums `e`'s counters in (rounds takes the maximum over endpoints).
  // Supervision counters are not endpoint counters and are left alone.
  void Add(const Endpoint& e);
  // Sums every counter of `s` in, rounds included: the federation runners
  // total the stats of successive restart attempts, whose rounds happen
  // one after another.
  void Add(const NetworkStats& s);
};

class InMemoryNetwork : public ChannelCarrier {
 public:
  explicit InMemoryNetwork(int num_parties, NetConfig config = NetConfig(),
                           NetworkSim sim = NetworkSim());
  // Legacy convenience: default channel tunables with an explicit recv
  // timeout.
  InMemoryNetwork(int num_parties, int recv_timeout_ms,
                  NetworkSim sim = NetworkSim());

  int num_parties() const { return num_parties_; }
  ReliableEndpoint& endpoint(int i);

  // Network-wide abort (security-with-abort): records `cause` as coming
  // from `origin_party` and poisons every queue so all blocked receives
  // wake immediately. First caller wins; later calls are no-ops.
  void Abort(Status cause, int origin_party);

  // Total bytes sent across all endpoints.
  uint64_t total_bytes() const { return stats().bytes_sent; }
  // Aggregate traffic counters; rounds is the per-party maximum.
  NetworkStats stats() const;

 private:
  // Directed queue pair from -> to: protocol frames, and the NACKs that
  // travel beside them.
  MessageQueue& InboundData(int from, int to) override {
    return *queues_[static_cast<size_t>(from) * num_parties_ + to];
  }
  MessageQueue& InboundNacks(int from, int to) override {
    return *ctrl_queues_[static_cast<size_t>(from) * num_parties_ + to];
  }
  void PushData(int from, int to, Bytes frame) override {
    InboundData(from, to).Push(std::move(frame));
  }
  void PushNack(int from, int to, Bytes body) override {
    InboundNacks(from, to).Push(std::move(body));
  }
  void DelaySend(size_t payload_bytes) override;
  std::string DiagnosePeer(int peer) const override {
    (void)peer;
    return "peer missing/deadlock?";
  }

  int num_parties_;
  NetworkSim sim_;
  std::vector<std::unique_ptr<MessageQueue>> queues_;
  std::vector<std::unique_ptr<MessageQueue>> ctrl_queues_;
  std::vector<std::unique_ptr<ReliableEndpoint>> endpoints_;
};

// The status a party harness reports for per-party `statuses`: the first
// non-OK, non-kAborted status by party id (the root cause), otherwise the
// first abort echo, each prefixed with the failing party's id; OK when
// every party succeeded.
Status RootCauseStatus(const std::vector<Status>& statuses);

// Runs `body(party_id, endpoint)` on one thread per party and joins them.
// The first party to fail aborts the mesh so peers exit promptly instead
// of timing out. Returns RootCauseStatus over the parties' statuses.
Status RunParties(InMemoryNetwork& net,
                  const std::function<Status(int, Endpoint&)>& body);

}  // namespace pivot

#endif  // PIVOT_NET_NETWORK_H_
