#ifndef PIVOT_NET_SOCKET_H_
#define PIVOT_NET_SOCKET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/network.h"
#include "net/supervisor.h"
#include "net/wire.h"

namespace pivot {

// Multi-process socket transport (DESIGN.md, "Transport model").
//
// One SocketNetwork per party *process*: it binds a TCP or Unix-domain
// listener, negotiates the full mesh (listen/dial by rank with a
// version-checked party-id handshake), and exposes a single
// ReliableEndpoint — the same reliable-channel core (net/channel.h: seq +
// CRC32 + NACK retransmit) the in-memory mesh runs — so a protocol run
// over real file descriptors is bit-identical to the single-process run,
// and the checkpoint/resume machinery carries over unchanged to real
// process crashes. As a carrier, SocketNetwork supplies kData/kNack
// stream frames on the link writers, per-peer inbound data and control
// queues filled by the receiver threads, the kSever/kMute link faults,
// and the peer's liveness for Recv timeout errors.
//
// Mesh negotiation: party i dials every peer j < i and accepts from
// every j > i, so each directed pair has exactly one connection and no
// adoption races. The dialer opens with a kHello (magic, transport
// version, party id, party count, incarnation); the acceptor validates
// and answers kHelloAck with its own identity. `incarnation` identifies
// one SocketNetwork instance: a reconnect presenting the *same*
// incarnation resumes the channel (missing frames recovered via NACK
// from the bounded resend window), while a *changed* incarnation means
// the peer process restarted and its channel state is gone — the run
// aborts and the next attempt re-establishes a fresh mesh, resuming
// from checkpoints.
//
// Threads per process: one accept loop, one supervisor loop
// (ConnectionSupervisor Tick: heartbeats, dead-peer detection,
// reconnect with deterministic backoff, escalation to abort), and per
// live connection one receiver plus one writer. The writer drains an
// unbounded per-link outbound queue, so Endpoint::Send never blocks on
// TCP backpressure — the classic SPMD distributed deadlock (all parties
// stuck in a blocking send to each other) cannot happen. Frames sent
// while a link is down are dropped and recovered by the reliable
// layer's NACK/retransmit path after reconnection.
//
// Faults: a FaultPlan applies to outbound wire frames (drop / delay /
// duplicate / truncate / corrupt, as in-memory) plus the socket-only
// kinds — kSever closes the connection (fatal: reconnection refused
// until the budget exhausts) and kMute suppresses all outbound traffic,
// heartbeats included, for delay_ms (the peer's supervisor detects the
// silence and reconnects). NetworkSim is not applied here: real wires
// have real latency.

struct SocketOptions {
  // Reliable-channel tunables (same meaning as on the in-memory mesh).
  NetConfig net;
  // Heartbeat / reconnect / escalation tunables.
  SupervisorConfig supervision;
  // Deadline for Establish() to bring up the full mesh.
  int establish_timeout_ms = 60'000;
  // Per-connection handshake deadline (dial and accept side).
  int handshake_timeout_ms = 5'000;
  // Hard cap on one stream frame; a larger length prefix is rejected
  // before any payload allocation (corrupt or hostile header).
  uint64_t max_frame_bytes = uint64_t{1} << 30;
  // Transport version offered in the handshake. Tests override it to
  // exercise version-mismatch rejection; leave at default otherwise.
  uint32_t handshake_version = kTransportVersion;
  // Instance identity for crash detection; 0 derives a process-unique
  // value (pid + instance counter).
  uint64_t incarnation = 0;
  // Invoked once per supervisor pass (roughly every heartbeat interval)
  // from the supervisor thread, while the network is up. The process
  // orchestrator uses this as its liveness export: the party-side hook
  // writes ALIVE to the control pipe and checks for a pending shutdown
  // request. Must be cheap and must not block.
  std::function<void()> on_tick;
};

class SocketNetwork : public ChannelCarrier {
 public:
  SocketNetwork(int party_id, int num_parties,
                SocketOptions options = SocketOptions());
  ~SocketNetwork() override;

  int party_id() const { return party_id_; }
  int num_parties() const { return num_parties_; }
  const SocketOptions& options() const { return options_; }

  // Binds the listener. `address` is "host:port" (TCP; port 0 picks an
  // ephemeral port) or "unix:PATH" (Unix-domain; a stale socket file at
  // PATH is removed). listen_address() reports the bound address with
  // the actual port filled in.
  [[nodiscard]] Status Bind(const std::string& address);
  const std::string& listen_address() const { return listen_address_; }

  // Brings up the full mesh: dials every lower-ranked peer (retrying
  // with deterministic backoff until options.establish_timeout_ms),
  // accepts every higher-ranked one, then starts supervision.
  // `peer_addresses[j]` is party j's listen address; the self entry is
  // ignored. Fails permanently on a transport-version mismatch, and at
  // once (naming the peer) when a dialed link drops while waiting for
  // the dial-ins.
  [[nodiscard]] Status Establish(
      const std::vector<std::string>& peer_addresses);

  ReliableEndpoint& endpoint() { return *endpoint_; }

  // Security-with-abort across processes: records the cause, poisons the
  // local inbound queues, and (when this party originated the abort)
  // broadcasts a kAbort frame to every connected peer so their blocked
  // receives wake promptly. First caller wins.
  void Abort(Status cause, int origin_party);

  // This process's traffic counters plus supervision counters
  // (reconnects, heartbeats). Cross-party aggregation is the caller's
  // job — each process only sees itself.
  NetworkStats stats() const;
  // Liveness line for peer `p` ("connected, last heard N ms ago, ...");
  // feeds Recv timeout diagnostics.
  std::string DescribePeer(int peer) const;

 private:
  // One connection generation: an fd plus its writer/receiver threads
  // and outbound queue. A reconnect retires the old generation (threads
  // joined, fd closed at reap time) and installs a new one; the
  // generation owns its fd exclusively, so no thread ever writes to a
  // recycled descriptor.
  struct LinkGen {
    int fd = -1;
    std::shared_ptr<MessageQueue> outbound;
    std::thread writer;
    std::thread receiver;
  };

  struct PeerLink {
    std::mutex mu;
    std::unique_ptr<LinkGen> cur;                // null while down
    std::vector<std::unique_ptr<LinkGen>> dead;  // awaiting join + close
    uint64_t incarnation_seen = 0;               // 0 = never connected
    std::string last_down_reason;                // why the last drop happened
    std::atomic<int64_t> mute_until_ms{0};       // kMute fault deadline
    std::atomic<bool> refuse_reconnect{false};   // fatal kSever fault
  };

  static int64_t NowMs();

  Status ParseAndListen(const std::string& address);
  // One dial attempt to peer `j` including the handshake; adopts the
  // connection on success. InvalidArgument is permanent (version
  // mismatch); other errors are retryable.
  Status DialPeer(int j);
  void AcceptLoop();
  // Handshakes one inbound connection (accept side) and adopts or rejects
  // it; owns `fd` either way.
  void HandleInbound(int fd);
  void SupervisorLoop();
  void ReceiverLoop(int peer, LinkGen* gen);
  void WriterLoop(int peer, LinkGen* gen);
  void DispatchFrame(int peer, StreamFrame frame);
  // Installs a handshaken fd as peer `p`'s current generation (retiring
  // and reaping any previous one) and spawns its threads.
  void AdoptConnection(int peer, int fd, uint64_t peer_incarnation);
  // Retires the current generation: shuts the fd down and poisons the
  // outbound queue so both threads exit on their own. Join + close
  // happen later (AdoptConnection or teardown) — never from a thread
  // that might be the generation's own receiver.
  void SeverLink(int peer, const std::string& reason);
  // Peers without a live connection, ascending (empty once the mesh is
  // up). Caller holds conn_mu_.
  std::vector<int> MissingPeersLocked();
  // Hands a ready stream frame to the link writer; silently dropped when
  // the link is down (reliable layer recovers via NACK).
  void EnqueueFrame(int peer, Bytes stream_frame);
  // Abort without the peer broadcast (for aborts *received* from peers):
  // records the abort and poisons the inbound queues; false if a prior
  // abort already won.
  bool LocalAbort(const Status& recorded);

  // Carrier hooks (net/channel.h); `from`/`to` other than this party name
  // the peer.
  void PushData(int from, int to, Bytes frame) override;
  void PushNack(int from, int to, Bytes body) override;
  MessageQueue& InboundData(int from, int to) override {
    (void)to;
    return *data_in_[from];
  }
  MessageQueue& InboundNacks(int from, int to) override {
    (void)to;
    return *ctrl_in_[from];
  }
  void ApplyLinkFault(int to, const FaultAction& action) override;
  std::string DiagnosePeer(int peer) const override {
    return DescribePeer(peer);
  }

  int party_id_;
  int num_parties_;
  SocketOptions options_;
  uint64_t incarnation_;
  std::unique_ptr<ReliableEndpoint> endpoint_;
  std::unique_ptr<ConnectionSupervisor> supervisor_;

  int listen_fd_ = -1;
  std::string listen_address_;
  std::string unix_path_;  // empty for TCP
  std::vector<std::string> peer_addresses_;

  std::vector<std::unique_ptr<PeerLink>> links_;
  std::vector<std::unique_ptr<MessageQueue>> data_in_;
  std::vector<std::unique_ptr<MessageQueue>> ctrl_in_;

  std::thread accept_thread_;
  std::thread supervisor_thread_;
  std::atomic<bool> shutdown_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  std::mutex conn_mu_;
  std::condition_variable conn_cv_;

  std::atomic<uint64_t> heartbeat_seq_{0};
};

// Loopback harness: runs `body(party_id, endpoint)` for `num_parties`
// SocketNetworks over 127.0.0.1 TCP in one process — the socket-backend
// twin of RunParties, used by RunFederation's socket mode and the
// transport tests. Each party binds an ephemeral port, the mesh is
// established, and statuses are combined with the same root-cause
// preference as RunParties. `plans[i]` (when provided) installs a fault
// plan on party i's network; `fired_fault_mask` (when non-null) receives
// the OR of all parties' fired masks.
Status RunLoopbackParties(
    int num_parties, const SocketOptions& options,
    const std::function<Status(int, Endpoint&)>& body,
    NetworkStats* stats = nullptr, const std::vector<FaultPlan>& plans = {},
    uint64_t* fired_fault_mask = nullptr);

}  // namespace pivot

#endif  // PIVOT_NET_SOCKET_H_
