#ifndef PIVOT_NET_CHANNEL_H_
#define PIVOT_NET_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/endpoint.h"
#include "net/fault.h"

namespace pivot {

// The reliable-channel core (DESIGN.md, "Reliable channels" and
// "Layering: one reliability protocol, two carriers").
//
// Every logical message travels inside a frame carrying a per-channel
// sequence number and a CRC32 over the whole frame (net/wire.h). The
// receiver suppresses duplicates, detects corruption/truncation, and
// NACKs missing or damaged frames over a separate control path; the
// sender retransmits from a bounded per-channel resend window. Transient
// faults (net/fault.h) are therefore masked transparently; only a
// persistent fault — one that damages every retransmission, or an evicted
// resend frame — escalates to an error and from there to the
// security-with-abort path.
//
// ReliableEndpoint implements that protocol exactly once. It runs over a
// ChannelCarrier, which supplies only what differs between transports:
// where a data frame or a NACK goes, which inbound queues a peer's frames
// land in, link-level faults, a simulated send delay, and the peer
// diagnosis appended to timeout errors. The carrier base also owns the
// state every transport shares: the first-wins abort record and the
// installed FaultPlan with its fired mask. InMemoryNetwork
// (net/network.h) and SocketNetwork (net/socket.h) are the two carriers.

// Tunables of the reliable channel layer. Every field can be overridden
// from the environment via FromEnv, so a failing chaos schedule can be
// replayed with, say, a tighter retry budget without recompiling.
struct NetConfig {
  // Overall deadline for one blocking Recv. This is the last line of
  // defence: a peer that is computing (not lost) can stay silent for a
  // long time without burning retry budget, so the deadline has to cover
  // the slowest legitimate gap between messages.
  int recv_timeout_ms = 120'000;
  // Maximum number of recovery attempts per blocking Recv that are backed
  // by *evidence of loss* (a damaged frame or a sequence gap). Probe
  // NACKs sent on silent slices do not count: silence usually means the
  // peer is slow, not that the channel ate a frame. Exhaustion fails the
  // Recv with a ProtocolError, which escalates to an abort.
  int retry_budget = 8;
  // Deterministic exponential backoff between receive slices: the wait
  // doubles from base to max while the channel stays silent and resets
  // whenever a frame arrives.
  int backoff_base_ms = 10;
  int backoff_max_ms = 1'000;
  // Frames kept per directed channel for retransmission. A NACK for a
  // frame older than this window is unrecoverable and aborts the run.
  int resend_buffer_frames = 64;

  // Returns `base` (default-constructed in the no-arg form) with any of
  // PIVOT_NET_RECV_TIMEOUT_MS, PIVOT_NET_RETRY_BUDGET,
  // PIVOT_NET_BACKOFF_BASE_MS, PIVOT_NET_BACKOFF_MAX_MS,
  // PIVOT_NET_RESEND_FRAMES applied on top. An unparsable value (not an
  // integer, or trailing junk) or a non-positive timeout/budget/capacity
  // fails with InvalidArgument naming the offending variable: a typo'd
  // override must stop the run, not silently fall back to defaults.
  static Result<NetConfig> FromEnv(NetConfig base);
  static Result<NetConfig> FromEnv();
  // Validates the field ranges of an already-built config (FromEnv calls
  // this; programmatic configs can too).
  [[nodiscard]] Status Validate() const;
};

// One directed FIFO byte-message queue with blocking receive.
class MessageQueue {
 public:
  void Push(Bytes msg);
  // Blocks until a message is available, the queue is poisoned, or the
  // timeout elapses. A pending poison wins over queued data: once the
  // mesh is aborting, stale messages must not be consumed as progress.
  Result<Bytes> Pop(int timeout_ms);
  // Non-blocking variant for the control path: dequeues into `out` and
  // returns true when a message is available. Returns false on an empty
  // or poisoned queue — control traffic is advisory, so once the mesh is
  // aborting it is simply dropped.
  bool TryPop(Bytes* out);

  // Wakes all blocked Pop calls with `status` and fails future ones.
  void Poison(const Status& status);

  size_t depth() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Bytes> queue_;
  bool poisoned_ = false;
  Status poison_status_;
};

// What a transport provides to ReliableEndpoint, plus the abort and
// fault-plan state shared by every transport. Party ids in the hooks are
// directed: `from` sends, `to` receives.
class ChannelCarrier {
 public:
  virtual ~ChannelCarrier() = default;

  ChannelCarrier(const ChannelCarrier&) = delete;
  ChannelCarrier& operator=(const ChannelCarrier&) = delete;

  const NetConfig& config() const { return config_; }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  // The recorded abort status (kAborted naming the origin), or OK.
  Status abort_status() const;
  // Sleeps up to `ms`, waking early if the mesh aborts. Returns true if
  // an abort interrupted (or preceded) the wait. Used for injected
  // delays/stalls so simulated latency cannot outlive an abort.
  bool WaitForAbortMs(int ms);

  // Installs a fault-injection plan. Must be called before any party
  // traffic; ignored (kept empty) when `plan` has no actions.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan* fault_plan() const { return fault_plan_.get(); }
  // Bitmask over plan action indices that fired at least once.
  uint64_t fired_fault_mask() const {
    return fired_.load(std::memory_order_relaxed);
  }

 protected:
  explicit ChannelCarrier(const NetConfig& config) : config_(config) {}

  // Records `recorded` as the abort status and wakes WaitForAbortMs
  // sleepers. First caller wins: returns false (recording nothing) when
  // an earlier abort is already on record.
  bool RecordAbort(const Status& recorded);

 private:
  friend class ReliableEndpoint;

  // Hands a clean or faulted data frame for `to` to the wire.
  virtual void PushData(int from, int to, Bytes frame) = 0;
  // Hands a NACK body (EncodeNackBody) for `to` to the control path.
  virtual void PushNack(int from, int to, Bytes body) = 0;
  // Where `to` receives the data frames / NACK bodies sent by `from`.
  virtual MessageQueue& InboundData(int from, int to) = 0;
  virtual MessageQueue& InboundNacks(int from, int to) = 0;
  // Applies a link-level fault (kSever, kMute) on the link to `to`.
  virtual void ApplyLinkFault(int to, const FaultAction& action) {
    (void)to;
    (void)action;
  }
  // Sender-side delay for a `payload_bytes` message, before it is sent.
  virtual void DelaySend(size_t payload_bytes) { (void)payload_bytes; }
  // Tail of a Recv timeout error: what is known about peer `peer`.
  virtual std::string DiagnosePeer(int peer) const = 0;

  void MarkFaultFired(int action_index) {
    fired_.fetch_or(uint64_t{1} << (action_index & 63),
                    std::memory_order_relaxed);
  }

  NetConfig config_;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::atomic<uint64_t> fired_{0};
  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  std::condition_variable abort_cv_;
  Status abort_status_;
};

// The one Endpoint implementation behind both transports. Send frames the
// payload (seq + CRC32), keeps the clean frame in the resend window and
// pushes a (possibly faulted) wire copy; Recv delivers exactly the next
// in-sequence payload through the evidence-budgeted recovery loop. Both
// service pending NACKs first, so a party blocked in its own Recv still
// serves its peers. Thread-compatible: owned and driven by a single party
// thread.
class ReliableEndpoint final : public Endpoint {
 public:
  ReliableEndpoint(ChannelCarrier* carrier, int id, int num_parties);

  [[nodiscard]] Status Send(int to, Bytes msg) override;
  Result<Bytes> Recv(int from) override;

 private:
  // A frame kept for retransmission: the clean framed bytes of logical
  // message `seq` on one directed channel.
  struct ResendEntry {
    uint64_t seq = 0;
    Bytes frame;
  };

  // Common prologue of Send/Recv: fires party faults (crash/stall) from
  // the installed FaultPlan and fails fast once the mesh has aborted.
  Status BeginOp();
  // Drains pending NACKs from every peer and retransmits the requested
  // frames. Called from Send and from each Recv slice.
  Status ServiceControl();
  Status HandleNack(int peer, uint64_t seq);
  void SendNack(int to, uint64_t seq);
  // Applies any scheduled message fault for (id -> to, seq) to the wire
  // copy `frame` and pushes the surviving copies. `retransmit` restricts
  // matching to fatal faults.
  Status PushWithFaults(int to, uint64_t seq, Bytes frame, bool retransmit);

  ChannelCarrier* carrier_;
  // Per-channel logical message indices and the party-local op counter
  // that fault schedules key on, the per-peer bounded resend window
  // (clean frames, ascending seq) and the receiver-side reorder stash
  // (payloads arrived ahead of the expected sequence number). Plain
  // members: touched only by the owning party thread.
  std::vector<uint64_t> send_seq_;
  std::vector<uint64_t> recv_seq_;
  std::vector<std::deque<ResendEntry>> resend_;
  std::vector<std::map<uint64_t, Bytes>> reorder_;
  uint64_t ops_ = 0;
  int64_t crashed_at_ = -1;
};

}  // namespace pivot

#endif  // PIVOT_NET_CHANNEL_H_
