#ifndef PIVOT_NET_FAULT_H_
#define PIVOT_NET_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pivot {

// Deterministic fault injection for the party mesh (both transports).
//
// A FaultPlan is a small list of scheduled faults, each keyed on a
// *logical* position — the Nth message sent on a directed channel, or the
// Nth network operation a party performs — so a plan reproduces the exact
// same failure regardless of thread interleaving. The federation runners
// (pivot/runner.h) install a plan on each attempt's network —
// InMemoryNetwork or SocketNetwork — before any party traffic, and the
// reliable endpoint consults it from Send/Recv; when no plan is
// installed the hot path costs one pointer null-check.
//
// The chaos test suite (tests/chaos_test.cc) derives plans from a 64-bit
// seed via FaultPlan::FromSeed and sweeps hundreds of seeds. Fatal-only
// schedules must terminate promptly with a clean error Status; transient
// schedules must be fully masked by the reliable channel layer (the run
// completes and the trained model bit-matches the fault-free run). To
// reproduce a failing schedule, re-run with the printed seed.
//
// ## Schedule grammar
//
// A plan serializes (FaultPlan::ToString) to `fault *("; " fault)` where
//
//   fault := kind " party=" P [" peer=" Q] (" nth=" N | " op=" N)
//            [" delay_ms=" D] [" bit=" B] " class=" ("transient"|"fatal")
//
//   kind       one of drop | delay | duplicate | truncate | corrupt |
//              sever | mute (message/connection faults, keyed `nth=` on
//              the directed channel party->peer, peer=-1 meaning any
//              receiver) or crash | stall (party faults, keyed `op=` on
//              the party's network-operation counter; crash is sticky
//              from op on).
//   class      transient faults model recoverable conditions: the
//              reliable channel masks message-level ones (retransmit /
//              duplicate-suppress / checksum+NACK) and checkpoint/resume
//              masks a transient crash. fatal faults persist: they are
//              re-applied to every retransmission (and a fatal crash
//              re-fires after restart), so they exhaust the retry budget
//              and surface as an abort.
//
// Classification per kind:
//   drop / truncate / corrupt  transient or fatal (fatal => re-applied
//                              to retransmissions until budget runs out)
//   delay / stall              transient uses a short delay (1..20 ms);
//                              fatal uses `fatal_ms`, chosen above the
//                              recv timeout so it behaves like a hang
//   duplicate                  always transient — duplicate suppression
//                              masks it unconditionally
//   crash                      transient => masked by checkpoint/resume
//                              (RunnerConfig::max_restarts); fatal
//                              => permanent party loss, aborts the run
//   sever / mute               connection faults, socket transport only
//                              (the in-memory mesh has no connections to
//                              cut, so it treats them as no-ops). sever
//                              closes the TCP/Unix connection at the nth
//                              outbound frame: transient => the
//                              supervisor reconnects and NACK recovery
//                              resumes the channel; fatal => reconnects
//                              are refused until the retry budget is
//                              exhausted and the run aborts. mute
//                              suppresses all outbound traffic
//                              (heartbeats included) for delay_ms,
//                              modelling a hung connection: the peer's
//                              supervisor detects the missed heartbeats
//                              and severs/reconnects.

enum class FaultKind {
  kDrop,       // message silently not delivered
  kDelay,      // message delivery delayed by delay_ms (abort-interruptible)
  kDuplicate,  // message delivered twice
  kTruncate,   // message body cut to half its length
  kCorrupt,    // one bit of the message body flipped
  kCrash,      // party's network ops all fail from the trigger point on
  kStall,      // party sleeps delay_ms at the trigger point (interruptible)
  kSever,      // sockets only: connection closed at the nth outbound frame
  kMute,       // sockets only: outbound (incl. heartbeats) suppressed
               // for delay_ms — models a hung connection
};

const char* FaultKindName(FaultKind kind);

// Which fault classes FromSeed may draw. kCrashRecovery produces exactly
// one transient crash (plus up to two transient message faults) so the
// checkpoint/resume path is exercised in isolation.
enum class FaultMix {
  kAny,            // transient and fatal mixed at random
  kTransientOnly,  // every fault maskable; run must complete + bit-match
  kFatalOnly,      // every fault unmaskable; run must abort cleanly
  kCrashRecovery,  // one transient crash + 0-2 transient message faults
};

struct FaultAction {
  FaultKind kind = FaultKind::kDrop;
  int party = 0;       // sender (message faults) or the faulting party
  int peer = -1;       // receiver for message faults; -1 = any receiver
  uint64_t nth = 0;    // message index on the channel, or party op index
  int delay_ms = 0;    // kDelay / kStall
  uint64_t bit = 0;    // kCorrupt: bit index (mod message bit-length)
  // Fatal faults persist across recovery attempts: they are re-applied to
  // retransmitted frames and (for kCrash) re-fire after a party restart.
  // Transient faults hit the original transmission only. Declared last so
  // pre-existing brace-initializers keep their meaning.
  bool fatal = false;

  bool is_message_fault() const {
    return kind != FaultKind::kCrash && kind != FaultKind::kStall;
  }
  std::string ToString() const;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  void Add(FaultAction action) { actions_.push_back(action); }
  bool empty() const { return actions_.empty(); }
  const std::vector<FaultAction>& actions() const { return actions_; }

  // Index of a message fault matching the nth message from->to, or -1.
  // With `retransmit` set the lookup is for a retransmitted frame: only
  // fatal faults match, so a transient fault hits the first transmission
  // and the retransmission goes through clean.
  int MatchMessage(int from, int to, uint64_t nth,
                   bool retransmit = false) const;
  // Index of a party fault (crash/stall) matching party's op-th network
  // operation, or -1. Crash matches at and after its trigger op.
  int MatchParty(int party, uint64_t op) const;

  std::string ToString() const;

  // Plan for a recovery attempt after a party restart: keeps every fatal
  // action plus any transient action that has not yet fired (bit
  // `index & 63` of `fired_mask`, as reported by the network's
  // fired_fault_mask()). A transient crash that already
  // fired must not crash the restarted party again.
  FaultPlan WithoutFiredTransient(uint64_t fired_mask) const;

  // Derives a deterministic plan from a seed: one anchor fault at a low
  // index plus up to two extra message faults, with classes drawn per
  // `mix`. Fatal delays and stalls use `fatal_ms`, chosen by the caller
  // to exceed the network's recv timeout so a delayed message reliably
  // surfaces as a peer timeout instead of silently succeeding; transient
  // ones sleep 1..20 ms.
  static FaultPlan FromSeed(uint64_t seed, int num_parties, int fatal_ms,
                            uint64_t max_op = 40, uint64_t max_msg = 12,
                            FaultMix mix = FaultMix::kAny);

 private:
  std::vector<FaultAction> actions_;
};

}  // namespace pivot

#endif  // PIVOT_NET_FAULT_H_
