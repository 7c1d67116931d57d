#include "net/channel.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "net/wire.h"

namespace pivot {

namespace {

// Reads an integer environment variable. Three outcomes: unset (OK,
// *present = false), parsed (OK, *present = true, *out set), or malformed
// — which is an error, because a typo'd override silently falling back to
// the default is exactly the failure mode FromEnv exists to prevent.
Status EnvInt(const char* name, int* out, bool* present) {
  *present = false;
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return Status::Ok();
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    return Status::InvalidArgument(std::string(name) + "=\"" + v +
                                   "\" is not an integer");
  }
  *out = static_cast<int>(parsed);
  *present = true;
  return Status::Ok();
}

}  // namespace

Status NetConfig::Validate() const {
  const auto positive = [](const char* field, int value) -> Status {
    if (value <= 0) {
      return Status::InvalidArgument(
          std::string("NetConfig: ") + field + " must be positive, got " +
          std::to_string(value));
    }
    return Status::Ok();
  };
  PIVOT_RETURN_IF_ERROR(positive("recv_timeout_ms", recv_timeout_ms));
  PIVOT_RETURN_IF_ERROR(positive("retry_budget", retry_budget));
  PIVOT_RETURN_IF_ERROR(positive("backoff_base_ms", backoff_base_ms));
  PIVOT_RETURN_IF_ERROR(positive("backoff_max_ms", backoff_max_ms));
  PIVOT_RETURN_IF_ERROR(
      positive("resend_buffer_frames", resend_buffer_frames));
  if (backoff_max_ms < backoff_base_ms) {
    return Status::InvalidArgument(
        "NetConfig: backoff_max_ms (" + std::to_string(backoff_max_ms) +
        ") must be >= backoff_base_ms (" + std::to_string(backoff_base_ms) +
        ")");
  }
  return Status::Ok();
}

Result<NetConfig> NetConfig::FromEnv(NetConfig base) {
  bool present = false;
  PIVOT_RETURN_IF_ERROR(
      EnvInt("PIVOT_NET_RECV_TIMEOUT_MS", &base.recv_timeout_ms, &present));
  PIVOT_RETURN_IF_ERROR(
      EnvInt("PIVOT_NET_RETRY_BUDGET", &base.retry_budget, &present));
  PIVOT_RETURN_IF_ERROR(
      EnvInt("PIVOT_NET_BACKOFF_BASE_MS", &base.backoff_base_ms, &present));
  PIVOT_RETURN_IF_ERROR(
      EnvInt("PIVOT_NET_BACKOFF_MAX_MS", &base.backoff_max_ms, &present));
  PIVOT_RETURN_IF_ERROR(
      EnvInt("PIVOT_NET_RESEND_FRAMES", &base.resend_buffer_frames, &present));
  PIVOT_RETURN_IF_ERROR(base.Validate());
  return base;
}

Result<NetConfig> NetConfig::FromEnv() { return FromEnv(NetConfig()); }

void MessageQueue::Push(Bytes msg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_one();
}

Result<Bytes> MessageQueue::Pop(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [this] { return poisoned_ || !queue_.empty(); })) {
    return Status::ProtocolError("receive timed out");
  }
  // Poison wins over queued data: once the mesh is aborting, stale
  // messages must not be consumed as progress.
  if (poisoned_) return poison_status_;
  Bytes msg = std::move(queue_.front());
  queue_.pop_front();
  return msg;
}

bool MessageQueue::TryPop(Bytes* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_ || queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void MessageQueue::Poison(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_ = true;
    poison_status_ = status;
  }
  cv_.notify_all();
}

size_t MessageQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

// ----- ChannelCarrier --------------------------------------------------

Status ChannelCarrier::abort_status() const {
  std::lock_guard<std::mutex> lock(abort_mu_);
  return abort_status_;
}

bool ChannelCarrier::RecordAbort(const Status& recorded) {
  {
    std::lock_guard<std::mutex> lock(abort_mu_);
    if (aborted_.load(std::memory_order_relaxed)) return false;
    abort_status_ = recorded;
    aborted_.store(true, std::memory_order_release);
  }
  abort_cv_.notify_all();
  return true;
}

bool ChannelCarrier::WaitForAbortMs(int ms) {
  std::unique_lock<std::mutex> lock(abort_mu_);
  return abort_cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] {
    return aborted_.load(std::memory_order_relaxed);
  });
}

void ChannelCarrier::set_fault_plan(FaultPlan plan) {
  if (plan.empty()) {
    fault_plan_.reset();
  } else {
    fault_plan_ = std::make_unique<FaultPlan>(std::move(plan));
  }
}

// ----- ReliableEndpoint ------------------------------------------------

ReliableEndpoint::ReliableEndpoint(ChannelCarrier* carrier, int id,
                                   int num_parties)
    : Endpoint(id, num_parties),
      carrier_(carrier),
      send_seq_(num_parties, 0),
      recv_seq_(num_parties, 0),
      resend_(num_parties),
      reorder_(num_parties) {}

Status ReliableEndpoint::BeginOp() {
  const FaultPlan* plan = carrier_->fault_plan();
  if (plan != nullptr) {
    const int idx = plan->MatchParty(id(), ops_++);
    if (idx >= 0) {
      const FaultAction& a = plan->actions()[idx];
      carrier_->MarkFaultFired(idx);
      if (a.kind == FaultKind::kCrash) {
        // Sticky: every network op at or after the trigger fails.
        if (crashed_at_ < 0) crashed_at_ = static_cast<int64_t>(a.nth);
        return Status::ProtocolError(
            "injected fault: party " + std::to_string(id()) +
            " crashed at network op " + std::to_string(crashed_at_));
      }
      // kStall: sleep, but wake immediately if the mesh aborts meanwhile.
      if (a.kind == FaultKind::kStall || a.kind == FaultKind::kDelay) {
        if (carrier_->WaitForAbortMs(a.delay_ms)) {
          return carrier_->abort_status();
        }
      }
    }
  }
  if (carrier_->aborted()) return carrier_->abort_status();
  return Status::Ok();
}

Status ReliableEndpoint::Send(int to, Bytes msg) {
  PIVOT_CHECK_MSG(to != id(), "self-send");
  PIVOT_CHECK(to >= 0 && to < num_parties());
  NoteSendPhase();
  PIVOT_RETURN_IF_ERROR(BeginOp());
  // Serve pending retransmission requests before advancing: a peer
  // blocked on an earlier frame must not starve behind new traffic.
  PIVOT_RETURN_IF_ERROR(ServiceControl());
  const uint64_t seq = send_seq_[to]++;
  const size_t payload_size = msg.size();
  Bytes frame = BuildSeqFrame(seq, msg);
  carrier_->DelaySend(payload_size);
  // Counters track logical payloads only: retransmissions, frame headers
  // and heartbeats are transport overhead, not protocol communication
  // cost.
  CountSend(payload_size);
  // Keep the clean frame for retransmission before faults touch the wire
  // copy; the window is bounded, oldest frame evicted first.
  auto& window = resend_[to];
  window.push_back(ResendEntry{seq, frame});
  if (static_cast<int>(window.size()) >
      carrier_->config().resend_buffer_frames) {
    window.pop_front();
  }
  return PushWithFaults(to, seq, std::move(frame), /*retransmit=*/false);
}

Status ReliableEndpoint::PushWithFaults(int to, uint64_t seq, Bytes frame,
                                        bool retransmit) {
  int copies = 1;
  if (const FaultPlan* plan = carrier_->fault_plan()) {
    const int idx = plan->MatchMessage(id(), to, seq, retransmit);
    if (idx >= 0) {
      const FaultAction& a = plan->actions()[idx];
      carrier_->MarkFaultFired(idx);
      switch (a.kind) {
        case FaultKind::kDrop:
          copies = 0;
          break;
        case FaultKind::kDelay:
          if (carrier_->WaitForAbortMs(a.delay_ms)) {
            return carrier_->abort_status();
          }
          break;
        case FaultKind::kDuplicate:
          copies = 2;
          break;
        case FaultKind::kTruncate:
          frame.resize(frame.size() / 2);
          break;
        case FaultKind::kCorrupt:
          if (!frame.empty()) {
            const uint64_t bit = a.bit % (frame.size() * 8);
            frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
          }
          break;
        case FaultKind::kCrash:
        case FaultKind::kStall:
          break;  // party faults are handled in BeginOp
        case FaultKind::kSever:
        case FaultKind::kMute:
          carrier_->ApplyLinkFault(to, a);
          break;
      }
    }
  }
  for (int c = 0; c < copies; ++c) {
    carrier_->PushData(id(), to, c + 1 < copies ? frame : std::move(frame));
  }
  return Status::Ok();
}

Status ReliableEndpoint::ServiceControl() {
  if (carrier_->aborted()) return carrier_->abort_status();
  Bytes body;
  for (int p = 0; p < num_parties(); ++p) {
    if (p == id()) continue;
    while (carrier_->InboundNacks(p, id()).TryPop(&body)) {
      Result<uint64_t> seq = DecodeNackBody(body);
      if (seq.ok()) {
        PIVOT_RETURN_IF_ERROR(HandleNack(p, seq.value()));
      }
      // Undecodable control bodies are ignored (forward compatibility).
    }
  }
  return Status::Ok();
}

Status ReliableEndpoint::HandleNack(int peer, uint64_t seq) {
  // A probe for a frame this party has not produced yet: the peer is
  // ahead of us, not missing data. Nothing to do.
  if (seq >= send_seq_[peer]) return Status::Ok();
  for (const ResendEntry& e : resend_[peer]) {
    if (e.seq == seq) {
      CountRetransmit();
      return PushWithFaults(peer, seq, e.frame, /*retransmit=*/true);
    }
  }
  // The frame was sent but has aged out of the bounded window: the loss
  // is unrecoverable, so fail loudly instead of letting the peer starve.
  return Status::ProtocolError(
      "reliable channel: party " + std::to_string(id()) +
      " cannot retransmit frame " + std::to_string(seq) + " to party " +
      std::to_string(peer) + ": evicted from resend buffer (capacity " +
      std::to_string(carrier_->config().resend_buffer_frames) + ")");
}

void ReliableEndpoint::SendNack(int to, uint64_t seq) {
  carrier_->PushNack(id(), to, EncodeNackBody(seq));
  CountNack();
}

Result<Bytes> ReliableEndpoint::Recv(int from) {
  PIVOT_CHECK_MSG(from != id(), "self-receive");
  PIVOT_CHECK(from >= 0 && from < num_parties());
  NoteRecvPhase();
  PIVOT_RETURN_IF_ERROR(BeginOp());
  const NetConfig& cfg = carrier_->config();
  MessageQueue& q = carrier_->InboundData(from, id());
  const auto start = std::chrono::steady_clock::now();
  const uint64_t expected = recv_seq_[from];
  auto& stash = reorder_[from];
  const auto deliver = [&](Bytes payload) -> Result<Bytes> {
    ++recv_seq_[from];
    CountRecv(payload.size());
    return payload;
  };
  // A retransmission triggered by an earlier gap may already be waiting.
  {
    const auto it = stash.find(expected);
    if (it != stash.end()) {
      Bytes payload = std::move(it->second);
      stash.erase(it);
      return deliver(std::move(payload));
    }
  }
  // Recovery loop, bounded two ways: evidence-backed NACKs (a damaged
  // frame or a sequence gap) draw on cfg.retry_budget, and the overall
  // cfg.recv_timeout_ms deadline covers a silent peer. Probe NACKs sent
  // on silent slices are free — silence usually means the sender is
  // still computing (or a socket link is mid-reconnect), and charging
  // for it would abort healthy slow runs.
  int evidence = 0;
  int backoff_ms = cfg.backoff_base_ms;
  const auto note_loss = [&]() -> Status {
    if (++evidence > cfg.retry_budget) {
      return Status::ProtocolError(
          "retry budget exhausted receiving from party " +
          std::to_string(from) + " at party " + std::to_string(id()) + ": " +
          std::to_string(evidence) +
          " loss events (damaged or missing frames) exceeded the budget of " +
          std::to_string(cfg.retry_budget) + " retransmission attempts");
    }
    SendNack(from, expected);
    return Status::Ok();
  };
  for (;;) {
    PIVOT_RETURN_IF_ERROR(ServiceControl());
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed_ms >= cfg.recv_timeout_ms) {
      // The carrier's peer description turns "timed out" into a
      // diagnosis: on sockets, a connected-but-silent peer is deadlocked
      // or slow, a down peer with exhausted dials is gone.
      return Status::ProtocolError(
          "receive from party " + std::to_string(from) +
          " timed out at party " + std::to_string(id()) + " after " +
          std::to_string(elapsed_ms) + " ms (" +
          std::to_string(recv_seq_[from]) +
          " messages previously received on this channel, queue depth " +
          std::to_string(q.depth()) + "; " + carrier_->DiagnosePeer(from) +
          ")");
    }
    const int slice = static_cast<int>(
        std::min<int64_t>(backoff_ms, cfg.recv_timeout_ms - elapsed_ms));
    Result<Bytes> r = q.Pop(slice > 0 ? slice : 1);
    if (!r.ok()) {
      if (r.status().code() == StatusCode::kAborted) return r.status();
      // Silent slice: probe for the expected frame (covers a dropped
      // frame with no follow-up traffic) and back off deterministically.
      SendNack(from, expected);
      backoff_ms = std::min(backoff_ms * 2, cfg.backoff_max_ms);
      continue;
    }
    backoff_ms = cfg.backoff_base_ms;  // channel is live again
    uint64_t seq = 0;
    Bytes payload;
    if (!ParseSeqFrame(r.value(), &seq, &payload)) {
      // Corrupted or truncated frame; its header cannot be trusted, so
      // re-request the expected frame.
      CountCorruptFrame();
      PIVOT_RETURN_IF_ERROR(note_loss());
      continue;
    }
    if (seq < expected) {
      // Duplicate of an already-delivered frame (duplicate fault or a
      // redundant retransmission).
      CountDuplicate();
      continue;
    }
    if (seq > expected) {
      // Future frame: the expected one was lost in transit. Stash it and
      // request the gap.
      if (!stash.emplace(seq, std::move(payload)).second) {
        CountDuplicate();
        continue;
      }
      PIVOT_RETURN_IF_ERROR(note_loss());
      continue;
    }
    return deliver(std::move(payload));
  }
}

}  // namespace pivot
