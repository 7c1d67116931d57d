#include "net/network.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"

namespace pivot {

void NetworkStats::Add(const Endpoint& e) {
  bytes_sent += e.bytes_sent();
  bytes_received += e.bytes_received();
  messages_sent += e.messages_sent();
  messages_received += e.messages_received();
  rounds = std::max(rounds, e.Rounds());
  retransmits += e.retransmits();
  duplicates_suppressed += e.duplicates_suppressed();
  corrupt_frames += e.corrupt_frames();
  nacks_sent += e.nacks_sent();
}

void NetworkStats::Add(const NetworkStats& s) {
  bytes_sent += s.bytes_sent;
  bytes_received += s.bytes_received;
  messages_sent += s.messages_sent;
  messages_received += s.messages_received;
  rounds += s.rounds;
  retransmits += s.retransmits;
  duplicates_suppressed += s.duplicates_suppressed;
  corrupt_frames += s.corrupt_frames;
  nacks_sent += s.nacks_sent;
  reconnects += s.reconnects;
  heartbeats += s.heartbeats;
}

InMemoryNetwork::InMemoryNetwork(int num_parties, NetConfig config,
                                 NetworkSim sim)
    : ChannelCarrier(config), num_parties_(num_parties), sim_(sim) {
  PIVOT_CHECK_MSG(num_parties >= 1, "network needs at least one party");
  const int n = num_parties * num_parties;
  queues_.reserve(n);
  ctrl_queues_.reserve(n);
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<MessageQueue>());
    ctrl_queues_.push_back(std::make_unique<MessageQueue>());
  }
  endpoints_.reserve(num_parties);
  for (int i = 0; i < num_parties; ++i) {
    endpoints_.push_back(
        std::make_unique<ReliableEndpoint>(this, i, num_parties));
  }
}

InMemoryNetwork::InMemoryNetwork(int num_parties, int recv_timeout_ms,
                                 NetworkSim sim)
    : InMemoryNetwork(
          num_parties,
          [recv_timeout_ms] {
            NetConfig c;
            c.recv_timeout_ms = recv_timeout_ms;
            return c;
          }(),
          sim) {}

ReliableEndpoint& InMemoryNetwork::endpoint(int i) {
  PIVOT_CHECK(i >= 0 && i < num_parties_);
  return *endpoints_[i];
}

void InMemoryNetwork::Abort(Status cause, int origin_party) {
  const Status recorded = Status::Aborted(
      "protocol aborted by party " + std::to_string(origin_party) + ": " +
      cause.ToString());
  if (!RecordAbort(recorded)) return;
  for (auto& q : queues_) q->Poison(recorded);
  for (auto& q : ctrl_queues_) q->Poison(recorded);
}

NetworkStats InMemoryNetwork::stats() const {
  NetworkStats s;
  for (const auto& e : endpoints_) s.Add(*e);
  return s;
}

void InMemoryNetwork::DelaySend(size_t payload_bytes) {
  if (!sim_.enabled()) return;
  // Per-message latency + serialization time.
  double micros = sim_.latency_us;
  if (sim_.bandwidth_gbps > 0) {
    micros += static_cast<double>(payload_bytes) * 8.0 /
              (sim_.bandwidth_gbps * 1e3);
  }
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(micros)));
}

Status RootCauseStatus(const std::vector<Status>& statuses) {
  const auto prefixed = [&](size_t i) {
    return Status(statuses[i].code(), "party " + std::to_string(i) + ": " +
                                          statuses[i].message());
  };
  // Prefer the root cause over abort echoes.
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok() && statuses[i].code() != StatusCode::kAborted) {
      return prefixed(i);
    }
  }
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok()) return prefixed(i);
  }
  return Status::Ok();
}

Status RunParties(InMemoryNetwork& net,
                  const std::function<Status(int, Endpoint&)>& body) {
  const int m = net.num_parties();
  std::vector<Status> statuses(m);
  std::vector<std::thread> threads;
  threads.reserve(m);
  for (int i = 0; i < m; ++i) {
    threads.emplace_back([&, i] {
      Status st = body(i, net.endpoint(i));
      // Abort the mesh before this thread exits so peers blocked in Recv
      // wake immediately instead of waiting out the recv timeout. Abort
      // echoes (kAborted) are not re-propagated: they are effects, not
      // causes.
      if (!st.ok() && st.code() != StatusCode::kAborted) net.Abort(st, i);
      statuses[i] = std::move(st);
    });
  }
  for (std::thread& t : threads) t.join();
  return RootCauseStatus(statuses);
}

}  // namespace pivot
