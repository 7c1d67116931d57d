#include "net/network.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "net/codec.h"
#include "net/fault.h"
#include "net/socket.h"
#include "net/wire.h"

namespace pivot {
namespace {

// Reliable channels with a fast backoff so recovery tests finish quickly.
NetConfig FastReliableConfig(int timeout_ms) {
  NetConfig c;
  c.recv_timeout_ms = timeout_ms;
  c.backoff_base_ms = 2;
  c.backoff_max_ms = 20;
  return c;
}

// The two carriers of the reliable-channel core: the in-memory mesh under
// RunParties, and loopback TCP sockets under RunLoopbackParties. The
// ReliableChannelTest cases run one body, one FaultPlan and one set of
// assertions on each.
enum class Carrier { kInMemory, kLoopback };
constexpr Carrier kCarriers[] = {Carrier::kInMemory, Carrier::kLoopback};

const char* CarrierName(Carrier carrier) {
  return carrier == Carrier::kInMemory ? "in-memory" : "loopback sockets";
}

struct CarrierRun {
  Status status;
  NetworkStats stats;
};

// Runs `body` on two parties over `carrier` with `plan` installed on
// every party.
CarrierRun RunOnCarrier(Carrier carrier, const NetConfig& cfg,
                        const FaultPlan& plan,
                        const std::function<Status(int, Endpoint&)>& body) {
  constexpr int kParties = 2;
  CarrierRun run;
  if (carrier == Carrier::kInMemory) {
    InMemoryNetwork net(kParties, cfg);
    net.set_fault_plan(plan);
    run.status = RunParties(net, body);
    run.stats = net.stats();
  } else {
    SocketOptions options;
    options.net = cfg;
    run.status = RunLoopbackParties(kParties, options, body, &run.stats,
                                    std::vector<FaultPlan>(kParties, plan));
  }
  return run;
}

TEST(NetworkTest, PointToPoint) {
  InMemoryNetwork net(2);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 0) {
      PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes{1, 2, 3}));
      PIVOT_ASSIGN_OR_RETURN(Bytes reply, ep.Recv(1));
      if (reply != Bytes{9}) return Status::Internal("bad reply");
    } else {
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
      if (msg != (Bytes{1, 2, 3})) return Status::Internal("bad msg");
      PIVOT_RETURN_IF_ERROR(ep.Send(0, Bytes{9}));
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(NetworkTest, FifoOrderPreserved) {
  InMemoryNetwork net(2);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 0) {
      for (uint8_t i = 0; i < 10; ++i) {
        PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes{i}));
      }
    } else {
      for (uint8_t i = 0; i < 10; ++i) {
        PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
        if (msg[0] != i) return Status::Internal("order broken");
      }
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(NetworkTest, BroadcastAndGather) {
  InMemoryNetwork net(4);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    PIVOT_RETURN_IF_ERROR(ep.Broadcast(Bytes{static_cast<uint8_t>(id)}));
    Bytes own{static_cast<uint8_t>(id)};
    // Drain the broadcasts via explicit receives.
    for (int p = 0; p < 4; ++p) {
      if (p == id) continue;
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(p));
      if (msg[0] != p) return Status::Internal("wrong broadcast sender");
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(NetworkTest, GatherAllCollectsInOrder) {
  InMemoryNetwork net(3);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    PIVOT_RETURN_IF_ERROR(
        ep.Broadcast(Bytes{static_cast<uint8_t>(10 + id)}));
    PIVOT_ASSIGN_OR_RETURN(std::vector<Bytes> all,
                           ep.GatherAll(Bytes{static_cast<uint8_t>(10 + id)}));
    for (int p = 0; p < 3; ++p) {
      if (all[p][0] != 10 + p) return Status::Internal("gather order");
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(NetworkTest, RecvTimesOutInsteadOfHanging) {
  InMemoryNetwork net(2, /*recv_timeout_ms=*/50);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 0) {
      Result<Bytes> r = ep.Recv(1);  // never sent
      if (r.ok()) return Status::Internal("expected timeout");
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(NetworkTest, TrafficCounters) {
  InMemoryNetwork net(2);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 0) {
      PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes(100, 0)));
      if (ep.bytes_sent() != 100) return Status::Internal("bytes_sent");
      if (ep.messages_sent() != 1) return Status::Internal("messages_sent");
    } else {
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
      (void)msg;
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(net.total_bytes(), 100u);
}

TEST(NetworkTest, PartyErrorPropagatesWithId) {
  InMemoryNetwork net(2, 50);
  Status st = RunParties(net, [](int id, Endpoint&) -> Status {
    return id == 1 ? Status::Internal("boom") : Status::Ok();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("party 1"), std::string::npos);
}

TEST(NetworkTest, TimeoutErrorNamesChannel) {
  InMemoryNetwork net(2, /*recv_timeout_ms=*/50);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id != 0) return Status::Ok();
    Result<Bytes> r = ep.Recv(1);  // never sent
    if (r.ok()) return Status::Internal("expected timeout");
    return r.status();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("from party 1"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("at party 0"), std::string::npos);
  EXPECT_NE(st.message().find("queue depth"), std::string::npos);
}

TEST(NetworkTest, RecvCountersAndRounds) {
  InMemoryNetwork net(2);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 0) {
      PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes(100, 0)));
      PIVOT_ASSIGN_OR_RETURN(Bytes reply, ep.Recv(1));
      if (reply.size() != 50) return Status::Internal("reply size");
      if (ep.bytes_received() != 50) return Status::Internal("bytes_received");
      if (ep.messages_received() != 1) {
        return Status::Internal("messages_received");
      }
      if (ep.Rounds() != 1) return Status::Internal("rounds");
    } else {
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
      if (msg.size() != 100) return Status::Internal("msg size");
      PIVOT_RETURN_IF_ERROR(ep.Send(0, Bytes(50, 0)));
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.bytes_sent, 150u);
  EXPECT_EQ(stats.bytes_received, 150u);
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_EQ(stats.messages_received, 2u);
  EXPECT_EQ(stats.rounds, 1u);
}

// Regression for the abort path (security-with-abort): when one of m
// parties fails, every peer — including one blocked inside GatherAll —
// must return non-OK well under a second, not after the recv timeout.
TEST(NetworkTest, AbortWakesBlockedPeersQuickly) {
  InMemoryNetwork net(3, /*recv_timeout_ms=*/30'000);
  std::mutex mu;
  std::vector<Status> per_party(3);
  const auto start = std::chrono::steady_clock::now();
  Status st = RunParties(net, [&](int id, Endpoint& ep) -> Status {
    Status out;
    if (id == 0) {
      Result<Bytes> r = ep.Recv(1);  // blocks until the abort lands
      out = r.ok() ? Status::Internal("unexpected message") : r.status();
    } else if (id == 1) {
      Result<std::vector<Bytes>> r = ep.GatherAll(Bytes{1});
      out = r.ok() ? Status::Internal("unexpected gather") : r.status();
    } else {
      out = Status::Internal("kaboom");
    }
    std::lock_guard<std::mutex> lock(mu);
    per_party[id] = out;
    return out;
  });
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 1000.0);
  EXPECT_FALSE(st.ok());
  // Root cause preferred over abort echoes, prefixed with the party id.
  EXPECT_NE(st.message().find("party 2"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("kaboom"), std::string::npos);
  for (int p : {0, 1}) {
    EXPECT_EQ(per_party[p].code(), StatusCode::kAborted) << p;
    EXPECT_NE(per_party[p].message().find("party 2"), std::string::npos) << p;
  }
}

TEST(NetworkTest, SendFailsAfterAbort) {
  InMemoryNetwork net(2, /*recv_timeout_ms=*/30'000);
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 1) return Status::Internal("early exit");
    // A send-only loop must also terminate once the mesh aborts.
    for (int i = 0; i < 20'000; ++i) {
      Status s = ep.Send(1, Bytes{0});
      if (!s.ok()) return s;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return Status::Internal("send never failed");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.message().find("early exit"), std::string::npos);
}

TEST(FaultPlanTest, DeterministicFromSeed) {
  const FaultPlan a = FaultPlan::FromSeed(42, 3, 100);
  const FaultPlan b = FaultPlan::FromSeed(42, 3, 100);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString(), FaultPlan::FromSeed(43, 3, 100).ToString());
}

// A fatal drop also eats every retransmission: the receiver's probes go
// unanswered and its Recv fails with the channel-naming timeout.
TEST(FaultPlanTest, DropCausesRecvTimeout) {
  InMemoryNetwork net(2, FastReliableConfig(/*timeout_ms=*/50));
  FaultPlan plan;
  FaultAction drop;
  drop.kind = FaultKind::kDrop;
  drop.party = 0;
  drop.peer = 1;
  drop.nth = 0;
  drop.fatal = true;
  plan.Add(drop);
  net.set_fault_plan(std::move(plan));
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 0) return ep.Send(1, Bytes{7});
    Result<Bytes> r = ep.Recv(0);
    if (r.ok()) return Status::Internal("dropped message was delivered");
    return r.status();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("timed out"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(net.fired_fault_mask(), 1u);
}

// The duplicate fault puts the frame on the wire twice; the channel
// delivers the payload once and suppresses the second copy.
TEST(FaultPlanTest, DuplicateDeliversTwice) {
  InMemoryNetwork net(2, FastReliableConfig(/*timeout_ms=*/5'000));
  FaultPlan plan;
  plan.Add({FaultKind::kDuplicate, 0, 1, 0, 0, 0});
  net.set_fault_plan(std::move(plan));
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 0) {
      PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes{7}));
      return ep.Send(1, Bytes{8});
    }
    PIVOT_ASSIGN_OR_RETURN(Bytes first, ep.Recv(0));
    PIVOT_ASSIGN_OR_RETURN(Bytes second, ep.Recv(0));
    if (first != Bytes{7} || second != Bytes{8}) {
      return Status::Internal("duplicate delivered to the protocol");
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(net.fired_fault_mask(), 1u);
  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(stats.messages_received, 2u);
}

TEST(FaultPlanTest, CrashAbortsPeersWithPartyName) {
  InMemoryNetwork net(2, /*recv_timeout_ms=*/30'000);
  FaultPlan plan;
  plan.Add({FaultKind::kCrash, /*party=*/1, -1, /*nth=*/0, 0, 0});
  net.set_fault_plan(std::move(plan));
  const auto start = std::chrono::steady_clock::now();
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 1) return ep.Send(0, Bytes{1});  // fails: crashed at op 0
    Result<Bytes> r = ep.Recv(1);
    return r.ok() ? Status::Internal("expected abort") : r.status();
  });
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 1000.0);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("party 1"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("crashed"), std::string::npos);
}

// The truncate fault shortens the wire frame; the length check rejects
// it and the retransmission delivers the payload intact.
TEST(FaultPlanTest, TruncateShortensMessage) {
  InMemoryNetwork net(2, FastReliableConfig(/*timeout_ms=*/5'000));
  FaultPlan plan;
  plan.Add({FaultKind::kTruncate, 0, 1, 0, 0, 0});
  net.set_fault_plan(std::move(plan));
  Status st = RunParties(net, [](int id, Endpoint& ep) -> Status {
    if (id == 0) {
      PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes(10, 3)));
      // Stay alive in Recv so the NACK from party 1 gets serviced.
      PIVOT_ASSIGN_OR_RETURN(Bytes ack, ep.Recv(1));
      (void)ack;
      return Status::Ok();
    }
    PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
    if (msg != Bytes(10, 3)) return Status::Internal("payload damaged");
    return ep.Send(0, Bytes{1});
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(net.fired_fault_mask(), 1u);
  const NetworkStats stats = net.stats();
  EXPECT_GE(stats.corrupt_frames, 1u);
  EXPECT_GE(stats.retransmits, 1u);
}

// ----- Reliable channel layer -----------------------------------------

// A transiently dropped frame is recovered via probe NACK + retransmit:
// the receiver's Recv returns the intact payload and the run completes.
TEST(ReliableChannelTest, TransientDropMaskedByRetransmit) {
  FaultPlan plan;
  plan.Add({FaultKind::kDrop, /*party=*/0, /*peer=*/1, /*nth=*/0, 0, 0});
  for (Carrier carrier : kCarriers) {
    SCOPED_TRACE(CarrierName(carrier));
    const CarrierRun run = RunOnCarrier(
        carrier, FastReliableConfig(/*timeout_ms=*/10'000), plan,
        [](int id, Endpoint& ep) -> Status {
          if (id == 0) {
            PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes{42}));
            // Stay alive in Recv so the NACK from party 1 gets serviced.
            PIVOT_ASSIGN_OR_RETURN(Bytes ack, ep.Recv(1));
            if (ack != Bytes{1}) return Status::Internal("bad ack");
          } else {
            PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
            if (msg != Bytes{42}) return Status::Internal("bad payload");
            PIVOT_RETURN_IF_ERROR(ep.Send(0, Bytes{1}));
          }
          return Status::Ok();
        });
    EXPECT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_GE(run.stats.retransmits, 1u);
    EXPECT_GE(run.stats.nacks_sent, 1u);
    // Logical counters are unaffected by the recovery traffic.
    EXPECT_EQ(run.stats.messages_sent, 2u);
    EXPECT_EQ(run.stats.bytes_sent, 2u);
  }
}

// A duplicated frame is delivered once; the second copy is suppressed by
// the sequence check and a following message still arrives in order.
TEST(ReliableChannelTest, DuplicateSuppressed) {
  FaultPlan plan;
  plan.Add({FaultKind::kDuplicate, /*party=*/0, /*peer=*/1, /*nth=*/0, 0, 0});
  for (Carrier carrier : kCarriers) {
    SCOPED_TRACE(CarrierName(carrier));
    const CarrierRun run = RunOnCarrier(
        carrier, FastReliableConfig(/*timeout_ms=*/10'000), plan,
        [](int id, Endpoint& ep) -> Status {
          if (id == 0) {
            PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes{7}));
            PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes{8}));
          } else {
            PIVOT_ASSIGN_OR_RETURN(Bytes a, ep.Recv(0));
            PIVOT_ASSIGN_OR_RETURN(Bytes b, ep.Recv(0));
            if (a != Bytes{7} || b != Bytes{8}) {
              return Status::Internal("duplicate leaked into the stream");
            }
          }
          return Status::Ok();
        });
    EXPECT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_GE(run.stats.duplicates_suppressed, 1u);
  }
}

// A transiently corrupted frame fails its CRC; the receiver NACKs and the
// retransmission (not re-faulted) delivers the original bytes.
TEST(ReliableChannelTest, ChecksumMismatchTriggersRetransmit) {
  FaultPlan plan;
  plan.Add({FaultKind::kCorrupt, /*party=*/0, /*peer=*/1, /*nth=*/0, 0,
            /*bit=*/37});
  for (Carrier carrier : kCarriers) {
    SCOPED_TRACE(CarrierName(carrier));
    const CarrierRun run = RunOnCarrier(
        carrier, FastReliableConfig(/*timeout_ms=*/10'000), plan,
        [](int id, Endpoint& ep) -> Status {
          if (id == 0) {
            PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes(64, 0xAB)));
            PIVOT_ASSIGN_OR_RETURN(Bytes ack, ep.Recv(1));
            (void)ack;
          } else {
            PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
            if (msg != Bytes(64, 0xAB)) {
              return Status::Internal("payload damaged");
            }
            PIVOT_RETURN_IF_ERROR(ep.Send(0, Bytes{1}));
          }
          return Status::Ok();
        });
    EXPECT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_GE(run.stats.corrupt_frames, 1u);
    EXPECT_GE(run.stats.retransmits, 1u);
  }
}

// A NACK for a frame that has been evicted from the bounded resend buffer
// is unrecoverable: the sender fails with a ProtocolError naming the
// window, and the mesh aborts.
TEST(ReliableChannelTest, ResendBufferEvictionAborts) {
  NetConfig cfg = FastReliableConfig(/*timeout_ms=*/10'000);
  cfg.resend_buffer_frames = 2;
  FaultPlan plan;
  plan.Add({FaultKind::kDrop, /*party=*/0, /*peer=*/1, /*nth=*/0, 0, 0});
  for (Carrier carrier : kCarriers) {
    SCOPED_TRACE(CarrierName(carrier));
    const CarrierRun run = RunOnCarrier(
        carrier, cfg, plan, [](int id, Endpoint& ep) -> Status {
          if (id == 0) {
            // Push seq 0..7; the 2-frame window evicts the dropped seq 0
            // long before the receiver's NACK for it can arrive.
            for (int i = 0; i < 8; ++i) {
              PIVOT_RETURN_IF_ERROR(
                  ep.Send(1, Bytes{static_cast<uint8_t>(i)}));
            }
            Result<Bytes> r = ep.Recv(1);  // services the doomed NACK
            return r.ok() ? Status::Internal("expected eviction error")
                          : r.status();
          }
          // Give the sender time to overrun its resend window first.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          for (int i = 0; i < 8; ++i) {
            Result<Bytes> r = ep.Recv(0);
            if (!r.ok()) return r.status();
          }
          return Status::Internal("dropped frame was delivered");
        });
    EXPECT_FALSE(run.status.ok());
    EXPECT_NE(run.status.message().find("resend"), std::string::npos)
        << run.status.ToString();
  }
}

// A fatal corrupt fault damages every retransmission too; the receiver's
// evidence-backed retry budget runs out and the failure escalates through
// the abort path, reaching peers as kAborted.
TEST(ReliableChannelTest, RetryBudgetExhaustionEscalatesToAbort) {
  NetConfig cfg = FastReliableConfig(/*timeout_ms=*/30'000);
  cfg.retry_budget = 3;
  FaultPlan plan;
  FaultAction corrupt;
  corrupt.kind = FaultKind::kCorrupt;
  corrupt.party = 0;
  corrupt.peer = 1;
  corrupt.nth = 0;
  corrupt.bit = 11;
  corrupt.fatal = true;
  plan.Add(corrupt);
  for (Carrier carrier : kCarriers) {
    SCOPED_TRACE(CarrierName(carrier));
    std::mutex mu;
    std::vector<Status> per_party(2);
    const CarrierRun run = RunOnCarrier(
        carrier, cfg, plan, [&](int id, Endpoint& ep) -> Status {
          Status out;
          if (id == 0) {
            Status s = ep.Send(1, Bytes(32, 5));
            if (!s.ok()) {
              out = s;
            } else {
              Result<Bytes> r = ep.Recv(1);  // services NACKs until abort
              out = r.ok() ? Status::Internal("expected abort") : r.status();
            }
          } else {
            Result<Bytes> r = ep.Recv(0);
            out = r.ok() ? Status::Internal("expected budget exhaustion")
                         : r.status();
          }
          std::lock_guard<std::mutex> lock(mu);
          per_party[id] = out;
          return out;
        });
    EXPECT_FALSE(run.status.ok());
    EXPECT_NE(run.status.message().find("retry budget exhausted"),
              std::string::npos)
        << run.status.ToString();
    // The sender, blocked in Recv, is woken by the abort.
    EXPECT_EQ(per_party[0].code(), StatusCode::kAborted)
        << per_party[0].ToString();
    EXPECT_GE(run.stats.corrupt_frames, 3u);
  }
}

TEST(NetConfigTest, FromEnvOverridesFields) {
  setenv("PIVOT_NET_RECV_TIMEOUT_MS", "1234", 1);
  setenv("PIVOT_NET_RETRY_BUDGET", "5", 1);
  setenv("PIVOT_NET_BACKOFF_BASE_MS", "3", 1);
  setenv("PIVOT_NET_BACKOFF_MAX_MS", "77", 1);
  setenv("PIVOT_NET_RESEND_FRAMES", "9", 1);
  const Result<NetConfig> cfg_or = NetConfig::FromEnv();
  unsetenv("PIVOT_NET_RECV_TIMEOUT_MS");
  unsetenv("PIVOT_NET_RETRY_BUDGET");
  unsetenv("PIVOT_NET_BACKOFF_BASE_MS");
  unsetenv("PIVOT_NET_BACKOFF_MAX_MS");
  unsetenv("PIVOT_NET_RESEND_FRAMES");
  ASSERT_TRUE(cfg_or.ok()) << cfg_or.status().ToString();
  const NetConfig& cfg = cfg_or.value();
  EXPECT_EQ(cfg.recv_timeout_ms, 1234);
  EXPECT_EQ(cfg.retry_budget, 5);
  EXPECT_EQ(cfg.backoff_base_ms, 3);
  EXPECT_EQ(cfg.backoff_max_ms, 77);
  EXPECT_EQ(cfg.resend_buffer_frames, 9);
  // Unset variables leave the base untouched.
  const Result<NetConfig> plain = NetConfig::FromEnv();
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().recv_timeout_ms, NetConfig().recv_timeout_ms);
}

TEST(NetConfigTest, FromEnvRejectsUnparsableValues) {
  setenv("PIVOT_NET_RECV_TIMEOUT_MS", "12s", 1);
  const Result<NetConfig> cfg = NetConfig::FromEnv();
  unsetenv("PIVOT_NET_RECV_TIMEOUT_MS");
  ASSERT_FALSE(cfg.ok());
  EXPECT_EQ(cfg.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cfg.status().message().find("PIVOT_NET_RECV_TIMEOUT_MS"),
            std::string::npos)
      << cfg.status().ToString();
  EXPECT_NE(cfg.status().message().find("12s"), std::string::npos)
      << cfg.status().ToString();
}

TEST(NetConfigTest, FromEnvRejectsNonPositiveTimeoutsAndBudgets) {
  const auto reject = [](const char* name, const char* value,
                         const char* field) {
    setenv(name, value, 1);
    const Result<NetConfig> cfg = NetConfig::FromEnv();
    unsetenv(name);
    ASSERT_FALSE(cfg.ok()) << name << "=" << value;
    EXPECT_EQ(cfg.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cfg.status().message().find(field), std::string::npos)
        << cfg.status().ToString();
  };
  reject("PIVOT_NET_RECV_TIMEOUT_MS", "0", "recv_timeout_ms");
  reject("PIVOT_NET_RECV_TIMEOUT_MS", "-5", "recv_timeout_ms");
  reject("PIVOT_NET_RETRY_BUDGET", "-1", "retry_budget");
  reject("PIVOT_NET_BACKOFF_BASE_MS", "0", "backoff_base_ms");
  reject("PIVOT_NET_BACKOFF_MAX_MS", "-3", "backoff_max_ms");
  reject("PIVOT_NET_RESEND_FRAMES", "0", "resend_buffer_frames");
}

TEST(NetConfigTest, FromEnvRejectsBackoffMaxBelowBase) {
  setenv("PIVOT_NET_BACKOFF_BASE_MS", "100", 1);
  setenv("PIVOT_NET_BACKOFF_MAX_MS", "50", 1);
  const Result<NetConfig> cfg = NetConfig::FromEnv();
  unsetenv("PIVOT_NET_BACKOFF_BASE_MS");
  unsetenv("PIVOT_NET_BACKOFF_MAX_MS");
  ASSERT_FALSE(cfg.ok());
  EXPECT_EQ(cfg.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, TransientOnlyMixHasNoFatalActions) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = FaultPlan::FromSeed(
        seed, 3, /*fatal_ms=*/1000, 40, 12, FaultMix::kTransientOnly);
    for (const FaultAction& a : plan.actions()) {
      EXPECT_FALSE(a.fatal) << a.ToString();
      EXPECT_NE(a.kind, FaultKind::kCrash) << a.ToString();
    }
  }
}

TEST(FaultPlanTest, FatalOnlyMixIsAllFatalMessageFaults) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = FaultPlan::FromSeed(
        seed, 3, /*fatal_ms=*/1000, 40, 12, FaultMix::kFatalOnly);
    EXPECT_FALSE(plan.empty());
    for (const FaultAction& a : plan.actions()) {
      EXPECT_TRUE(a.fatal) << a.ToString();
      EXPECT_NE(a.kind, FaultKind::kDuplicate) << a.ToString();
    }
  }
}

TEST(FaultPlanTest, CrashRecoveryMixHasExactlyOneTransientCrash) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = FaultPlan::FromSeed(
        seed, 3, /*fatal_ms=*/1000, 40, 12, FaultMix::kCrashRecovery);
    int crashes = 0;
    for (const FaultAction& a : plan.actions()) {
      EXPECT_FALSE(a.fatal) << a.ToString();
      if (a.kind == FaultKind::kCrash) ++crashes;
    }
    EXPECT_EQ(crashes, 1) << plan.ToString();
  }
}

TEST(FaultPlanTest, WithoutFiredTransientKeepsFatalAndUnfired) {
  FaultPlan plan;
  FaultAction fatal_drop;
  fatal_drop.kind = FaultKind::kDrop;
  fatal_drop.fatal = true;
  plan.Add(fatal_drop);                                    // index 0
  plan.Add({FaultKind::kCorrupt, 0, 1, 2, 0, 0});          // index 1
  plan.Add({FaultKind::kDuplicate, 1, 0, 3, 0, 0});        // index 2
  const FaultPlan pruned = plan.WithoutFiredTransient(/*fired=*/0b010);
  ASSERT_EQ(pruned.actions().size(), 2u);
  EXPECT_TRUE(pruned.actions()[0].fatal);
  EXPECT_EQ(pruned.actions()[1].kind, FaultKind::kDuplicate);
}

TEST(CodecTest, BigIntVectorRoundTrip) {
  std::vector<BigInt> vals = {BigInt(0), BigInt(-123), BigInt(1) << 200};
  Bytes data = EncodeBigIntVector(vals);
  std::vector<BigInt> back = DecodeBigIntVector(data).value();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], vals[0]);
  EXPECT_EQ(back[1], vals[1]);
  EXPECT_EQ(back[2], vals[2]);
}

TEST(CodecTest, U128VectorRoundTrip) {
  std::vector<u128> vals = {0, 1, (static_cast<u128>(1) << 100) + 7};
  Bytes data = EncodeU128Vector(vals);
  std::vector<u128> back = DecodeU128Vector(data).value();
  ASSERT_EQ(back.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(back[i] == vals[i]);
}

TEST(CodecTest, CiphertextVectorRoundTrip) {
  std::vector<Ciphertext> cts = {Ciphertext{BigInt(5)},
                                 Ciphertext{BigInt(1) << 300}};
  Bytes data = EncodeCiphertextVector(cts);
  std::vector<Ciphertext> back = DecodeCiphertextVector(data).value();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].value, BigInt(5));
  EXPECT_EQ(back[1].value, BigInt(1) << 300);
}

// ----- socket stream framing (net/wire.h) ------------------------------
//
// The incremental reader must survive every split TCP can produce:
// partial writes on the sender side show up as short reads here, so a
// frame may arrive in any number of pieces, including one byte at a
// time, or glued to its neighbors in a single read.

TEST(StreamFramingTest, OneByteAtATimeReassembles) {
  const Bytes frame =
      EncodeStreamFrame(StreamFrameType::kData, Bytes{0xAA, 0xBB, 0xCC});
  StreamFrameReader reader(1 << 20);
  std::vector<StreamFrame> out;
  for (size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(reader.Feed(&frame[i], 1, &out).ok());
    if (i + 1 < frame.size()) {
      EXPECT_TRUE(out.empty()) << "frame completed " << (frame.size() - i - 1)
                               << " bytes early";
      // After the first byte the reader is always mid-frame.
      EXPECT_TRUE(reader.mid_frame());
    }
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, static_cast<uint8_t>(StreamFrameType::kData));
  EXPECT_EQ(out[0].body, (Bytes{0xAA, 0xBB, 0xCC}));
  EXPECT_FALSE(reader.mid_frame());
}

TEST(StreamFramingTest, CoalescedFramesSplitAtEveryOffset) {
  // Two frames in one buffer, cut at every possible position: both must
  // come out intact regardless of where the read boundary lands.
  Bytes wire = EncodeStreamFrame(StreamFrameType::kNack, EncodeNackBody(7));
  const Bytes second =
      EncodeStreamFrame(StreamFrameType::kHeartbeat, EncodeHeartbeatBody(3));
  wire.insert(wire.end(), second.begin(), second.end());
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    StreamFrameReader reader(1 << 20);
    std::vector<StreamFrame> out;
    ASSERT_TRUE(reader.Feed(wire.data(), cut, &out).ok());
    ASSERT_TRUE(reader.Feed(wire.data() + cut, wire.size() - cut, &out).ok());
    ASSERT_EQ(out.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(out[0].type, static_cast<uint8_t>(StreamFrameType::kNack));
    EXPECT_EQ(out[1].type, static_cast<uint8_t>(StreamFrameType::kHeartbeat));
    EXPECT_FALSE(reader.mid_frame());
  }
}

TEST(StreamFramingTest, MidFrameDropIsVisible) {
  // A connection that dies halfway through a frame leaves the reader
  // mid-frame; the receiver loop reports this in its drop diagnostics.
  const Bytes frame = EncodeStreamFrame(StreamFrameType::kData, Bytes(64, 9));
  StreamFrameReader reader(1 << 20);
  std::vector<StreamFrame> out;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size() / 2, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(reader.mid_frame());
}

TEST(StreamFramingTest, ZeroLengthPrefixRejected) {
  // Length counts the type byte, so zero cannot encode any frame.
  const uint8_t header[5] = {0, 0, 0, 0, 0};
  StreamFrameReader reader(1 << 20);
  std::vector<StreamFrame> out;
  Status st = reader.Feed(header, sizeof(header), &out);
  EXPECT_EQ(st.code(), StatusCode::kProtocolError) << st.ToString();
}

TEST(StreamFramingTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  // A corrupt or hostile length prefix must fail when the *header*
  // completes — no payload buffer may be sized from an untrusted length.
  // (If the reader tried to allocate first, this 4 GiB claim from five
  // bytes of input would be an OOM lever.)
  uint8_t header[5] = {0xFF, 0xFF, 0xFF, 0xFF, 1};
  StreamFrameReader reader(/*max_frame_bytes=*/1024);
  std::vector<StreamFrame> out;
  Status st = reader.Feed(header, sizeof(header), &out);
  ASSERT_EQ(st.code(), StatusCode::kProtocolError) << st.ToString();
  EXPECT_NE(st.ToString().find("length prefix"), std::string::npos);
}

TEST(StreamFramingTest, MaxSizedFrameAccepted) {
  // The limit is inclusive: a body of exactly max_frame_bytes parses.
  const Bytes body(1024, 0x5A);
  const Bytes frame = EncodeStreamFrame(StreamFrameType::kData, body);
  StreamFrameReader reader(/*max_frame_bytes=*/1024);
  std::vector<StreamFrame> out;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size(), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].body, body);
}

TEST(StreamFramingTest, EmptyBodyFrameCompletesOnHeader) {
  // Heartbeat-style frames with an empty body are legal: length 1 covers
  // just the type byte and the frame completes with no body bytes.
  const Bytes frame = EncodeStreamFrame(StreamFrameType::kAbort, Bytes{});
  StreamFrameReader reader(1 << 20);
  std::vector<StreamFrame> out;
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size(), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].body.empty());
  EXPECT_FALSE(reader.mid_frame());
}

TEST(CodecTest, MalformedInputRejected) {
  EXPECT_FALSE(DecodeBigIntVector(Bytes{1, 2}).ok());
  ByteWriter w;
  w.WriteU64(1000000);  // claims a million entries in 8 bytes
  EXPECT_FALSE(DecodeBigIntVector(w.data()).ok());
  EXPECT_FALSE(DecodeU128Vector(w.data()).ok());
}

}  // namespace
}  // namespace pivot
