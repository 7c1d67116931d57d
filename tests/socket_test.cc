// Socket transport tests, three tiers.
//
// Tier 1 (SupervisorTest): the ConnectionSupervisor state machine driven
// with a fake clock and recording callbacks — heartbeat cadence,
// silent-peer detection, the deterministic dial backoff schedule, and
// both ends of the reconnection budget (attempts for dialers, wall clock
// for acceptors).
//
// Tier 2 (SocketTransportTest): real loopback meshes (TCP and
// Unix-domain) through RunLoopbackParties — framing over real file
// descriptors, Recv timeout liveness diagnostics, handshake version
// rejection, and the socket-only fault kinds (kSever / kMute) with their
// reconnect-or-abort contracts.
//
// Tier 3 (SocketBackendTest, PartyFederationTest): one thread per party,
// each running RunPartyFederation — the runner `pivot_cli party` runs per
// process — over Unix-domain sockets must produce the bit-identical tree
// to the in-memory RunFederation, fault-free and across a crash + resume.
// This is the property that makes the multi-process crash-resume
// fingerprint check meaningful.

#include "net/socket.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/op_counters.h"
#include "common/sha256.h"
#include "data/synthetic.h"
#include "net/fault.h"
#include "net/supervisor.h"
#include "pivot/runner.h"
#include "pivot/serialize.h"
#include "pivot/trainer.h"

namespace pivot {
namespace {

// ----- tier 1: supervisor state machine (fake clock, fake callbacks) ---

struct RecordingCallbacks {
  std::vector<int> heartbeats;
  std::vector<std::pair<int, std::string>> severs;
  std::vector<std::pair<int64_t, int>> dials;  // (when asked, peer)
  std::vector<std::pair<int, Status>> escalations;
  Status dial_result = Status::ProtocolError("dial refused by test");
  int64_t now = 0;  // advanced by tests; captured by the dial callback

  ConnectionSupervisor::Callbacks Bind() {
    ConnectionSupervisor::Callbacks cb;
    cb.send_heartbeat = [this](int p) { heartbeats.push_back(p); };
    cb.sever = [this](int p, const std::string& r) {
      severs.emplace_back(p, r);
    };
    cb.dial = [this](int p) -> Status {
      dials.emplace_back(now, p);
      return dial_result;
    };
    cb.escalate = [this](int p, const Status& cause) {
      escalations.emplace_back(p, cause);
    };
    return cb;
  }
};

SupervisorConfig FastConfig() {
  SupervisorConfig cfg;
  cfg.heartbeat_interval_ms = 100;
  cfg.heartbeat_timeout_ms = 400;
  cfg.reconnect_attempts = 3;
  cfg.reconnect_timeout_ms = 1'000;
  cfg.backoff_base_ms = 10;
  cfg.backoff_max_ms = 40;
  return cfg;
}

TEST(SupervisorTest, HeartbeatCadenceFollowsInterval) {
  RecordingCallbacks rec;
  ConnectionSupervisor sup(2, 0, FastConfig(), rec.Bind(), {false, false});
  sup.NoteConnected(1, 0);
  sup.Tick(50);  // before the first heartbeat is due
  EXPECT_TRUE(rec.heartbeats.empty());
  sup.Tick(100);
  ASSERT_EQ(rec.heartbeats.size(), 1u);
  EXPECT_EQ(rec.heartbeats[0], 1);
  sup.Tick(150);  // next one is due at 200, not before
  EXPECT_EQ(rec.heartbeats.size(), 1u);
  sup.Tick(210);
  EXPECT_EQ(rec.heartbeats.size(), 2u);
  EXPECT_EQ(sup.Health(1, 210).heartbeats_sent, 2u);
}

TEST(SupervisorTest, SilentPeerIsDeclaredDead) {
  RecordingCallbacks rec;
  ConnectionSupervisor sup(2, 1, FastConfig(), rec.Bind(), {true, false});
  sup.NoteConnected(0, 0);
  sup.NoteHeard(0, 100);
  sup.Tick(450);  // silent for 350 ms < 400 ms timeout: still alive
  EXPECT_TRUE(rec.severs.empty());
  sup.Tick(501);  // silent for 401 ms: dead
  ASSERT_EQ(rec.severs.size(), 1u);
  EXPECT_EQ(rec.severs[0].first, 0);
  EXPECT_NE(rec.severs[0].second.find("heartbeat timeout"),
            std::string::npos);
  EXPECT_EQ(sup.Health(0, 501).state, PeerState::kDown);
}

TEST(SupervisorTest, DialBackoffIsDeterministicAndExponential) {
  RecordingCallbacks rec;
  ConnectionSupervisor sup(2, 1, FastConfig(), rec.Bind(), {true, false});
  sup.NoteConnected(0, 0);
  sup.NoteDown(0, 1'000, "test-induced drop");
  ASSERT_EQ(rec.severs.size(), 1u);  // NoteDown surfaces the reason
  EXPECT_EQ(rec.severs[0].second, "test-induced drop");
  // Attempts are due at 1000, +10, +20, then the budget (3) is spent.
  for (int64_t t = 1'000; t <= 1'100; ++t) {
    rec.now = t;
    sup.Tick(t);
  }
  ASSERT_EQ(rec.dials.size(), 3u);
  EXPECT_EQ(rec.dials[0], (std::pair<int64_t, int>{1'000, 0}));
  EXPECT_EQ(rec.dials[1], (std::pair<int64_t, int>{1'010, 0}));
  EXPECT_EQ(rec.dials[2], (std::pair<int64_t, int>{1'030, 0}));
}

TEST(SupervisorTest, DialerEscalatesWhenAttemptsExhausted) {
  RecordingCallbacks rec;
  ConnectionSupervisor sup(2, 1, FastConfig(), rec.Bind(), {true, false});
  sup.NoteConnected(0, 0);
  sup.NoteDown(0, 1'000, "drop");
  for (int64_t t = 1'000; t <= 1'200; ++t) {
    rec.now = t;
    sup.Tick(t);
  }
  EXPECT_EQ(rec.dials.size(), 3u);
  ASSERT_EQ(rec.escalations.size(), 1u) << "escalation must fire exactly once";
  EXPECT_EQ(rec.escalations[0].first, 0);
  const std::string msg = rec.escalations[0].second.message();
  EXPECT_NE(msg.find("unreachable"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reconnect attempts"), std::string::npos) << msg;
}

TEST(SupervisorTest, AcceptorWaitsOnTimeBudgetAlone) {
  RecordingCallbacks rec;
  // Party 0 accepts from party 1: it cannot dial, only wait.
  ConnectionSupervisor sup(2, 0, FastConfig(), rec.Bind(), {false, false});
  sup.NoteConnected(1, 0);
  sup.NoteDown(1, 1'000, "drop");
  sup.Tick(1'500);
  EXPECT_TRUE(rec.dials.empty());
  EXPECT_TRUE(rec.escalations.empty());
  sup.Tick(2'000);  // 1000 ms episode = reconnect_timeout_ms
  ASSERT_EQ(rec.escalations.size(), 1u);
  EXPECT_NE(rec.escalations[0].second.message().find("did not dial back"),
            std::string::npos);
  EXPECT_TRUE(rec.dials.empty());
}

TEST(SupervisorTest, SuccessfulRedialCountsAsReconnect) {
  RecordingCallbacks rec;
  rec.dial_result = Status::Ok();
  ConnectionSupervisor sup(2, 1, FastConfig(), rec.Bind(), {true, false});
  sup.NoteConnected(0, 0);
  sup.NoteDown(0, 1'000, "drop");
  rec.now = 1'000;
  sup.Tick(1'000);
  ASSERT_EQ(rec.dials.size(), 1u);
  EXPECT_TRUE(rec.escalations.empty());
  const PeerHealth h = sup.Health(0, 1'001);
  EXPECT_EQ(h.state, PeerState::kConnected);
  EXPECT_EQ(h.reconnects, 1u);
}

TEST(SupervisorTest, DescribeNamesStateAndSilence) {
  RecordingCallbacks rec;
  ConnectionSupervisor sup(2, 0, FastConfig(), rec.Bind(), {false, false});
  EXPECT_EQ(sup.Describe(1, 0),
            "peer 1 never-connected, never heard from, 0 reconnects");
  sup.NoteConnected(1, 100);
  sup.NoteHeard(1, 200);
  const std::string line = sup.Describe(1, 350);
  EXPECT_NE(line.find("peer 1 connected"), std::string::npos) << line;
  EXPECT_NE(line.find("last heard 150 ms ago"), std::string::npos) << line;
}

TEST(SupervisorTest, HeartbeatBoundaryIsExclusive) {
  // The sever condition is strictly silent_ms > heartbeat_timeout_ms: a
  // peer heard from exactly timeout ms ago is still alive. An inclusive
  // comparison would sever healthy connections whose heartbeat landed
  // precisely on the supervision tick.
  RecordingCallbacks rec;
  ConnectionSupervisor sup(2, 1, FastConfig(), rec.Bind(), {true, false});
  sup.NoteConnected(0, 0);
  sup.NoteHeard(0, 100);
  sup.Tick(500);  // silent for exactly 400 ms == timeout: alive
  EXPECT_TRUE(rec.severs.empty());
  EXPECT_EQ(sup.Health(0, 500).state, PeerState::kConnected);
  sup.Tick(501);  // 401 ms: dead
  ASSERT_EQ(rec.severs.size(), 1u);
  EXPECT_EQ(sup.Health(0, 501).state, PeerState::kDown);
}

TEST(SupervisorTest, RedialBackoffSaturatesAtTheCap) {
  RecordingCallbacks rec;
  SupervisorConfig cfg = FastConfig();
  cfg.reconnect_attempts = 6;
  cfg.reconnect_timeout_ms = 10'000;
  ConnectionSupervisor sup(2, 1, cfg, rec.Bind(), {true, false});
  sup.NoteConnected(0, 0);
  sup.NoteDown(0, 1'000, "drop");
  for (int64_t t = 1'000; t <= 1'200; ++t) {
    rec.now = t;
    sup.Tick(t);
  }
  // Gaps double from backoff_base_ms (10) until backoff_max_ms (40),
  // then hold there: 1000, +10, +20, +40, +40, +40.
  ASSERT_EQ(rec.dials.size(), 6u);
  const int64_t expected[] = {1'000, 1'010, 1'030, 1'070, 1'110, 1'150};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(rec.dials[i], (std::pair<int64_t, int>{expected[i], 0}))
        << "dial " << i;
  }
}

TEST(SupervisorTest, ReconnectionResetsTheDialBudgetMidEpisode) {
  // A successful redial ends the episode; a later sever starts a FRESH
  // one with full attempt budget and base backoff. Without the reset, a
  // long run would eventually abort on its total (not consecutive)
  // failure count.
  RecordingCallbacks rec;
  ConnectionSupervisor sup(2, 1, FastConfig(), rec.Bind(), {true, false});
  sup.NoteConnected(0, 0);
  sup.NoteDown(0, 1'000, "first drop");
  rec.now = 1'000;
  sup.Tick(1'000);  // attempt 1 fails (dial_result defaults to error)
  rec.now = 1'010;
  rec.dial_result = Status::Ok();
  sup.Tick(1'010);  // attempt 2 succeeds
  ASSERT_EQ(rec.dials.size(), 2u);
  EXPECT_EQ(sup.Health(0, 1'011).state, PeerState::kConnected);
  EXPECT_EQ(sup.Health(0, 1'011).reconnects, 1u);

  rec.dial_result = Status::ProtocolError("dial refused by test");
  sup.NoteDown(0, 2'000, "second drop");
  rec.dials.clear();
  for (int64_t t = 2'000; t <= 2'100; ++t) {
    rec.now = t;
    sup.Tick(t);
  }
  // Full budget (3) again, backoff restarted at base: 2000, +10, +20.
  // Without the reset only one attempt would remain and the escalation
  // would name a single-dial episode.
  ASSERT_EQ(rec.dials.size(), 3u);
  EXPECT_EQ(rec.dials[0].first, 2'000);
  EXPECT_EQ(rec.dials[1].first, 2'010);
  EXPECT_EQ(rec.dials[2].first, 2'030);
  ASSERT_EQ(rec.escalations.size(), 1u);
  EXPECT_NE(rec.escalations[0].second.message().find("3 reconnect attempts"),
            std::string::npos)
      << rec.escalations[0].second.message();
}

TEST(SupervisorTest, AcceptorEpisodeClockResetsOnDialBack) {
  // The acceptor side has no attempt budget — only the episode wall
  // clock — and that clock must restart when the peer dials back in and
  // then drops again mid-backoff. The second episode gets its full time
  // budget; severs do not accumulate across reconnections.
  RecordingCallbacks rec;
  ConnectionSupervisor sup(2, 0, FastConfig(), rec.Bind(), {false, false});
  sup.NoteConnected(1, 0);
  sup.NoteDown(1, 1'000, "first drop");
  sup.Tick(1'900);  // 900 ms into the 1000 ms episode: still waiting
  EXPECT_TRUE(rec.escalations.empty());
  sup.NoteConnected(1, 1'950);  // peer dialed back just in time
  sup.NoteHeard(1, 1'950);
  sup.NoteDown(1, 2'100, "second drop");
  sup.Tick(2'950);  // 850 ms into the SECOND episode, 1950 ms since the
  EXPECT_TRUE(rec.escalations.empty());  // first: no escalation
  sup.Tick(3'100);  // 1000 ms episode budget spent
  ASSERT_EQ(rec.escalations.size(), 1u);
  EXPECT_EQ(rec.escalations[0].first, 1);
  EXPECT_NE(rec.escalations[0].second.message().find("did not dial back"),
            std::string::npos);
  EXPECT_TRUE(rec.dials.empty()) << "acceptors never dial";
}

// ----- tier 2: real loopback meshes ------------------------------------

SocketOptions FastSocketOptions(int recv_timeout_ms = 5'000) {
  SocketOptions opts;
  opts.net.recv_timeout_ms = recv_timeout_ms;
  opts.net.backoff_base_ms = 2;
  opts.net.backoff_max_ms = 50;
  opts.supervision.heartbeat_interval_ms = 50;
  opts.supervision.heartbeat_timeout_ms = 500;
  opts.supervision.backoff_base_ms = 2;
  opts.supervision.backoff_max_ms = 20;
  opts.establish_timeout_ms = 10'000;
  return opts;
}

TEST(SocketTransportTest, LoopbackMeshAllPairsExchange) {
  NetworkStats stats;
  const Status st = RunLoopbackParties(
      3, FastSocketOptions(), [](int id, Endpoint& ep) -> Status {
        // Every ordered pair exchanges one tagged message.
        for (int to = 0; to < 3; ++to) {
          if (to == id) continue;
          PIVOT_RETURN_IF_ERROR(ep.Send(
              to, Bytes{static_cast<uint8_t>(id), static_cast<uint8_t>(to)}));
        }
        for (int from = 0; from < 3; ++from) {
          if (from == id) continue;
          PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(from));
          if (msg != (Bytes{static_cast<uint8_t>(from),
                            static_cast<uint8_t>(id)})) {
            return Status::Internal("wrong payload from party " +
                                    std::to_string(from));
          }
        }
        return Status::Ok();
      },
      &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.messages_sent, 6u);
  EXPECT_EQ(stats.messages_received, 6u);
  EXPECT_GT(stats.bytes_sent, 0u);
}

TEST(SocketTransportTest, LargeMessageSurvivesPartialWrites) {
  // 4 MiB forces many short writes/reads through the 64 KiB receive
  // buffer, exercising stream reassembly over a real descriptor.
  const Status st = RunLoopbackParties(
      2, FastSocketOptions(/*recv_timeout_ms=*/30'000),
      [](int id, Endpoint& ep) -> Status {
        Bytes big(4 << 20);
        for (size_t i = 0; i < big.size(); ++i) {
          big[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
        }
        if (id == 0) {
          PIVOT_RETURN_IF_ERROR(ep.Send(1, big));
          PIVOT_ASSIGN_OR_RETURN(Bytes ack, ep.Recv(1));
          if (ack != Bytes{1}) return Status::Internal("bad ack");
          return Status::Ok();
        }
        PIVOT_ASSIGN_OR_RETURN(Bytes got, ep.Recv(0));
        if (got != big) return Status::Internal("large payload mangled");
        return ep.Send(0, Bytes{1});
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(SocketTransportTest, UnixDomainMeshExchanges) {
  const std::string base =
      "unix:/tmp/pivot_socket_test_" + std::to_string(::getpid());
  SocketNetwork a(0, 2, FastSocketOptions());
  SocketNetwork b(1, 2, FastSocketOptions());
  ASSERT_TRUE(a.Bind(base + ".a").ok());
  ASSERT_TRUE(b.Bind(base + ".b").ok());
  const std::vector<std::string> addrs = {a.listen_address(),
                                          b.listen_address()};
  Status sa, sb;
  std::thread ta([&] { sa = a.Establish(addrs); });
  std::thread tb([&] { sb = b.Establish(addrs); });
  ta.join();
  tb.join();
  ASSERT_TRUE(sa.ok()) << sa.ToString();
  ASSERT_TRUE(sb.ok()) << sb.ToString();
  ASSERT_TRUE(a.endpoint().Send(1, Bytes{42}).ok());
  Result<Bytes> got = b.endpoint().Recv(0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), Bytes{42});
}

TEST(SocketTransportTest, BindReportsEphemeralPort) {
  SocketNetwork net(0, 2, FastSocketOptions());
  ASSERT_TRUE(net.Bind("127.0.0.1:0").ok());
  EXPECT_EQ(net.listen_address().find("127.0.0.1:"), 0u);
  EXPECT_EQ(net.listen_address().find(":0"), std::string::npos)
      << "ephemeral port not resolved: " << net.listen_address();
}

TEST(SocketTransportTest, BindRejectsMalformedAddresses) {
  SocketNetwork net(0, 2, FastSocketOptions());
  EXPECT_FALSE(net.Bind("no-port-here").ok());
  EXPECT_FALSE(net.Bind("127.0.0.1:notaport").ok());
  EXPECT_FALSE(net.Bind("127.0.0.1:99999").ok());
  EXPECT_FALSE(net.Bind("not.an.ip.addr:1234").ok());
}

TEST(SocketTransportTest, HandshakeVersionMismatchFailsFast) {
  SocketOptions old_version = FastSocketOptions();
  old_version.establish_timeout_ms = 3'000;
  SocketOptions new_version = old_version;
  new_version.handshake_version = kTransportVersion + 1;

  SocketNetwork acceptor(0, 2, old_version);
  SocketNetwork dialer(1, 2, new_version);
  ASSERT_TRUE(acceptor.Bind("127.0.0.1:0").ok());
  ASSERT_TRUE(dialer.Bind("127.0.0.1:0").ok());
  const std::vector<std::string> addrs = {acceptor.listen_address(),
                                          dialer.listen_address()};
  Status accept_st;
  std::thread ta([&] { accept_st = acceptor.Establish(addrs); });
  const Status dial_st = dialer.Establish(addrs);
  ta.join();
  // The dialer learns the mismatch from the kHelloAck and gives up
  // immediately — it must not burn the whole establish deadline retrying
  // a permanent incompatibility.
  ASSERT_FALSE(dial_st.ok());
  EXPECT_EQ(dial_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dial_st.message().find("version mismatch"), std::string::npos)
      << dial_st.ToString();
  EXPECT_FALSE(accept_st.ok());  // nobody compatible ever dialed in
}

TEST(SocketTransportTest, DialedPeerDropDuringDialInWaitFailsFast) {
  // Party 1 dials party 0, then waits for party 2, which never dials in.
  // Party 0 goes away during that wait. Nothing redials before
  // supervision starts, so Establish must fail at once and name party 0
  // instead of waiting out its 30 s deadline.
  SocketOptions waiter_opts = FastSocketOptions();
  waiter_opts.establish_timeout_ms = 30'000;
  SocketOptions dialed_opts = FastSocketOptions();
  dialed_opts.establish_timeout_ms = 2'000;
  SocketNetwork waiter(1, 3, waiter_opts);
  auto dialed = std::make_unique<SocketNetwork>(0, 3, dialed_opts);
  ASSERT_TRUE(waiter.Bind("127.0.0.1:0").ok());
  ASSERT_TRUE(dialed->Bind("127.0.0.1:0").ok());
  // Party 2 never binds; nobody dials its address.
  const std::vector<std::string> addrs = {
      dialed->listen_address(), waiter.listen_address(), "127.0.0.1:1"};
  Status dialed_st;
  std::thread td([&] {
    dialed_st = dialed->Establish(addrs);
    dialed.reset();  // closes the accepted link to party 1
  });
  const auto start = std::chrono::steady_clock::now();
  const Status st = waiter.Establish(addrs);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  td.join();
  EXPECT_FALSE(dialed_st.ok());  // party 2 never dialed party 0 either
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("connection to party 0 dropped"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("not connected to party 0, 2"),
            std::string::npos)
      << st.ToString();
  EXPECT_LT(elapsed_ms, 10'000) << st.ToString();
}

TEST(SocketTransportTest, RestartedDialerIsRefusedBeforeHelloAck) {
  // Party 1 restarts (a new SocketNetwork, so a new incarnation) and
  // dials party 0's established mesh. Party 0 must refuse without a
  // kHelloAck, so the relaunched party keeps dialing (here until its
  // establish deadline) instead of adopting a mesh that is about to go,
  // and party 0 aborts naming the restart.
  SocketNetwork acceptor(0, 2, FastSocketOptions());
  SocketNetwork dialer(1, 2, FastSocketOptions());
  ASSERT_TRUE(acceptor.Bind("127.0.0.1:0").ok());
  ASSERT_TRUE(dialer.Bind("127.0.0.1:0").ok());
  const std::vector<std::string> addrs = {acceptor.listen_address(),
                                          dialer.listen_address()};
  Status accept_st;
  std::thread ta([&] { accept_st = acceptor.Establish(addrs); });
  const Status dial_st = dialer.Establish(addrs);
  ta.join();
  ASSERT_TRUE(dial_st.ok()) << dial_st.ToString();
  ASSERT_TRUE(accept_st.ok()) << accept_st.ToString();

  SocketOptions relaunch_opts = FastSocketOptions();
  relaunch_opts.establish_timeout_ms = 1'000;
  SocketNetwork relaunched(1, 2, relaunch_opts);
  ASSERT_TRUE(relaunched.Bind("127.0.0.1:0").ok());
  const Status st = relaunched.Establish(addrs);
  ASSERT_FALSE(st.ok()) << "the restarted dialer was acked";
  EXPECT_NE(st.message().find("could not establish a connection to party 0"),
            std::string::npos)
      << st.ToString();
  ASSERT_TRUE(acceptor.aborted());
  EXPECT_NE(acceptor.abort_status().message().find("party 1 restarted"),
            std::string::npos)
      << acceptor.abort_status().ToString();
}

TEST(SocketTransportTest, RecvTimeoutNamesPeerLiveness) {
  // Party 1 stays silent; party 0's Recv timeout must say how the link
  // to the peer looked (connected + recently heard via heartbeats), so a
  // hung *protocol* is distinguishable from a dead *transport*.
  const Status st = RunLoopbackParties(
      2, FastSocketOptions(/*recv_timeout_ms=*/400),
      [](int id, Endpoint& ep) -> Status {
        if (id == 1) return Status::Ok();  // never sends
        Result<Bytes> r = ep.Recv(1);
        if (r.ok()) return Status::Internal("phantom message");
        return r.status();
      });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("timed out"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("peer 1 connected"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("last heard"), std::string::npos)
      << st.ToString();
}

TEST(SocketTransportTest, TransientSeverReconnectsAndRecovers) {
  // Party 0's 3rd outbound wire frame tears the 0<->1 connection down.
  // Party 1 (the dialer for rank 0) must reconnect and the reliable layer
  // must NACK-recover anything lost in between: the run completes.
  FaultPlan plan;
  plan.Add({FaultKind::kSever, /*party=*/0, /*peer=*/1, /*nth=*/2, 0, 0,
            /*fatal=*/false});
  const SocketOptions opts = FastSocketOptions(/*recv_timeout_ms=*/20'000);
  SocketNetwork a(0, 2, opts);
  SocketNetwork b(1, 2, opts);
  a.set_fault_plan(plan);
  ASSERT_TRUE(a.Bind("127.0.0.1:0").ok());
  ASSERT_TRUE(b.Bind("127.0.0.1:0").ok());
  const std::vector<std::string> addrs = {a.listen_address(),
                                          b.listen_address()};
  const auto run = [&addrs](int id, SocketNetwork& net) -> Status {
    Status st = net.Establish(addrs);
    for (int i = 0; st.ok() && i < 8; ++i) {
      if (id == 0) {
        st = net.endpoint().Send(1, Bytes{static_cast<uint8_t>(i)});
      } else {
        Result<Bytes> msg = net.endpoint().Recv(0);
        if (!msg.ok()) {
          st = msg.status();
        } else if (msg.value() != Bytes{static_cast<uint8_t>(i)}) {
          st = Status::Internal("out-of-order after reconnect");
        }
      }
    }
    // Reverse direction proves the link is healthy again.
    if (st.ok() && id == 1) st = net.endpoint().Send(0, Bytes{99});
    if (st.ok() && id == 0) {
      Result<Bytes> ack = net.endpoint().Recv(1);
      if (!ack.ok()) {
        st = ack.status();
      } else if (ack.value() != Bytes{99}) {
        st = Status::Internal("bad final ack");
      }
    }
    if (!st.ok() && st.code() != StatusCode::kAborted) net.Abort(st, id);
    return st;
  };
  Status sa;
  std::thread ta([&] { sa = run(0, a); });
  const Status sb = run(1, b);
  ta.join();
  EXPECT_TRUE(sa.ok()) << sa.ToString();
  EXPECT_TRUE(sb.ok()) << sb.ToString();
  EXPECT_EQ(a.fired_fault_mask(), 1u);
  EXPECT_GE(a.stats().reconnects + b.stats().reconnects, 1u);
}

TEST(SocketTransportTest, FatalSeverExhaustsBudgetAndAborts) {
  // A fatal sever refuses reconnection, so the dialer's budget runs out
  // and the supervisor escalates to security-with-abort. Nobody hangs.
  FaultPlan plan;
  plan.Add({FaultKind::kSever, /*party=*/0, /*peer=*/1, /*nth=*/1, 0, 0,
            /*fatal=*/true});
  std::vector<FaultPlan> plans = {plan, FaultPlan()};
  SocketOptions opts = FastSocketOptions(/*recv_timeout_ms=*/30'000);
  opts.supervision.reconnect_attempts = 3;
  opts.supervision.reconnect_timeout_ms = 2'000;
  const Status st = RunLoopbackParties(
      2, opts,
      [](int id, Endpoint& ep) -> Status {
        for (int i = 0; i < 8; ++i) {
          if (id == 0) {
            PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes{static_cast<uint8_t>(i)}));
          } else {
            PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
          }
        }
        return Status::Ok();
      },
      nullptr, plans);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unreachable"), std::string::npos)
      << st.ToString();
}

TEST(SocketTransportTest, MutedConnectionDetectedByHeartbeatTimeout) {
  // Mute suppresses everything party 0 sends (heartbeats included) for
  // 1.2 s; party 1's supervisor must notice the silence, sever, redial
  // and — once the mute expires — the channel must recover via NACKs.
  FaultPlan plan;
  plan.Add({FaultKind::kMute, /*party=*/0, /*peer=*/1, /*nth=*/1,
            /*delay_ms=*/1'200, 0, /*fatal=*/false});
  std::vector<FaultPlan> plans = {plan, FaultPlan()};
  NetworkStats stats;
  const Status st = RunLoopbackParties(
      2, FastSocketOptions(/*recv_timeout_ms=*/30'000),
      [](int id, Endpoint& ep) -> Status {
        for (int i = 0; i < 6; ++i) {
          if (id == 0) {
            PIVOT_RETURN_IF_ERROR(ep.Send(1, Bytes{static_cast<uint8_t>(i)}));
          } else {
            PIVOT_ASSIGN_OR_RETURN(Bytes msg, ep.Recv(0));
            if (msg != Bytes{static_cast<uint8_t>(i)}) {
              return Status::Internal("mute broke ordering");
            }
          }
        }
        // The muted frames are recovered by NACKs party 1 sends while
        // party 0 waits here — a sender must stay in the protocol (as any
        // real SPMD round structure does) for retransmission to work.
        if (id == 1) return ep.Send(0, Bytes{99});
        PIVOT_ASSIGN_OR_RETURN(Bytes ack, ep.Recv(1));
        return ack == Bytes{99} ? Status::Ok()
                                : Status::Internal("bad final ack");
      },
      &stats, plans);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(stats.reconnects, 1u);
}

// ----- tier 3: the party runner ----------------------------------------

Dataset TierThreeData() {
  ClassificationSpec spec;
  spec.num_samples = 16;
  spec.num_features = 6;
  spec.num_classes = 2;
  spec.class_separation = 2.5;
  spec.seed = 17;
  return MakeClassification(spec);
}

FederationConfig TierThreeConfig() {
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.params.tree.task = TreeTask::kClassification;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = 2;
  cfg.params.tree.max_splits = 4;
  cfg.params.tree.min_samples_split = 5;
  cfg.params.key_bits = 256;
  return cfg;
}

// Party body: trains one basic-protocol tree and records its digest in
// `prints[party]`.
std::function<Status(PartyContext&)> TrainAndFingerprint(
    std::vector<Bytes>* prints, std::mutex* mu) {
  return [prints, mu](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    opts.protocol = Protocol::kBasic;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    const auto digest = Sha256::Hash(SerializePivotTree(tree));
    std::lock_guard<std::mutex> lock(*mu);
    (*prints)[ctx.id()] = Bytes(digest.begin(), digest.end());
    return Status::Ok();
  };
}

// Every party's tree digest from the in-memory runner.
Status InMemoryPrints(const Dataset& data, const FederationConfig& cfg,
                      std::vector<Bytes>* prints,
                      NetworkStats* stats = nullptr) {
  prints->assign(cfg.num_parties, {});
  std::mutex mu;
  return RunFederation(data, cfg, TrainAndFingerprint(prints, &mu), stats);
}

// Every party's tree digest from RunPartyFederation, one thread per party
// over Unix-domain sockets named after `tag`. The parties share `fed`'s
// runner settings (fault plan and restart budget included).
Status PartyPrints(const Dataset& data, const FederationConfig& fed,
                   const std::string& tag, std::vector<Bytes>* prints) {
  const int m = fed.num_parties;
  const VerticalPartition partition = PartitionVertically(data, m);
  std::vector<std::string> addresses;
  for (int i = 0; i < m; ++i) {
    addresses.push_back("unix:/tmp/pivot_" + tag + "_" +
                        std::to_string(::getpid()) + "_" + std::to_string(i));
  }
  prints->assign(m, {});
  std::mutex mu;
  const auto body = TrainAndFingerprint(prints, &mu);
  std::vector<Status> statuses(m);
  std::vector<std::thread> threads;
  for (int i = 0; i < m; ++i) {
    threads.emplace_back([&, i] {
      PartyConfig cfg;
      static_cast<RunnerConfig&>(cfg) = fed;
      cfg.party_id = i;
      cfg.addresses = addresses;
      statuses[i] = RunPartyFederation(partition, cfg, body);
    });
  }
  for (std::thread& t : threads) t.join();
  return RootCauseStatus(statuses);
}

TEST(SocketBackendTest, SocketFederationBitMatchesInMemory) {
  const Dataset data = TierThreeData();
  const FederationConfig cfg = TierThreeConfig();
  std::vector<Bytes> in_memory, socket;
  ASSERT_TRUE(InMemoryPrints(data, cfg, &in_memory).ok());
  const Status st = PartyPrints(data, cfg, "bitmatch", &socket);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int p = 0; p < cfg.num_parties; ++p) {
    EXPECT_EQ(socket[p], in_memory[p])
        << "party " << p << " diverged between transports";
  }
}

TEST(PartyFederationTest, CrashResumeBitMatchesInMemory) {
  // Party 1 crashes mid-training. Every party runner must prune the fired
  // transient crash from its plan, re-mesh, resume from its own
  // checkpoint store and land on the fault-free in-memory fingerprints.
  const Dataset data = TierThreeData();
  FederationConfig cfg = TierThreeConfig();
  std::vector<Bytes> baseline;
  NetworkStats traffic;
  ASSERT_TRUE(InMemoryPrints(data, cfg, &baseline, &traffic).ok());

  // A party's network ops are its sends and receives. Crash three
  // quarters of the way through party 1's share of them: past the root
  // node's snapshot, before the tree is done.
  FaultAction crash;
  crash.kind = FaultKind::kCrash;
  crash.party = 1;
  crash.nth = (traffic.messages_sent + traffic.messages_received) * 3 /
              (4 * static_cast<uint64_t>(cfg.num_parties));
  cfg.fault_plan.Add(crash);
  cfg.max_restarts = 3;
  cfg.net.recv_timeout_ms = 60'000;
  const OpSnapshot before = OpSnapshot::Take();
  std::vector<Bytes> prints;
  const Status st = PartyPrints(data, cfg, "crash", &prints);
  ASSERT_TRUE(st.ok()) << st.ToString()
                       << "\nplan: " << cfg.fault_plan.ToString();
  EXPECT_GT(OpSnapshot::Take().Delta(before).ckpt_restores, 0u)
      << "the crash must hit after a snapshot, so the run resumes from it";
  for (int p = 0; p < cfg.num_parties; ++p) {
    EXPECT_EQ(prints[p], baseline[p])
        << "party " << p << " diverged across crash + resume";
  }
}

}  // namespace
}  // namespace pivot
