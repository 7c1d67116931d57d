#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace pivot {

namespace {

// Per-connection handshake deadline (dial and accept side).
constexpr int kHandshakeTimeoutMs = 5'000;

// Parsed listen/dial target: either a Unix-domain path or an IPv4
// host:port.
struct ParsedAddr {
  bool is_unix = false;
  std::string path;
  sockaddr_in sin{};
};

Status ParseAddr(const std::string& address, ParsedAddr* out) {
  if (address.rfind("unix:", 0) == 0) {
    out->is_unix = true;
    out->path = address.substr(5);
    if (out->path.empty()) {
      return Status::InvalidArgument("unix socket address has an empty path: " +
                                     address);
    }
    sockaddr_un probe{};
    if (out->path.size() >= sizeof(probe.sun_path)) {
      return Status::InvalidArgument(
          "unix socket path too long (" + std::to_string(out->path.size()) +
          " bytes, limit " + std::to_string(sizeof(probe.sun_path) - 1) +
          "): " + out->path);
    }
    return Status::Ok();
  }
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "address must be host:port or unix:PATH, got \"" + address + "\"");
  }
  std::string host = address.substr(0, colon);
  if (host.empty() || host == "localhost") host = "127.0.0.1";
  const std::string port_str = address.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || port < 0 || port > 65535) {
    return Status::InvalidArgument("invalid port in address \"" + address +
                                   "\"");
  }
  out->is_unix = false;
  out->sin.sin_family = AF_INET;
  out->sin.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &out->sin.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 host in address \"" +
                                   address + "\" (hostnames other than "
                                   "localhost are not resolved)");
  }
  return Status::Ok();
}

Status Errno(const std::string& what) {
  return Status::ProtocolError(what + ": " + std::strerror(errno));
}

// Writes the whole buffer, riding out partial writes and EINTR. Uses
// MSG_NOSIGNAL so a peer that closed the connection surfaces as EPIPE
// instead of killing the process with SIGPIPE.
Status WriteAllFd(int fd, const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("socket write failed");
    }
    off += static_cast<size_t>(w);
  }
  return Status::Ok();
}

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Blocking read of exactly one stream frame with a deadline; used only
// for the handshake. Reads ONE byte per recv so it stops exactly at the
// frame boundary: the peer may adopt the connection and start writing
// protocol frames the moment its side of the handshake completes, and a
// buffered read here would swallow those coalesced bytes before the
// receiver thread (with its own parser) takes over the descriptor.
Status ReadFrameDeadline(int fd, StreamFrame* out) {
  StreamFrameReader reader(kMaxStreamFrameBytes);
  std::vector<StreamFrame> frames;
  uint8_t byte = 0;
  const int64_t deadline = SteadyNowMs() + kHandshakeTimeoutMs;
  while (frames.empty()) {
    const int64_t remaining = deadline - SteadyNowMs();
    if (remaining <= 0) {
      return Status::ProtocolError("handshake timed out after " +
                                   std::to_string(kHandshakeTimeoutMs) +
                                   " ms");
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Errno("poll during handshake failed");
    }
    if (pr == 0) continue;  // deadline re-checked at the top
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    if (n == 0) {
      return Status::ProtocolError("connection closed during handshake");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read during handshake failed");
    }
    PIVOT_RETURN_IF_ERROR(reader.Feed(&byte, 1, &frames));
  }
  *out = std::move(frames.front());
  return Status::Ok();
}

// Process-unique instance identity: pid in the high bits, a per-process
// counter in the low bits. Nonzero by construction (pid >= 1), which
// matters because 0 means "never connected" in the incarnation protocol.
uint64_t NextIncarnation() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return (static_cast<uint64_t>(::getpid()) << 20) | (n & ((1u << 20) - 1));
}

}  // namespace

// ----- SocketNetwork ---------------------------------------------------

int64_t SocketNetwork::NowMs() { return SteadyNowMs(); }

SocketNetwork::SocketNetwork(int party_id, int num_parties,
                             SocketOptions options)
    : ChannelCarrier(options.net),
      party_id_(party_id),
      num_parties_(num_parties),
      options_(std::move(options)),
      incarnation_(NextIncarnation()) {
  PIVOT_CHECK_MSG(num_parties >= 1, "network needs at least one party");
  PIVOT_CHECK(party_id >= 0 && party_id < num_parties);
  endpoint_ = std::make_unique<ReliableEndpoint>(this, party_id, num_parties);
  links_.reserve(num_parties);
  data_in_.reserve(num_parties);
  ctrl_in_.reserve(num_parties);
  for (int p = 0; p < num_parties; ++p) {
    links_.push_back(std::make_unique<PeerLink>());
    data_in_.push_back(std::make_unique<MessageQueue>());
    ctrl_in_.push_back(std::make_unique<MessageQueue>());
  }
  std::vector<bool> dials_to(num_parties, false);
  for (int p = 0; p < party_id; ++p) dials_to[p] = true;
  ConnectionSupervisor::Callbacks cbs;
  cbs.send_heartbeat = [this](int peer) {
    const uint64_t n = heartbeat_seq_.fetch_add(1, std::memory_order_relaxed);
    EnqueueFrame(peer, EncodeStreamFrame(StreamFrameType::kHeartbeat,
                                         EncodeHeartbeatBody(n)));
  };
  cbs.sever = [this](int peer, const std::string& reason) {
    SeverLink(peer, reason);
  };
  cbs.dial = [this](int peer) { return DialPeer(peer); };
  cbs.escalate = [this](int peer, const Status& cause) {
    (void)peer;
    Abort(cause, party_id_);
  };
  supervisor_ = std::make_unique<ConnectionSupervisor>(
      num_parties, party_id, options_.supervision, std::move(cbs),
      std::move(dials_to));
}

SocketNetwork::~SocketNetwork() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  if (supervisor_thread_.joinable()) supervisor_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (int p = 0; p < num_parties_; ++p) {
    PeerLink& link = *links_[p];
    std::vector<std::unique_ptr<LinkGen>> reap;
    {
      std::lock_guard<std::mutex> lock(link.mu);
      if (link.cur) {
        ::shutdown(link.cur->fd, SHUT_RDWR);
        link.cur->outbound->Poison(Status::Aborted("network shutting down"));
        link.dead.push_back(std::move(link.cur));
      }
      reap.swap(link.dead);
    }
    for (std::unique_ptr<LinkGen>& g : reap) {
      if (g->writer.joinable()) g->writer.join();
      if (g->receiver.joinable()) g->receiver.join();
      ::close(g->fd);
    }
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

Status SocketNetwork::Bind(const std::string& address) {
  if (listen_fd_ >= 0) {
    return Status::InvalidArgument("Bind called twice");
  }
  return ParseAndListen(address);
}

Status SocketNetwork::ParseAndListen(const std::string& address) {
  ParsedAddr parsed;
  PIVOT_RETURN_IF_ERROR(ParseAddr(address, &parsed));
  if (parsed.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket(AF_UNIX) failed");
    // A SIGKILL'd predecessor leaves its socket file behind; a fresh bind
    // to the same path must succeed for crash-relaunch to work.
    ::unlink(parsed.path.c_str());
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, parsed.path.c_str(), parsed.path.size() + 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) < 0) {
      const Status st = Errno("bind(" + parsed.path + ") failed");
      ::close(fd);
      return st;
    }
    if (::listen(fd, 64) < 0) {
      const Status st = Errno("listen(" + parsed.path + ") failed");
      ::close(fd);
      return st;
    }
    listen_fd_ = fd;
    unix_path_ = parsed.path;
    listen_address_ = address;
    return Status::Ok();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET) failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&parsed.sin),
             sizeof(parsed.sin)) < 0) {
    const Status st = Errno("bind(" + address + ") failed");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    const Status st = Errno("listen(" + address + ") failed");
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const Status st = Errno("getsockname failed");
    ::close(fd);
    return st;
  }
  char host[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof(host));
  listen_fd_ = fd;
  listen_address_ =
      std::string(host) + ":" + std::to_string(ntohs(bound.sin_port));
  return Status::Ok();
}

Status SocketNetwork::Establish(
    const std::vector<std::string>& peer_addresses) {
  if (listen_fd_ < 0) {
    return Status::InvalidArgument("Establish called before Bind");
  }
  if (static_cast<int>(peer_addresses.size()) != num_parties_) {
    return Status::InvalidArgument(
        "Establish: expected " + std::to_string(num_parties_) +
        " peer addresses, got " + std::to_string(peer_addresses.size()));
  }
  peer_addresses_ = peer_addresses;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const int64_t deadline = NowMs() + options_.establish_timeout_ms;
  // Dial every lower-ranked peer, retrying with deterministic backoff
  // until the establish deadline; a version mismatch (InvalidArgument) is
  // permanent and fails immediately.
  for (int j = 0; j < party_id_; ++j) {
    int backoff_ms = options_.supervision.backoff_base_ms;
    Status last = Status::Ok();
    bool connected = false;
    while (!connected) {
      last = DialPeer(j);
      if (last.ok()) {
        connected = true;
        break;
      }
      if (last.code() == StatusCode::kInvalidArgument) return last;
      if (aborted()) return abort_status();
      if (NowMs() + backoff_ms > deadline) break;
      if (WaitForAbortMs(backoff_ms)) return abort_status();
      backoff_ms = std::min(backoff_ms * 2, options_.supervision.backoff_max_ms);
    }
    if (!connected) {
      return Status::ProtocolError(
          "party " + std::to_string(party_id_) +
          " could not establish a connection to party " + std::to_string(j) +
          " (" + peer_addresses_[j] + ") within " +
          std::to_string(options_.establish_timeout_ms) +
          " ms: " + last.ToString());
    }
  }
  // Wait for every higher-ranked peer to dial in. Nothing redials before
  // the supervisor starts, so a link this party dialed that drops
  // meanwhile ends the wait at once: the caller's restart loop re-meshes
  // instead of waiting out the deadline.
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    std::vector<int> missing;
    conn_cv_.wait_for(lock,
                      std::chrono::milliseconds(
                          std::max<int64_t>(deadline - NowMs(), 1)),
                      [this, &missing] {
                        missing = MissingPeersLocked();
                        return missing.empty() || missing[0] < party_id_ ||
                               aborted();
                      });
    if (aborted()) return abort_status();
    if (!missing.empty()) {
      std::string names;
      for (int p : missing) {
        if (!names.empty()) names += ", ";
        names += std::to_string(p);
      }
      const std::string prefix = "party " + std::to_string(party_id_) + ": ";
      if (missing[0] < party_id_) {
        std::string reason;
        {
          std::lock_guard<std::mutex> plock(links_[missing[0]]->mu);
          reason = links_[missing[0]]->last_down_reason;
        }
        return Status::ProtocolError(
            prefix + "connection to party " + std::to_string(missing[0]) +
            " dropped during mesh establishment (" + reason +
            "); not connected to party " + names);
      }
      return Status::ProtocolError(
          prefix + "mesh establishment timed out after " +
          std::to_string(options_.establish_timeout_ms) +
          " ms; not connected to party " + names);
    }
  }
  supervisor_thread_ = std::thread([this] { SupervisorLoop(); });
  return Status::Ok();
}

std::vector<int> SocketNetwork::MissingPeersLocked() {
  std::vector<int> missing;
  for (int p = 0; p < num_parties_; ++p) {
    if (p == party_id_) continue;
    std::lock_guard<std::mutex> lock(links_[p]->mu);
    if (!links_[p]->cur) missing.push_back(p);
  }
  return missing;
}

Status SocketNetwork::DialPeer(int j) {
  if (links_[j]->refuse_reconnect.load(std::memory_order_acquire)) {
    return Status::ProtocolError(
        "reconnection to party " + std::to_string(j) +
        " refused (fatal sever fault injected)");
  }
  if (aborted()) return abort_status();
  ParsedAddr parsed;
  PIVOT_RETURN_IF_ERROR(ParseAddr(peer_addresses_[j], &parsed));
  int fd = -1;
  if (parsed.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket(AF_UNIX) failed");
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, parsed.path.c_str(), parsed.path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) < 0) {
      const Status st = Errno("connect(" + peer_addresses_[j] + ") failed");
      ::close(fd);
      return st;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket(AF_INET) failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&parsed.sin),
                  sizeof(parsed.sin)) < 0) {
      const Status st = Errno("connect(" + peer_addresses_[j] + ") failed");
      ::close(fd);
      return st;
    }
  }
  HelloFrame hello;
  hello.version = options_.handshake_version;
  hello.party_id = party_id_;
  hello.num_parties = num_parties_;
  hello.incarnation = incarnation_;
  const Bytes hello_frame =
      EncodeStreamFrame(StreamFrameType::kHello, EncodeHello(hello));
  Status st = WriteAllFd(fd, hello_frame.data(), hello_frame.size());
  StreamFrame ack_frame;
  if (st.ok()) {
    st = ReadFrameDeadline(fd, &ack_frame);
  }
  HelloFrame ack;
  if (st.ok()) {
    if (ack_frame.type != static_cast<uint8_t>(StreamFrameType::kHelloAck)) {
      st = Status::ProtocolError(
          "handshake with party " + std::to_string(j) +
          ": expected kHelloAck, got frame type " +
          std::to_string(ack_frame.type));
    } else {
      Result<HelloFrame> r = DecodeHello(ack_frame.body);
      if (r.ok()) {
        ack = r.value();
      } else {
        st = r.status();
      }
    }
  }
  if (st.ok() && ack.version != options_.handshake_version) {
    ::close(fd);
    return Status::InvalidArgument(
        "transport version mismatch dialing party " + std::to_string(j) +
        ": ours is " + std::to_string(options_.handshake_version) +
        ", peer speaks " + std::to_string(ack.version));
  }
  if (st.ok() &&
      (ack.party_id != j || ack.num_parties != num_parties_)) {
    st = Status::ProtocolError(
        "handshake identity mismatch: dialed " + peer_addresses_[j] +
        " expecting party " + std::to_string(j) + " of " +
        std::to_string(num_parties_) + ", it answered as party " +
        std::to_string(ack.party_id) + " of " +
        std::to_string(ack.num_parties));
  }
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  uint64_t seen = 0;
  {
    std::lock_guard<std::mutex> lock(links_[j]->mu);
    seen = links_[j]->incarnation_seen;
  }
  if (seen != 0 && seen != ack.incarnation) {
    ::close(fd);
    const Status cause = Status::ProtocolError(
        "party " + std::to_string(j) +
        " restarted (handshake incarnation changed): its channel state is "
        "gone; aborting so the next attempt re-establishes the mesh and "
        "resumes from checkpoints");
    Abort(cause, party_id_);
    return cause;
  }
  AdoptConnection(j, fd, ack.incarnation);
  return Status::Ok();
}

void SocketNetwork::AcceptLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    HandleInbound(fd);
  }
}

void SocketNetwork::HandleInbound(int fd) {
  StreamFrame hello_frame;
  Status st = ReadFrameDeadline(fd, &hello_frame);
  if (!st.ok() ||
      hello_frame.type != static_cast<uint8_t>(StreamFrameType::kHello)) {
    ::close(fd);
    return;
  }
  Result<HelloFrame> r = DecodeHello(hello_frame.body);
  if (!r.ok()) {
    ::close(fd);
    return;
  }
  const HelloFrame hello = r.value();
  const int p = hello.party_id;
  // Only higher-ranked parties dial this one, and the mesh shape must
  // match; anything else is a stray or misconfigured dialer.
  if (p <= party_id_ || p >= num_parties_ ||
      hello.num_parties != num_parties_) {
    ::close(fd);
    return;
  }
  // Refusals must close *without* completing the handshake: the dialer
  // then counts a failed attempt inside its current reconnection episode
  // and the budget eventually escalates. Acking first would hand the
  // dialer a "successful" connection whose immediate EOF restarts its
  // episode — an unbounded reconnect loop that never aborts.
  //
  // An aborted network must not adopt new connections (a relaunched peer
  // retrying its dial belongs to the *next* attempt's fresh mesh), and a
  // fatal injected sever refuses reconnection outright.
  if (aborted() ||
      links_[p]->refuse_reconnect.load(std::memory_order_acquire)) {
    ::close(fd);
    return;
  }
  // A changed incarnation means the peer process restarted: this mesh's
  // channel state with it is gone. Refuse before acking, so the relaunched
  // dialer keeps retrying until the next attempt's fresh mesh answers.
  uint64_t seen = 0;
  {
    std::lock_guard<std::mutex> lock(links_[p]->mu);
    seen = links_[p]->incarnation_seen;
  }
  if (seen != 0 && seen != hello.incarnation) {
    ::close(fd);
    Abort(Status::ProtocolError(
              "party " + std::to_string(p) +
              " restarted (handshake incarnation changed): its channel "
              "state is gone; aborting so the next attempt re-establishes "
              "the mesh and resumes from checkpoints"),
          party_id_);
    return;
  }
  // Answer with this party's identity before the version check so the
  // dialer can diagnose a mismatch; the mismatched connection is then
  // dropped without being adopted.
  HelloFrame ack;
  ack.version = options_.handshake_version;
  ack.party_id = party_id_;
  ack.num_parties = num_parties_;
  ack.incarnation = incarnation_;
  const Bytes ack_frame =
      EncodeStreamFrame(StreamFrameType::kHelloAck, EncodeHello(ack));
  if (!WriteAllFd(fd, ack_frame.data(), ack_frame.size()).ok() ||
      hello.version != options_.handshake_version) {
    ::close(fd);
    return;
  }
  AdoptConnection(p, fd, hello.incarnation);
}

void SocketNetwork::AdoptConnection(int peer, int fd,
                                    uint64_t peer_incarnation) {
  PeerLink& link = *links_[peer];
  std::vector<std::unique_ptr<LinkGen>> reap;
  {
    std::lock_guard<std::mutex> lock(link.mu);
    if (link.cur) {
      ::shutdown(link.cur->fd, SHUT_RDWR);
      link.cur->outbound->Poison(Status::Aborted("link replaced"));
      link.dead.push_back(std::move(link.cur));
    }
    reap.swap(link.dead);
  }
  // Joining happens outside link.mu: a dying receiver calls NoteDown ->
  // sever -> SeverLink, which takes link.mu; joining it under the lock
  // would deadlock.
  for (std::unique_ptr<LinkGen>& g : reap) {
    if (g->writer.joinable()) g->writer.join();
    if (g->receiver.joinable()) g->receiver.join();
    ::close(g->fd);
  }
  auto gen = std::make_unique<LinkGen>();
  gen->fd = fd;
  gen->outbound = std::make_shared<MessageQueue>();
  LinkGen* raw = gen.get();
  gen->writer = std::thread([this, peer, raw] { WriterLoop(peer, raw); });
  gen->receiver = std::thread([this, peer, raw] { ReceiverLoop(peer, raw); });
  {
    std::lock_guard<std::mutex> lock(link.mu);
    link.cur = std::move(gen);
    link.incarnation_seen = peer_incarnation;
  }
  supervisor_->NoteConnected(peer, NowMs());
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
  }
  conn_cv_.notify_all();
}

void SocketNetwork::SeverLink(int peer, const std::string& reason) {
  PeerLink& link = *links_[peer];
  {
    std::lock_guard<std::mutex> lock(link.mu);
    link.last_down_reason = reason;
    if (!link.cur) return;
    ::shutdown(link.cur->fd, SHUT_RDWR);
    link.cur->outbound->Poison(
        Status::Aborted("connection severed: " + reason));
    link.dead.push_back(std::move(link.cur));
  }
  // Wake Establish's dial-in wait, which ends on a dropped dialed link.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
  }
  conn_cv_.notify_all();
}

void SocketNetwork::EnqueueFrame(int peer, Bytes stream_frame) {
  PeerLink& link = *links_[peer];
  std::shared_ptr<MessageQueue> out;
  {
    std::lock_guard<std::mutex> lock(link.mu);
    if (link.cur) out = link.cur->outbound;
  }
  // No live connection: the frame is dropped here and recovered by the
  // reliable layer's NACK path once the supervisor reconnects.
  if (out) out->Push(std::move(stream_frame));
}

void SocketNetwork::WriterLoop(int peer, LinkGen* gen) {
  PeerLink& link = *links_[peer];
  bool fd_ok = true;
  bool running = true;
  while (running) {
    Result<Bytes> r = gen->outbound->Pop(250);
    if (!r.ok()) {
      // Poison means this generation was retired; a plain timeout means
      // the queue is just idle.
      if (r.status().code() == StatusCode::kAborted) running = false;
      continue;
    }
    if (NowMs() < link.mute_until_ms.load(std::memory_order_relaxed)) {
      continue;  // kMute fault: the connection is "hung", frames vanish
    }
    if (!fd_ok) continue;  // drain without writing; generation is dying
    const Bytes& frame = r.value();
    if (!WriteAllFd(gen->fd, frame.data(), frame.size()).ok()) {
      fd_ok = false;
      // Wake the receiver so supervision learns about the dead link.
      ::shutdown(gen->fd, SHUT_RDWR);
    }
  }
}

void SocketNetwork::ReceiverLoop(int peer, LinkGen* gen) {
  StreamFrameReader reader(kMaxStreamFrameBytes);
  std::vector<uint8_t> buf(64 * 1024);
  std::vector<StreamFrame> frames;
  std::string reason;
  bool open = true;
  while (open && !shutdown_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(gen->fd, buf.data(), buf.size(), 0);
    if (n == 0) {
      reason = "peer closed the connection";
      if (reader.mid_frame()) reason += " mid-frame (partial frame discarded)";
      open = false;
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      reason = std::string("read error: ") + std::strerror(errno);
      open = false;
      continue;
    }
    supervisor_->NoteHeard(peer, NowMs());
    const Status st = reader.Feed(buf.data(), static_cast<size_t>(n), &frames);
    if (!st.ok()) {
      // The stream cannot be resynchronized after a framing violation.
      Abort(Status::ProtocolError("byte stream from party " +
                                  std::to_string(peer) +
                                  " unparseable: " + st.message()),
            party_id_);
      reason = st.message();
      open = false;
      continue;
    }
    for (StreamFrame& f : frames) DispatchFrame(peer, std::move(f));
    frames.clear();
  }
  if (!shutdown_.load(std::memory_order_acquire)) {
    supervisor_->NoteDown(peer, NowMs(),
                          reason.empty() ? "connection lost" : reason);
  }
}

void SocketNetwork::DispatchFrame(int peer, StreamFrame frame) {
  switch (static_cast<StreamFrameType>(frame.type)) {
    case StreamFrameType::kData:
      data_in_[peer]->Push(std::move(frame.body));
      break;
    case StreamFrameType::kNack:
      ctrl_in_[peer]->Push(std::move(frame.body));
      break;
    case StreamFrameType::kHeartbeat:
      break;  // NoteHeard already refreshed liveness
    case StreamFrameType::kAbort: {
      Result<AbortFrame> r = DecodeAbortBody(frame.body);
      if (r.ok()) {
        LocalAbort(Status::Aborted(
            "protocol aborted by party " +
            std::to_string(r.value().origin_party) + ": " +
            r.value().message));
      } else {
        LocalAbort(Status::Aborted("protocol aborted by party " +
                                   std::to_string(peer) +
                                   " (abort notice undecodable)"));
      }
      break;
    }
    case StreamFrameType::kHello:
    case StreamFrameType::kHelloAck:
      break;  // handshakes are consumed before adoption; ignore strays
    default:
      break;  // unknown control types are ignored (forward compatibility)
  }
}

void SocketNetwork::SupervisorLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (options_.on_tick) options_.on_tick();
    const int sleep_ms = supervisor_->Tick(NowMs());
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(sleep_ms), [this] {
      return shutdown_.load(std::memory_order_acquire);
    });
  }
}

bool SocketNetwork::LocalAbort(const Status& recorded) {
  if (!RecordAbort(recorded)) return false;
  conn_cv_.notify_all();
  for (auto& q : data_in_) q->Poison(recorded);
  for (auto& q : ctrl_in_) q->Poison(recorded);
  return true;
}

void SocketNetwork::Abort(Status cause, int origin_party) {
  const Status recorded = Status::Aborted(
      "protocol aborted by party " + std::to_string(origin_party) + ": " +
      cause.ToString());
  if (!LocalAbort(recorded)) return;
  // Best-effort notice so peers blocked in Recv wake immediately instead
  // of waiting out their timeout. Only the originating party broadcasts;
  // received aborts are effects, not causes.
  if (origin_party != party_id_) return;
  AbortFrame notice;
  notice.origin_party = party_id_;
  notice.code = cause.code();
  notice.message = cause.ToString();
  const Bytes frame =
      EncodeStreamFrame(StreamFrameType::kAbort, EncodeAbortBody(notice));
  for (int p = 0; p < num_parties_; ++p) {
    if (p == party_id_) continue;
    EnqueueFrame(p, frame);
  }
}

NetworkStats SocketNetwork::stats() const {
  NetworkStats s;
  s.Add(*endpoint_);
  const int64_t now = NowMs();
  for (int p = 0; p < num_parties_; ++p) {
    if (p == party_id_) continue;
    const PeerHealth h = supervisor_->Health(p, now);
    s.reconnects += h.reconnects;
    s.heartbeats += h.heartbeats_sent;
  }
  return s;
}

std::string SocketNetwork::DescribePeer(int peer) const {
  std::string out = supervisor_->Describe(peer, NowMs());
  PeerLink& link = *links_[peer];
  std::lock_guard<std::mutex> lock(link.mu);
  if (!link.last_down_reason.empty()) {
    out += " (last drop: " + link.last_down_reason + ")";
  }
  return out;
}

// ----- carrier hooks ---------------------------------------------------

void SocketNetwork::PushData(int from, int to, Bytes frame) {
  (void)from;
  EnqueueFrame(to, EncodeStreamFrame(StreamFrameType::kData, frame));
}

void SocketNetwork::PushNack(int from, int to, Bytes body) {
  (void)from;
  EnqueueFrame(to, EncodeStreamFrame(StreamFrameType::kNack, body));
}

void SocketNetwork::ApplyLinkFault(int to, const FaultAction& action) {
  PeerLink& link = *links_[to];
  if (action.kind == FaultKind::kSever) {
    // Cut the connection at this frame. Transient: the supervisor
    // reconnects and NACK recovery refills the gap. Fatal: reconnection
    // is refused, the budget exhausts, the run aborts.
    if (action.fatal) {
      link.refuse_reconnect.store(true, std::memory_order_release);
    }
    SeverLink(to, action.fatal ? "injected fault: connection severed (fatal: "
                                 "reconnection refused)"
                               : "injected fault: connection severed");
  } else if (action.kind == FaultKind::kMute) {
    // Outbound traffic (heartbeats included) vanishes until the deadline;
    // the peer's supervisor detects the silence.
    link.mute_until_ms.store(NowMs() + action.delay_ms,
                             std::memory_order_relaxed);
  }
}

// ----- loopback harness ------------------------------------------------

Status RunLoopbackParties(int num_parties, const SocketOptions& options,
                          const std::function<Status(int, Endpoint&)>& body,
                          NetworkStats* stats,
                          const std::vector<FaultPlan>& plans) {
  PIVOT_CHECK(num_parties >= 1);
  std::vector<std::unique_ptr<SocketNetwork>> nets;
  nets.reserve(num_parties);
  std::vector<std::string> addresses(num_parties);
  for (int i = 0; i < num_parties; ++i) {
    nets.push_back(
        std::make_unique<SocketNetwork>(i, num_parties, options));
    if (!plans.empty() && i < static_cast<int>(plans.size())) {
      nets[i]->set_fault_plan(plans[i]);
    }
    PIVOT_RETURN_IF_ERROR(nets[i]->Bind("127.0.0.1:0"));
    addresses[i] = nets[i]->listen_address();
  }
  std::vector<Status> statuses(num_parties);
  std::vector<std::thread> threads;
  threads.reserve(num_parties);
  for (int i = 0; i < num_parties; ++i) {
    threads.emplace_back([&, i] {
      Status st = nets[i]->Establish(addresses);
      if (st.ok()) st = body(i, nets[i]->endpoint());
      // Abort this party's mesh before the thread exits so peers blocked
      // in Recv wake immediately; the kAbort broadcast carries the cause
      // across processes (here: across networks). Abort echoes are not
      // re-propagated.
      if (!st.ok() && st.code() != StatusCode::kAborted) {
        nets[i]->Abort(st, i);
      }
      statuses[i] = std::move(st);
    });
  }
  for (std::thread& t : threads) t.join();
  if (stats != nullptr) {
    *stats = NetworkStats();
    for (int i = 0; i < num_parties; ++i) {
      stats->Add(nets[i]->endpoint());
      const NetworkStats s = nets[i]->stats();
      stats->reconnects += s.reconnects;
      stats->heartbeats += s.heartbeats;
    }
  }
  return RootCauseStatus(statuses);
}

}  // namespace pivot
