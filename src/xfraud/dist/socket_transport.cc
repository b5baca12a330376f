#include "xfraud/dist/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "xfraud/common/bytes.h"
#include "xfraud/common/logging.h"
#include "xfraud/common/retry.h"
#include "xfraud/common/rng.h"
#include "xfraud/obs/registry.h"

namespace xfraud::dist {

namespace {

// Connection budgets no caller tunes: one dial, the whole cluster
// assembling at the rendezvous, and the re-dial policy for a host or ring
// successor that is not listening yet.
constexpr double kConnectTimeoutS = 10.0;
constexpr double kRendezvousTimeoutS = 60.0;
const RetryPolicy kConnectRetry{.max_attempts = 50,
                                .initial_backoff_s = 0.002,
                                .max_backoff_s = 0.25,
                                .deadline_s = 60.0};

std::string ErrnoText(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(ErrnoText("fcntl(O_NONBLOCK)"));
  }
  return Status::OK();
}

/// Waits for `events` readiness. Polls in <=100ms slices so an unlimited
/// deadline still re-checks errno state periodically; the budget itself
/// comes from the Deadline (whose clock was injected by the caller). The
/// returned events land in `*revents` when it is non-null.
Status PollFor(int fd, short events, const Deadline& deadline,
               short* revents = nullptr) {
  for (;;) {
    double remaining = deadline.RemainingSeconds();
    if (remaining <= 0.0) {
      return Status::DeadlineExceeded("socket wait timed out");
    }
    int slice_ms = 100;
    if (!deadline.unlimited()) {
      slice_ms = static_cast<int>(
          std::min(remaining * 1000.0 + 1.0, 100.0));
      slice_ms = std::max(slice_ms, 1);
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, slice_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoText("poll"));
    }
    // POLLHUP/POLLERR are reported through the subsequent read/write,
    // which maps them onto Unavailable with a precise message.
    if (rc > 0) {
      if (revents != nullptr) *revents = pfd.revents;
      return Status::OK();
    }
  }
}

struct SockAddr {
  union {
    struct sockaddr base;
    struct sockaddr_un un;
    struct sockaddr_in in;
  } addr;
  socklen_t len = 0;
  int family = AF_UNIX;
};

Result<SockAddr> ToSockAddr(const Endpoint& ep) {
  SockAddr out;
  std::memset(&out.addr, 0, sizeof(out.addr));
  if (ep.kind == Endpoint::Kind::kUnix) {
    out.family = AF_UNIX;
    if (ep.path.size() + 1 > sizeof(out.addr.un.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + ep.path);
    }
    out.addr.un.sun_family = AF_UNIX;
    std::memcpy(out.addr.un.sun_path, ep.path.c_str(), ep.path.size() + 1);
    out.len = static_cast<socklen_t>(sizeof(out.addr.un));
    return out;
  }
  out.family = AF_INET;
  out.addr.in.sin_family = AF_INET;
  out.addr.in.sin_port = htons(ep.port);
  std::string host = ep.host.empty() || ep.host == "localhost"
                         ? std::string("127.0.0.1")
                         : ep.host;
  if (::inet_pton(AF_INET, host.c_str(), &out.addr.in.sin_addr) != 1) {
    return Status::InvalidArgument("tcp endpoint host must be an IPv4 "
                                   "literal or 'localhost', got " +
                                   ep.host);
  }
  out.len = static_cast<socklen_t>(sizeof(out.addr.in));
  return out;
}

}  // namespace

Result<UniqueFd> ListenOn(const Endpoint& ep, Endpoint* bound) {
  Result<SockAddr> addr = ToSockAddr(ep);
  if (!addr.ok()) return addr.status();
  UniqueFd fd(::socket(addr.value().family, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError(ErrnoText("socket"));
  XF_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  if (ep.kind == Endpoint::Kind::kUnix) {
    ::unlink(ep.path.c_str());  // a stale file from a crashed run
  } else {
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd.get(), &addr.value().addr.base, addr.value().len) != 0) {
    return Status::IoError(ErrnoText("bind " + ep.ToString()));
  }
  if (::listen(fd.get(), 64) != 0) {
    return Status::IoError(ErrnoText("listen " + ep.ToString()));
  }
  if (bound != nullptr) {
    *bound = ep;
    if (ep.kind == Endpoint::Kind::kTcp && ep.port == 0) {
      struct sockaddr_in got;
      socklen_t got_len = static_cast<socklen_t>(sizeof(got));
      if (::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&got),
                        &got_len) != 0) {
        return Status::IoError(ErrnoText("getsockname"));
      }
      bound->port = ntohs(got.sin_port);
    }
  }
  return fd;
}

Result<UniqueFd> DialEndpoint(const Endpoint& ep, const Deadline& deadline,
                              Clock* clock) {
  (void)clock;
  Result<SockAddr> addr = ToSockAddr(ep);
  if (!addr.ok()) return addr.status();
  UniqueFd fd(::socket(addr.value().family, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError(ErrnoText("socket"));
  XF_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  if (::connect(fd.get(), &addr.value().addr.base, addr.value().len) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      // ECONNREFUSED / ENOENT: the peer is not listening (yet) — IoError so
      // RetryWithBackoff keeps dialing.
      return Status::IoError(ErrnoText("connect " + ep.ToString()));
    }
    XF_RETURN_IF_ERROR(PollFor(fd.get(), POLLOUT, deadline));
    int err = 0;
    socklen_t err_len = static_cast<socklen_t>(sizeof(err));
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      errno = err != 0 ? err : errno;
      return Status::IoError(ErrnoText("connect " + ep.ToString()));
    }
  }
  if (ep.kind == Endpoint::Kind::kTcp) {
    int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Result<UniqueFd> AcceptWithDeadline(int listener, const Deadline& deadline,
                                    Clock* clock) {
  (void)clock;
  for (;;) {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd >= 0) {
      UniqueFd out(fd);
      XF_RETURN_IF_ERROR(SetNonBlocking(out.get()));
      return out;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      // Transient: wait for the next pending connection. A shut-down
      // listener polls as hung up with nothing left to accept.
      short revents = 0;
      XF_RETURN_IF_ERROR(PollFor(listener, POLLIN, deadline, &revents));
      if ((revents & POLLHUP) != 0) {
        return Status::Unavailable("listener was shut down");
      }
      continue;
    }
    return Status::IoError(ErrnoText("accept"));
  }
}

Status SendAllBytes(int fd, const void* data, size_t n,
                    const Deadline& deadline, Clock* clock) {
  (void)clock;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  size_t left = n;
  while (left > 0) {
    ssize_t sent = ::send(fd, p, left, MSG_NOSIGNAL);
    if (sent > 0) {
      p += sent;
      left -= static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      XF_RETURN_IF_ERROR(PollFor(fd, POLLOUT, deadline));
      continue;
    }
    if (sent < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Status::Unavailable("peer closed the ring connection");
    }
    return Status::IoError(ErrnoText("send"));
  }
  return Status::OK();
}

Status RecvAllBytes(int fd, void* data, size_t n, const Deadline& deadline,
                    Clock* clock) {
  (void)clock;
  unsigned char* p = static_cast<unsigned char*>(data);
  size_t left = n;
  while (left > 0) {
    ssize_t got = ::recv(fd, p, left, 0);
    if (got > 0) {
      p += got;
      left -= static_cast<size_t>(got);
      continue;
    }
    if (got == 0) {
      return Status::Unavailable("peer closed the ring connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      XF_RETURN_IF_ERROR(PollFor(fd, POLLIN, deadline));
      continue;
    }
    if (errno == ECONNRESET) {
      return Status::Unavailable("peer reset the ring connection");
    }
    return Status::IoError(ErrnoText("recv"));
  }
  return Status::OK();
}

Status SendFrame(int fd, FrameHeader header, const void* payload, size_t n,
                 const Deadline& deadline, Clock* clock) {
  SealFramePayload(&header, payload, n);
  const std::string buf = EncodeFrameHeader(header);
  XF_RETURN_IF_ERROR(SendAllBytes(fd, buf.data(), buf.size(), deadline, clock));
  if (n > 0) {
    XF_RETURN_IF_ERROR(SendAllBytes(fd, payload, n, deadline, clock));
  }
  return Status::OK();
}

Status SendFrameCorrupting(int fd, FrameHeader header, const void* payload,
                           size_t n, int64_t corrupt_byte,
                           const Deadline& deadline, Clock* clock) {
  if (corrupt_byte < 0 || static_cast<uint64_t>(corrupt_byte) >= n) {
    return SendFrame(fd, header, payload, n, deadline, clock);
  }
  SealFramePayload(&header, payload, n);  // CRC of the *clean* payload
  std::vector<unsigned char> damaged(
      static_cast<const unsigned char*>(payload),
      static_cast<const unsigned char*>(payload) + n);
  damaged[static_cast<size_t>(corrupt_byte)] ^= 0x40;
  const std::string buf = EncodeFrameHeader(header);
  XF_RETURN_IF_ERROR(SendAllBytes(fd, buf.data(), buf.size(), deadline, clock));
  return SendAllBytes(fd, damaged.data(), damaged.size(), deadline, clock);
}

Result<FrameHeader> RecvFrameHeader(int fd, const Deadline& deadline,
                                    Clock* clock) {
  std::array<unsigned char, kFrameHeaderBytes> buf;
  XF_RETURN_IF_ERROR(RecvAllBytes(fd, buf.data(), buf.size(), deadline, clock));
  return DecodeFrameHeader(buf.data());
}

Status RecvFramePayload(int fd, const FrameHeader& header,
                        std::vector<unsigned char>* payload,
                        const Deadline& deadline, Clock* clock) {
  payload->resize(header.payload_bytes);
  if (!payload->empty()) {
    XF_RETURN_IF_ERROR(RecvAllBytes(fd, payload->data(), payload->size(),
                                    deadline, clock));
  }
  return VerifyFramePayload(header, payload->data(), payload->size());
}

Status RecvFrameInto(int fd, FrameType want, void* payload,
                     size_t payload_bytes, const Deadline& deadline,
                     Clock* clock) {
  Result<FrameHeader> header = RecvFrameHeader(fd, deadline, clock);
  if (!header.ok()) return header.status();
  if (header.value().type != want) {
    return Status::Corruption(
        "frame type mismatch: want " +
        std::to_string(static_cast<int>(want)) + ", got " +
        std::to_string(static_cast<int>(header.value().type)));
  }
  if (header.value().payload_bytes != payload_bytes) {
    return Status::Corruption(
        "frame payload mismatch: want " + std::to_string(payload_bytes) +
        " bytes, got " + std::to_string(header.value().payload_bytes));
  }
  if (payload_bytes > 0) {
    XF_RETURN_IF_ERROR(
        RecvAllBytes(fd, payload, payload_bytes, deadline, clock));
  }
  return VerifyFramePayload(header.value(), payload, payload_bytes);
}

Result<int> WaitAnyReadable(const std::vector<int>& fds,
                            const Deadline& deadline, Clock* clock) {
  (void)clock;
  if (fds.empty()) {
    return Status::InvalidArgument("WaitAnyReadable needs at least one fd");
  }
  std::vector<struct pollfd> pfds(fds.size());
  for (;;) {
    double remaining = deadline.RemainingSeconds();
    if (remaining <= 0.0) {
      return Status::DeadlineExceeded("socket wait timed out");
    }
    int slice_ms = 100;
    if (!deadline.unlimited()) {
      slice_ms =
          static_cast<int>(std::min(remaining * 1000.0 + 1.0, 100.0));
      slice_ms = std::max(slice_ms, 1);
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      pfds[i].fd = fds[i];
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
    }
    int rc = ::poll(pfds.data(), pfds.size(), slice_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoText("poll"));
    }
    if (rc > 0) {
      for (size_t i = 0; i < pfds.size(); ++i) {
        // HUP/ERR surface as readability: the next read maps them onto a
        // precise Unavailable, same as the single-fd PollFor contract.
        if (pfds[i].revents != 0) return static_cast<int>(i);
      }
    }
  }
}

// ---- SocketCommunicator ----------------------------------------------------

struct SocketCommunicator::Impl {
  int rank = 0;
  int world = 1;
  uint64_t generation = 0;
  double op_timeout_s = 60.0;
  Clock* clock = nullptr;

  UniqueFd pred;
  UniqueFd succ;
  uint64_t seq = 0;  // collective sequence number, validated on every frame
  Status broken = Status::OK();
  double comm_seconds = 0.0;
  int64_t bytes_on_wire = 0;
  std::vector<unsigned char> scratch;
  std::vector<float> scratch_f32;
  std::vector<double> scratch_f64;

  template <typename T>
  std::vector<T>& ScratchFor() {
    if constexpr (std::is_same_v<T, float>) {
      return scratch_f32;
    } else {
      return scratch_f64;
    }
  }

  obs::Counter* frames_sent = nullptr;
  obs::Counter* bytes_sent = nullptr;
  obs::Counter* comm_errors = nullptr;
  obs::Histogram* op_seconds = nullptr;

  void CloseRing() {
    pred.Reset();
    succ.Reset();
  }

  Status Send(FrameType type, uint16_t flags, const void* payload, size_t n,
              const Deadline& deadline) {
    FrameHeader header;
    header.type = type;
    header.flags = flags;
    header.rank = static_cast<uint32_t>(rank);
    header.seq = seq;
    XF_RETURN_IF_ERROR(
        SendFrame(succ.get(), header, payload, n, deadline, clock));
    frames_sent->Increment();
    bytes_sent->Add(static_cast<int64_t>(n + kFrameHeaderBytes));
    bytes_on_wire += static_cast<int64_t>(n + kFrameHeaderBytes);
    return Status::OK();
  }

  /// Receives a fixed-size frame from the predecessor and validates the
  /// full signature (type, dtype flags, sequence number).
  Status Recv(FrameType type, uint16_t flags, void* payload, size_t n,
              const Deadline& deadline) {
    Result<FrameHeader> header = RecvFrameHeader(pred.get(), deadline, clock);
    if (!header.ok()) return header.status();
    XF_RETURN_IF_ERROR(ValidateHeader(header.value(), type, flags, n));
    if (n > 0) {
      XF_RETURN_IF_ERROR(RecvAllBytes(pred.get(), payload, n, deadline, clock));
    }
    return VerifyFramePayload(header.value(), payload, n);
  }

  Status ValidateHeader(const FrameHeader& header, FrameType type,
                        uint16_t flags, size_t n) const {
    if (header.type != type || header.flags != flags) {
      return Status::Corruption(
          "collective mismatch: rank " + std::to_string(rank) +
          " expected frame type " + std::to_string(static_cast<int>(type)) +
          "/" + std::to_string(flags) + ", got " +
          std::to_string(static_cast<int>(header.type)) + "/" +
          std::to_string(header.flags));
    }
    if (header.seq != seq) {
      return Status::Corruption(
          "collective out of order: rank " + std::to_string(rank) +
          " at seq " + std::to_string(seq) + " received seq " +
          std::to_string(header.seq));
    }
    if (header.payload_bytes != n) {
      return Status::Corruption(
          "collective payload mismatch: want " + std::to_string(n) +
          " bytes, got " + std::to_string(header.payload_bytes));
    }
    return Status::OK();
  }

  template <typename T>
  static constexpr uint16_t DtypeFlag() {
    return static_cast<uint16_t>(std::is_same_v<T, float>
                                     ? FrameDtype::kFloat32
                                     : FrameDtype::kFloat64);
  }

  /// Two-pass ring all-reduce. Pass 1 walks the partial sum from rank 0
  /// around the ring — each rank computes (partial-from-left + own), which
  /// is exactly the ascending-rank left fold of the contract. Pass 2 walks
  /// the finished sum back around. 2·world-1 frames total.
  template <typename T>
  Status RingAllReduce(std::span<T> data) {
    const size_t bytes = data.size() * sizeof(T);
    const uint16_t dtype = DtypeFlag<T>();
    const Deadline deadline = Deadline::After(clock, op_timeout_s);
    if (rank == 0) {
      XF_RETURN_IF_ERROR(
          Send(FrameType::kReduce, dtype, data.data(), bytes, deadline));
      XF_RETURN_IF_ERROR(
          Recv(FrameType::kReduce, dtype, data.data(), bytes, deadline));
      return Send(FrameType::kResult, dtype, data.data(), bytes, deadline);
    }
    std::vector<T>& partial = ScratchFor<T>();
    partial.resize(data.size());
    XF_RETURN_IF_ERROR(
        Recv(FrameType::kReduce, dtype, partial.data(), bytes, deadline));
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = partial[i] + data[i];
    }
    XF_RETURN_IF_ERROR(
        Send(FrameType::kReduce, dtype, data.data(), bytes, deadline));
    XF_RETURN_IF_ERROR(
        Recv(FrameType::kResult, dtype, data.data(), bytes, deadline));
    if (rank != world - 1) {
      return Send(FrameType::kResult, dtype, data.data(), bytes, deadline);
    }
    return Status::OK();
  }

  template <typename T>
  Status RingBroadcast(std::span<T> data, int root) {
    const size_t bytes = data.size() * sizeof(T);
    const uint16_t dtype = DtypeFlag<T>();
    const Deadline deadline = Deadline::After(clock, op_timeout_s);
    const int distance = (rank - root + world) % world;
    if (distance == 0) {
      return Send(FrameType::kBroadcast, dtype, data.data(), bytes, deadline);
    }
    XF_RETURN_IF_ERROR(
        Recv(FrameType::kBroadcast, dtype, data.data(), bytes, deadline));
    if (distance != world - 1) {
      return Send(FrameType::kBroadcast, dtype, data.data(), bytes, deadline);
    }
    return Status::OK();
  }

  /// Entries accumulate around the ring from root's successor toward root:
  /// [u32 rank][u64 count][count f32] per contributor.
  Status RingGather(std::span<const float> send, int root,
                    std::vector<std::vector<float>>* recv) {
    const Deadline deadline = Deadline::After(clock, op_timeout_s);
    const int distance = (rank - root + world) % world;
    auto append_own = [&](std::vector<unsigned char>* buf) {
      ByteWriter entry;
      entry.U32(static_cast<uint32_t>(rank)).U64(send.size());
      entry.Array(send.data(), send.size());
      const std::string bytes = entry.Release();
      buf->insert(buf->end(), bytes.begin(), bytes.end());
    };
    if (distance == 0) {  // root
      if (recv == nullptr) {
        return Status::InvalidArgument("gather root needs a recv buffer");
      }
      recv->assign(static_cast<size_t>(world), {});
      (*recv)[static_cast<size_t>(root)].assign(send.begin(), send.end());
      Result<FrameHeader> header =
          RecvFrameHeader(pred.get(), deadline, clock);
      if (!header.ok()) return header.status();
      XF_RETURN_IF_ERROR(ValidateHeader(header.value(), FrameType::kGather, 0,
                                        header.value().payload_bytes));
      XF_RETURN_IF_ERROR(RecvFramePayload(pred.get(), header.value(),
                                          &scratch, deadline, clock));
      ByteReader in(scratch.data(), scratch.size());
      for (int i = 0; i < world - 1; ++i) {
        const uint32_t from = in.U32();
        const uint64_t count = in.ReadCount(sizeof(float));
        if (!in.ok() || from >= static_cast<uint32_t>(world) ||
            !in.Array(count, &(*recv)[from])) {
          return Status::Corruption("gather entry malformed");
        }
      }
      return Status::OK();
    }
    std::vector<unsigned char> buf;
    if (distance > 1) {  // splice the upstream entries in front of ours
      Result<FrameHeader> header =
          RecvFrameHeader(pred.get(), deadline, clock);
      if (!header.ok()) return header.status();
      XF_RETURN_IF_ERROR(ValidateHeader(header.value(), FrameType::kGather, 0,
                                        header.value().payload_bytes));
      XF_RETURN_IF_ERROR(
          RecvFramePayload(pred.get(), header.value(), &buf, deadline, clock));
    }
    append_own(&buf);
    return Send(FrameType::kGather, 0, buf.data(), buf.size(), deadline);
  }

  template <typename Fn>
  Status Guarded(Fn&& op) {
    if (!broken.ok()) return broken;
    if (world == 1) {
      // Single-rank cluster: every collective is the identity.
      ++seq;
      return Status::OK();
    }
    const double start_s = clock->NowSeconds();
    ++seq;
    Status s = op();
    const double elapsed = clock->NowSeconds() - start_s;
    comm_seconds += elapsed;
    op_seconds->Record(elapsed);
    if (!s.ok()) {
      comm_errors->Increment();
      broken = s;
      // Waking the neighbours with EOF makes failure detection cascade
      // around the ring instead of waiting out op_timeout everywhere.
      CloseRing();
    }
    return s;
  }
};

SocketCommunicator::SocketCommunicator(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

SocketCommunicator::~SocketCommunicator() { Shutdown(); }

int SocketCommunicator::rank() const { return impl_->rank; }
int SocketCommunicator::size() const { return impl_->world; }
uint64_t SocketCommunicator::generation() const { return impl_->generation; }
double SocketCommunicator::comm_seconds() const {
  return impl_->comm_seconds;
}
int64_t SocketCommunicator::bytes_on_wire() const {
  return impl_->bytes_on_wire;
}

void SocketCommunicator::Shutdown() { impl_->CloseRing(); }

Status SocketCommunicator::AllReduceSum(std::span<float> data) {
  return impl_->Guarded([&] { return impl_->RingAllReduce(data); });
}
Status SocketCommunicator::AllReduceSum(std::span<double> data) {
  return impl_->Guarded([&] { return impl_->RingAllReduce(data); });
}
Status SocketCommunicator::Broadcast(std::span<double> data, int root) {
  if (root < 0 || root >= impl_->world) {
    return Status::InvalidArgument("broadcast root out of range");
  }
  return impl_->Guarded([&] { return impl_->RingBroadcast(data, root); });
}
Status SocketCommunicator::Gather(std::span<const float> send, int root,
                                  std::vector<std::vector<float>>* recv) {
  if (root < 0 || root >= impl_->world) {
    return Status::InvalidArgument("gather root out of range");
  }
  if (impl_->world == 1) {
    if (recv == nullptr) {
      return Status::InvalidArgument("gather root needs a recv buffer");
    }
    recv->assign(1, std::vector<float>(send.begin(), send.end()));
    ++impl_->seq;
    return Status::OK();
  }
  return impl_->Guarded([&] { return impl_->RingGather(send, root, recv); });
}

Result<std::unique_ptr<SocketCommunicator>> SocketCommunicator::Connect(
    const SocketCommOptions& options, RendezvousHost* host) {
  auto impl = std::make_unique<Impl>();
  impl->rank = options.rank;
  impl->world = options.world;
  impl->generation = options.generation;
  impl->op_timeout_s = options.op_timeout_s;
  impl->clock = Clock::Real();
  auto& registry = obs::Registry::Global();
  impl->frames_sent = registry.counter("dist/comm/frames_sent");
  impl->bytes_sent = registry.counter("dist/comm/bytes_sent");
  impl->comm_errors = registry.counter("dist/comm/errors");
  impl->op_seconds = registry.histogram("dist/comm/op_seconds");
  XF_CHECK(options.rank >= 0 && options.rank < options.world);
  if (options.world == 1) {
    return std::make_unique<SocketCommunicator>(std::move(impl));
  }
  XF_CHECK_EQ(host != nullptr, options.rank == 0);
  Clock* clock = impl->clock;

  // Ring listener first: a successor's connect() completes against the
  // listen backlog even before we accept, so creating every listener before
  // anyone dials rules out the circular-dial deadlock.
  Endpoint ring_ep;
  if (options.rendezvous.kind == Endpoint::Kind::kUnix) {
    std::string::size_type slash = options.rendezvous.path.rfind('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : options.rendezvous.path.substr(0, slash);
    ring_ep.kind = Endpoint::Kind::kUnix;
    ring_ep.path = dir + "/ring-" + std::to_string(options.rank) + ".sock";
  } else {
    ring_ep.kind = Endpoint::Kind::kTcp;
    ring_ep.host = options.rendezvous.host;
    ring_ep.port = 0;
  }
  Endpoint bound;
  Result<UniqueFd> listener = ListenOn(ring_ep, &bound);
  if (!listener.ok()) return listener.status();
  ring_ep = bound;

  const Deadline rendezvous_deadline =
      Deadline::After(clock, kRendezvousTimeoutS);
  Endpoint succ_ep;
  if (options.rank == 0) {
    Result<Endpoint> assigned = host->Exchange(
        ring_ep, options.generation, rendezvous_deadline, clock);
    if (!assigned.ok()) return assigned.status();
    succ_ep = assigned.value();
  } else {
    uint64_t host_generation = options.generation;
    Result<Endpoint> assigned = JoinRendezvous(
        options.rendezvous, options.rank, options.world, ring_ep,
        options.generation, rendezvous_deadline,
        options.generation == 0 ? kConnectRetry : RetryPolicy{}, clock,
        &host_generation);
    if (!assigned.ok()) return assigned.status();
    succ_ep = assigned.value();
    impl->generation = host_generation;
  }

  // Dial the successor (its listener has existed since before it joined the
  // rendezvous) and introduce ourselves.
  const uint64_t jitter_seed = Rng::StreamSeed(
      impl->generation, static_cast<uint64_t>(options.rank) + 0x52494E47ULL);
  Status dialed = RetryWithBackoff(kConnectRetry, jitter_seed, [&]() -> Status {
    Result<UniqueFd> fd = DialEndpoint(
        succ_ep, Deadline::After(clock, kConnectTimeoutS), clock);
    if (!fd.ok()) return fd.status();
    impl->succ = std::move(fd.value());
    return Status::OK();
  });
  if (!dialed.ok()) return dialed;
  FrameHeader hello;
  hello.type = FrameType::kHello;
  hello.rank = static_cast<uint32_t>(options.rank);
  hello.seq = impl->generation;
  XF_RETURN_IF_ERROR(SendFrame(impl->succ.get(), hello, nullptr, 0,
                               rendezvous_deadline, clock));

  // Accept the predecessor; drop strays (e.g. a half-open dial from a
  // previous generation) until the expected rank introduces itself.
  const int want_pred = (options.rank - 1 + options.world) % options.world;
  for (;;) {
    Result<UniqueFd> accepted =
        AcceptWithDeadline(listener.value().get(), rendezvous_deadline, clock);
    if (!accepted.ok()) return accepted.status();
    Result<FrameHeader> peer_hello =
        RecvFrameHeader(accepted.value().get(), rendezvous_deadline, clock);
    if (!peer_hello.ok()) continue;
    if (peer_hello.value().type != FrameType::kHello ||
        peer_hello.value().rank != static_cast<uint32_t>(want_pred) ||
        peer_hello.value().seq != impl->generation) {
      continue;
    }
    impl->pred = std::move(accepted.value());
    break;
  }
  if (ring_ep.kind == Endpoint::Kind::kUnix) {
    ::unlink(ring_ep.path.c_str());
  }
  return std::make_unique<SocketCommunicator>(std::move(impl));
}

}  // namespace xfraud::dist
