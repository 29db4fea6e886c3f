#include "comms/socket.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>

#include "support/parallel.h"

namespace svelat::comms {

namespace {

constexpr std::uint32_t kMagic = 0x53564c54;  // "SVLT"

struct FrameHeader {
  std::uint32_t magic;
  std::int32_t from;
  std::int32_t to;
  std::int32_t tag;
  std::uint64_t bytes;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SVELAT_ASSERT_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                    "fcntl(O_NONBLOCK) failed");
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SocketCommunicator::SocketCommunicator(int nranks, int my_rank,
                                       std::vector<int> peer_fds, int recv_timeout_ms)
    : nranks_(nranks),
      rank_(my_rank),
      recv_timeout_ms_(recv_timeout_ms),
      peer_fds_(std::move(peer_fds)),
      peer_status_(static_cast<std::size_t>(nranks), CommStatus::kOk),
      partial_(static_cast<std::size_t>(nranks)) {
  SVELAT_ASSERT_MSG(nranks > 0, "need at least one rank");
  check_rank(my_rank);
  SVELAT_ASSERT_MSG(static_cast<int>(peer_fds_.size()) == nranks,
                    "need one descriptor slot per rank");
  static_assert(sizeof(FrameHeader) == kHeaderBytes, "wire frame header is 24 bytes");
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    SVELAT_ASSERT_MSG(peer_fds_[static_cast<std::size_t>(r)] >= 0, "bad peer descriptor");
    set_nonblocking(peer_fds_[static_cast<std::size_t>(r)]);
  }
}

SocketCommunicator::~SocketCommunicator() {
  for (int r = 0; r < nranks_; ++r) {
    const int fd = peer_fds_[static_cast<std::size_t>(r)];
    if (r != rank_ && fd >= 0) ::close(fd);
  }
}

CommStatus SocketCommunicator::try_send(int from, int to, int tag,
                                        const std::vector<std::uint8_t>& payload) {
  SVELAT_ASSERT_MSG(from == rank_, "a socket endpoint sends only from its own rank");
  check_rank(to);
  if (to == rank_) {  // loop back locally, no wire involved
    inbox_[Key{rank_, tag}].push_back(payload);
    bytes_sent_ += payload.size();
    return CommStatus::kOk;
  }
  if (const CommStatus st = peer_state(to); st != CommStatus::kOk) return st;
  const FrameHeader h{kMagic, from, to, tag, payload.size()};
  if (const CommStatus st =
          write_frame(to, reinterpret_cast<const std::uint8_t*>(&h), payload);
      st != CommStatus::kOk) {
    // A frame that timed out before its first byte left nothing on the
    // wire; anything else desynchronized the stream for good.
    if (st != CommStatus::kTimeout) peer_status_[static_cast<std::size_t>(to)] = st;
    return st;
  }
  bytes_sent_ += payload.size();
  return CommStatus::kOk;
}

CommStatus SocketCommunicator::write_frame(int to, const std::uint8_t* header,
                                           const std::vector<std::uint8_t>& payload) {
  const int fd = peer_fds_[static_cast<std::size_t>(to)];
  const std::size_t total = kHeaderBytes + payload.size();
  std::size_t done = 0;
  std::int64_t deadline = now_ms() + recv_timeout_ms_;
  while (done < total) {
    // Header and payload leave in one sendmsg() where the buffer allows.
    struct iovec iov[2];
    int parts = 0;
    if (done < kHeaderBytes)
      iov[parts++] = {const_cast<std::uint8_t*>(header) + done, kHeaderBytes - done};
    const std::size_t off = done < kHeaderBytes ? 0 : done - kHeaderBytes;
    if (off < payload.size())
      iov[parts++] = {const_cast<std::uint8_t*>(payload.data()) + off,
                      payload.size() - off};
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(parts);
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a fatal SIGPIPE.
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      done += static_cast<std::size_t>(w);
      deadline = now_ms() + recv_timeout_ms_;
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The peer's buffer is full: it may be blocked writing to us.  Take
      // in what every peer has sent so far, then wait for room.
      for (int r = 0; r < nranks_; ++r) (void)pump(r);
      const std::int64_t left = deadline - now_ms();
      if (left <= 0)
        // The peer stopped draining its socket.  Recoverable only if the
        // frame has not started.
        return done == 0 ? CommStatus::kTimeout : CommStatus::kTornFrame;
      wait_io(to, static_cast<int>(left));
      continue;
    }
    // EPIPE / ECONNRESET: the peer is gone mid-conversation.
    return (errno == EPIPE || errno == ECONNRESET) ? CommStatus::kPeerExited
                                                   : CommStatus::kIoError;
  }
  return CommStatus::kOk;
}

bool SocketCommunicator::pump(int peer) {
  if (peer == rank_ || peer_state(peer) != CommStatus::kOk) return false;
  const int fd = peer_fds_[static_cast<std::size_t>(peer)];
  PartialFrame& f = partial_[static_cast<std::size_t>(peer)];
  CommStatus& verdict = peer_status_[static_cast<std::size_t>(peer)];
  bool arrived = false;
  for (;;) {
    const bool in_header = f.got < kHeaderBytes;
    std::uint8_t* dst =
        in_header ? f.header + f.got : f.payload.data() + (f.got - kHeaderBytes);
    const std::size_t want =
        in_header ? kHeaderBytes - f.got : f.payload.size() - (f.got - kHeaderBytes);
    const ssize_t r = ::recv(fd, dst, want, 0);
    if (r == 0) {
      // EOF on a frame boundary: the peer completed its sends and exited
      // (its descriptor polls readable forever, hence the sticky verdict).
      // EOF inside a frame: the peer died mid-write.
      verdict = f.got == 0 ? CommStatus::kPeerExited : CommStatus::kTornFrame;
      return arrived;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) verdict = CommStatus::kIoError;
      return arrived;
    }
    arrived = true;
    f.got += static_cast<std::size_t>(r);
    if (f.got == kHeaderBytes) {
      FrameHeader h;
      std::memcpy(&h, f.header, sizeof h);
      if (h.magic != kMagic || h.from != peer || h.to != rank_) {
        verdict = CommStatus::kDesync;  // desynchronized or misrouted
        return arrived;
      }
      f.tag = h.tag;
      f.payload.resize(h.bytes);
    }
    if (f.got == kHeaderBytes + f.payload.size()) {
      inbox_[Key{peer, f.tag}].push_back(std::move(f.payload));
      f = PartialFrame{};
    }
  }
}

void SocketCommunicator::wait_io(int out, int timeout_ms) {
  std::vector<struct pollfd> fds;
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    // Skip peers whose stream already ended: they poll readable forever.
    short events = peer_state(r) == CommStatus::kOk ? POLLIN : 0;
    if (r == out) events |= POLLOUT;
    if (events != 0) fds.push_back({peer_fds_[static_cast<std::size_t>(r)], events, 0});
  }
  while (::poll(fds.data(), fds.size(), timeout_ms) < 0)
    SVELAT_ASSERT_MSG(errno == EINTR, "poll failed");
}

bool SocketCommunicator::take(const Key& k, std::vector<std::uint8_t>& out) {
  auto it = inbox_.find(k);
  if (it == inbox_.end() || it->second.empty()) return false;
  out = std::move(it->second.front());
  it->second.pop_front();
  return true;
}

CommStatus SocketCommunicator::try_recv(int to, int from, int tag,
                                        std::vector<std::uint8_t>& out) {
  SVELAT_ASSERT_MSG(to == rank_, "a socket endpoint receives only at its own rank");
  check_rank(from);
  const Key k{from, tag};
  if (take(k, out)) return CommStatus::kOk;
  // Self-sends loop back in try_send(); nothing can arrive later.
  if (from == rank_) return CommStatus::kNoMessage;
  std::int64_t deadline = now_ms() + recv_timeout_ms_;
  for (;;) {
    // Pump every peer, not just `from`, so none blocks writing to us.
    bool arrived = false;
    for (int r = 0; r < nranks_; ++r)
      if (pump(r) && r == from) arrived = true;
    if (take(k, out)) return CommStatus::kOk;
    if (const CommStatus st = peer_state(from); st != CommStatus::kOk)
      return st;  // the awaited message can never arrive
    // A frame whose bytes keep arriving gets a fresh timeout; silence
    // inside a started frame cannot be resynchronized.
    const bool started = partial_[static_cast<std::size_t>(from)].got > 0;
    const std::int64_t now = now_ms();
    if (arrived && started) deadline = now + recv_timeout_ms_;
    if (now >= deadline) {
      if (!started) return CommStatus::kTimeout;
      peer_status_[static_cast<std::size_t>(from)] = CommStatus::kTornFrame;
      return CommStatus::kTornFrame;
    }
    wait_io(-1, static_cast<int>(deadline - now));
  }
}

bool SocketCommunicator::has_pending(int to, int from, int tag) {
  SVELAT_ASSERT_MSG(to == rank_, "a socket endpoint receives only at its own rank");
  check_rank(from);
  (void)pump(from);
  auto it = inbox_.find(Key{from, tag});
  return it != inbox_.end() && !it->second.empty();
}

std::vector<std::vector<int>> make_socket_mesh(int nranks) {
  SVELAT_ASSERT_MSG(nranks > 0, "need at least one rank");
  std::vector<std::vector<int>> mesh(
      static_cast<std::size_t>(nranks),
      std::vector<int>(static_cast<std::size_t>(nranks), -1));
  for (int i = 0; i < nranks; ++i) {
    for (int j = i + 1; j < nranks; ++j) {
      int sv[2];
      SVELAT_ASSERT_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                        "socketpair failed");
      mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = sv[0];
      mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = sv[1];
    }
  }
  return mesh;
}

SocketWorld::SocketWorld(int nranks, int recv_timeout_ms) {
  auto mesh = make_socket_mesh(nranks);
  for (int r = 0; r < nranks; ++r)
    comms_.push_back(std::make_unique<SocketCommunicator>(
        nranks, r, std::move(mesh[static_cast<std::size_t>(r)]), recv_timeout_ms));
}

std::string RankExit::describe() const {
  std::ostringstream os;
  if (exited) {
    if (exit_code == 0)
      os << "exit 0";
    else if (exit_code == kCommFailureExitCode)
      os << "comm failure (exit " << exit_code << ")";
    else if (exit_code == kUncaughtExceptionExitCode)
      os << "uncaught exception (exit " << exit_code << ")";
    else
      os << "exit " << exit_code;
  } else {
    const char* name = ::strsignal(term_signal);
    os << "killed by signal " << term_signal << " (" << (name ? name : "?") << ")";
  }
  if (!ok() && !log_path.empty()) os << "; log " << log_path;
  return os.str();
}

std::string LaunchReport::describe() const {
  std::ostringstream os;
  os << (ok ? "all ranks ok" : "rank failure:");
  for (const RankExit& e : ranks)
    os << " [rank " << e.rank << ": " << e.describe() << "]";
  return os.str();
}

LaunchReport run_ranks(int nranks,
                       const std::function<int(int, SocketCommunicator&)>& body,
                       const LaunchOptions& options) {
  auto mesh = make_socket_mesh(nranks);
  std::vector<pid_t> pids;

  for (int r = 0; r < nranks; ++r) {
    std::fflush(nullptr);  // don't duplicate parent's buffered output into children
    const pid_t pid = ::fork();
    SVELAT_ASSERT_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // Rank process.  The parent's OpenMP worker threads do not exist
      // here; force every parallel construct onto the serial path before
      // any lattice code runs.
      set_force_serial(true);
      if (!options.log_dir.empty()) {
        const std::string path = options.log_dir + "/rank" + std::to_string(r) + ".log";
        if (std::freopen(path.c_str(), "w", stdout) != nullptr)
          ::dup2(::fileno(stdout), ::fileno(stderr));
      }
      for (int i = 0; i < nranks; ++i) {
        if (i == r) continue;
        for (int j = 0; j < nranks; ++j) {
          const int fd = mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (fd >= 0) ::close(fd);
        }
      }
      int code = 1;
      {
        SocketCommunicator comm(nranks, r, std::move(mesh[static_cast<std::size_t>(r)]),
                                options.recv_timeout_ms);
        // A typed communication failure (a peer crashed, a frame tore)
        // becomes a per-rank exit verdict, not a job-wide abort: the
        // launcher's LaunchReport attributes it to this rank.
        try {
          code = body(r, comm);
        } catch (const CommError& e) {
          std::fprintf(stderr, "rank %d: %s\n", r, e.what());
          code = kCommFailureExitCode;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "rank %d: uncaught exception: %s\n", r, e.what());
          code = kUncaughtExceptionExitCode;
        }
      }
      std::fflush(nullptr);
      ::_exit(code & 0xff);  // no atexit / gtest teardown in rank processes
    }
    pids.push_back(pid);
  }

  // The parent holds no endpoint; close everything so rank hangups surface
  // as EPIPE/EOF at the peers instead of idling in kernel buffers.
  for (auto& row : mesh)
    for (int fd : row)
      if (fd >= 0) ::close(fd);

  LaunchReport report;
  report.ok = true;
  for (int r = 0; r < nranks; ++r) {
    int status = 0;
    pid_t w;
    do {
      w = ::waitpid(pids[static_cast<std::size_t>(r)], &status, 0);
    } while (w < 0 && errno == EINTR);
    RankExit e;
    e.rank = r;
    if (!options.log_dir.empty())
      e.log_path = options.log_dir + "/rank" + std::to_string(r) + ".log";
    if (w == pids[static_cast<std::size_t>(r)] && WIFEXITED(status)) {
      e.exited = true;
      e.exit_code = WEXITSTATUS(status);
    } else if (w == pids[static_cast<std::size_t>(r)] && WIFSIGNALED(status)) {
      e.term_signal = WTERMSIG(status);
    }
    if (!e.ok()) report.ok = false;
    report.ranks.push_back(e);
  }
  return report;
}

}  // namespace svelat::comms
