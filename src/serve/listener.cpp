#include "serve/listener.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "serve/protocol.h"

namespace chainnet::serve {

struct Listener::Open {
  Endpoint spec;
  int fd = -1;
  int port = -1;
};

struct Listener::Connection {
  int fd = -1;
  std::atomic<bool> done{false};
  std::thread thread;
};

namespace {

/// A non-blocking listening socket on host:port; returns the fd and fills
/// the bound port. Non-blocking so accept() can never block on a
/// connection that aborted between poll() and the call.
int listen_on(const std::string& name, const std::string& host, int port,
              int& bound_port) {
  const auto addr = ipv4_address(host, port);
  if (!addr) throw std::runtime_error(name + ": invalid host '" + host + "'");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(name + ": socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno(name + ": bind/listen on " + host + ":" +
                std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port = static_cast<int>(ntohs(bound.sin_port));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

/// The connection loop of a framed endpoint. It exits after the reply in
/// flight once `stopping` is set: the half-close stop() issues does not
/// discard bytes on Linux, so a peer that keeps pipelining requests (and
/// reading the replies) would otherwise keep the reader serving forever.
void serve_frames(const Endpoint& endpoint, int fd,
                  const std::atomic<bool>& stopping) {
  using Clock = std::chrono::steady_clock;
  const FrameCounters& counters = endpoint.counters;
  const FrameHandler handle = endpoint.session();
  std::string payload;
  std::string frame_error;
  for (;;) {
    const FrameStatus status = read_frame(fd, payload, frame_error);
    if (status == FrameStatus::kClosed) break;
    if (status == FrameStatus::kError) {
      // Framing is unrecoverable — answer once, then hang up.
      counters.parse_errors->add();
      write_frame(fd, error_response(ErrorCode::kParseError, frame_error)
                          .dump());
      break;
    }
    const auto start = Clock::now();
    counters.requests->add();
    std::string response;
    try {
      response = handle(payload);
    } catch (const std::exception& e) {
      // Last-resort guard: an exception escaping this thread would
      // std::terminate the whole process.
      counters.bad_requests->add();
      response = error_response(ErrorCode::kInternal, e.what()).dump();
    }
    const bool written = write_frame(fd, response);
    counters.latency->record(
        std::chrono::duration<double>(Clock::now() - start).count());
    if (!written || stopping.load(std::memory_order_acquire)) break;
  }
}

/// The connection of a one-shot endpoint: best-effort HTTP that every
/// scraper speaks — read whatever request bytes arrive (bounded by the
/// receive timeout), answer once, close.
void serve_one_shot(const Endpoint& endpoint, int fd) {
  char buf[1024];
  while (::recv(fd, buf, sizeof(buf), 0) < 0 && errno == EINTR) {
  }
  const std::string reply = endpoint.reply();
  send_all(fd, reply.data(), reply.size());
  // Deliver EOF now: scrapers read until close, and the fd itself is only
  // reclaimed at the next reap, which may be much later.
  ::shutdown(fd, SHUT_RDWR);
}

}  // namespace

Listener::Listener(std::string name) : name_(std::move(name)) {}

Listener::~Listener() { stop(); }

void Listener::start(std::vector<Endpoint> endpoints,
                     const std::function<void()>& before_accept) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (started_) throw std::runtime_error(name_ + ": already started");
  }
  std::vector<Open> open;
  try {
    for (Endpoint& endpoint : endpoints) {
      Open o{std::move(endpoint)};
      o.fd = listen_on(name_, o.spec.host, o.spec.port, o.port);
      open.push_back(std::move(o));
    }
    if (::pipe(wake_pipe_) != 0) throw_errno(name_ + ": pipe");
    if (before_accept) before_accept();
  } catch (...) {
    for (const Open& o : open) ::close(o.fd);
    for (int& fd : wake_pipe_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    throw;
  }
  endpoints_ = std::move(open);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    started_ = true;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

int Listener::port(std::size_t i) const noexcept {
  return i < endpoints_.size() ? endpoints_[i].port : -1;
}

void Listener::wait() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [this] { return shutdown_requested_ || stopped_; });
}

bool Listener::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(
      lock, timeout, [this] { return shutdown_requested_ || stopped_; });
}

void Listener::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    shutdown_requested_ = true;
  }
  state_cv_.notify_all();
}

bool Listener::stopped_within(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(lock, timeout, [this] { return stopped_; });
}

void Listener::stop(const std::function<void()>& after_accept) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const bool was_running = started_ && !stopped_;
    stopped_ = true;
    if (!was_running) {
      state_cv_.notify_all();
      return;
    }
  }
  state_cv_.notify_all();

  // 1. Stop accepting: a byte down the self-pipe wakes the accept loop's
  //    poll(), which then exits.
  const char wake = 1;
  while (::write(wake_pipe_[1], &wake, 1) < 0 && errno == EINTR) {
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (const Open& o : endpoints_) ::close(o.fd);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);

  // 2. The front-end's own drain, while connections can still be answered.
  if (after_accept) after_accept();

  // 3. Half-close the connections (SHUT_RD): a reader blocked in recv sees
  //    EOF at once (or reads one frame its peer had already queued); one
  //    still handling or writing a response finishes it, then sees
  //    stopping_ and exits. Every socket carries SO_SNDTIMEO, so a peer
  //    that stopped reading (zero TCP window) fails the blocked write
  //    within two kClientSendTimeout periods of the last byte it queued,
  //    and the reader exits.
  stopping_.store(true, std::memory_order_release);
  for (auto& conn : connections_) {
    if (!conn->done.load(std::memory_order_acquire)) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  connections_.clear();
}

bool Listener::woken_within(std::chrono::milliseconds timeout) const {
  pollfd wake{wake_pipe_[0], POLLIN, 0};
  return ::poll(&wake, 1, static_cast<int>(timeout.count())) > 0;
}

void Listener::accept_loop() {
  std::vector<pollfd> fds{{wake_pipe_[0], POLLIN, 0}};
  for (const Open& o : endpoints_) fds.push_back({o.fd, POLLIN, 0});
  for (;;) {
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno != EINTR && woken_within(kAcceptRetryDelay)) return;
      continue;
    }
    if (fds[0].revents != 0) return;  // stop() wrote the wake byte
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd >= 0) {
        admit(endpoints_[i - 1], fd);
        continue;
      }
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      // Out of descriptors or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM): the
      // connection stays queued and poll() would report it again at once.
      // Free what finished connections hold, then back off and retry —
      // never spin, never stop accepting for good.
      reap_finished_connections();
      if (woken_within(kAcceptRetryDelay)) return;
    }
  }
}

void Listener::admit(const Open& endpoint, int fd) {
  set_blocking_with_send_timeout(fd);
  const Endpoint& spec = endpoint.spec;
  if (spec.session) {
    spec.counters.accepted->add();
    set_low_latency(fd);
  } else {
    const timeval timeout{
        static_cast<time_t>(kOneShotRecvTimeout.count()), 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  reap_finished_connections();
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  Connection* raw = conn.get();
  try {
    conn->thread = std::thread([this, &spec, raw] {
      if (spec.session) {
        serve_frames(spec, raw->fd, stopping_);
      } else {
        serve_one_shot(spec, raw->fd);
      }
      raw->done.store(true, std::memory_order_release);
    });
  } catch (const std::system_error&) {
    // Out of threads: drop this connection rather than the accept thread.
    ::close(fd);
    return;
  }
  connections_.push_back(std::move(conn));
}

void Listener::reap_finished_connections() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& conn) {
    if (!conn->done.load(std::memory_order_acquire)) return false;
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
    return true;
  });
}

}  // namespace chainnet::serve
