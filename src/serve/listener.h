// The connection core that serve::Server and serve::Router share: it binds
// the listening sockets, runs the accept thread, gives every accepted
// connection a blocking thread of its own, reaps finished ones, and owns
// the front-end lifecycle (start, wait for a shutdown request, bounded
// stop).
//
// A framed endpoint speaks the length-prefixed protocol of serve/protocol.h:
// its connection loop reads a frame, answers a framing error with one
// parse_error reply and hangs up, hands every decoded frame to the
// front-end's handler, writes the reply and records its latency. A one-shot
// endpoint (the Router's Prometheus scrape) reads whatever the peer sends,
// answers once and closes.
//
// Threading map:
//   accept thread      -> accepts, spawns and reaps connection threads; the
//                         only thread that touches the connection list
//                         until stop() has joined it
//   connection threads -> one per accepted socket, blocking I/O
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.h"

namespace chainnet::serve {

/// Answers one decoded frame with the serialized response payload.
using FrameHandler = std::function<std::string(const std::string& payload)>;

/// The front-end counters a framed endpoint feeds.
struct FrameCounters {
  Counter* accepted = nullptr;      ///< connections accepted
  Counter* requests = nullptr;      ///< every decoded frame
  Counter* parse_errors = nullptr;  ///< framing errors
  Counter* bad_requests = nullptr;  ///< frames whose handler threw
  LatencyHistogram* latency = nullptr;  ///< frame decoded -> reply written
};

/// One listening socket and what its connections run.
struct Endpoint {
  std::string host;
  int port = 0;  ///< 0 binds an ephemeral port; see Listener::port()
  /// Framed endpoints: called on each new connection's thread; the handler
  /// it returns, and any per-connection state it holds, is destroyed when
  /// that connection ends.
  std::function<FrameHandler()> session;
  FrameCounters counters;
  /// One-shot endpoints (no session): the reply sent after the request
  /// bytes arrive or kOneShotRecvTimeout passes.
  std::function<std::string()> reply;
};

/// Bound on reading a one-shot request (an HTTP scrape's request line).
inline constexpr std::chrono::seconds kOneShotRecvTimeout{2};

/// How long the accept loop backs off when accept() fails for want of
/// descriptors or memory, before it tries again.
inline constexpr std::chrono::milliseconds kAcceptRetryDelay{100};

class Listener {
 public:
  /// `name` prefixes error messages ("Server: already started").
  explicit Listener(std::string name);
  ~Listener();  // stop()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds every endpoint, runs `before_accept` (the front-end's workers,
  /// which must exist before a connection can hand them work), then starts
  /// the accept thread. Throws std::runtime_error when already started or
  /// a socket cannot be bound; nothing stays bound when anything throws.
  void start(std::vector<Endpoint> endpoints,
             const std::function<void()>& before_accept = {});

  /// The bound port of endpoint `i` (resolves port 0); -1 when there is no
  /// such endpoint. Valid after start().
  int port(std::size_t i) const noexcept;

  /// Blocks until request_shutdown() or stop(); wait_for returns true under
  /// the same conditions and false on timeout.
  void wait();
  bool wait_for(std::chrono::milliseconds timeout);
  /// Records a client's shutdown request and wakes wait().
  void request_shutdown();
  /// Sleeps up to `timeout`; true as soon as stop() has begun.
  bool stopped_within(std::chrono::milliseconds timeout);

  /// Stops accepting, runs `after_accept` (the front-end's own drain), then
  /// half-closes every connection (SHUT_RD), joins its thread and closes
  /// it. Idempotent; a no-op unless started.
  ///
  /// Bound: a reader finishes the request it is handling (or, if it was
  /// waiting for one, the first its peer had already queued: the
  /// half-close keeps queued bytes), then exits; a peer that keeps
  /// pipelining cannot hold it.
  /// A reply write to a peer that stopped reading fails at the first send
  /// call that queues nothing within kClientSendTimeout (serve/protocol.h),
  /// so it ends two send timeouts after the last byte it queued: usually
  /// two after the handler, but the kernel may let a stuck write queue more
  /// later. A handler blocked elsewhere holds stop() until it returns.
  void stop(const std::function<void()>& after_accept = {});

 private:
  struct Open;
  struct Connection;

  void accept_loop();
  void admit(const Open& endpoint, int fd);
  void reap_finished_connections();
  bool woken_within(std::chrono::milliseconds timeout) const;

  const std::string name_;

  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool started_ = false;             // GUARDED_BY(state_mutex_)
  bool stopped_ = false;             // GUARDED_BY(state_mutex_)
  bool shutdown_requested_ = false;  // GUARDED_BY(state_mutex_)

  // Written by start() before the accept thread exists; read-only after.
  std::vector<Open> endpoints_;
  // Self-pipe that stop() writes to so the accept loop's poll() wakes
  // portably (shutdown() on a listening socket is Linux-specific).
  int wake_pipe_[2] = {-1, -1};
  // Accept thread only, then stop() once it has joined that thread.
  std::vector<std::unique_ptr<Connection>> connections_;
  // Set by stop() before it half-closes the connections; framed readers
  // exit after the reply in flight once they see it.
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

}  // namespace chainnet::serve
