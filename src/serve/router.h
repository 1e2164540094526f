// Scale-out front end: a router that speaks the same length-prefixed JSON
// protocol as serve::Server and consistent-hashes every eval request across
// N backend servers.
//
//   clients ──tcp──► Router ──tcp──► backend 0 (serve::Server)
//                      │    └──tcp──► backend 1
//                      │        ...
//                      ├─ health thread: stats-probe every backend on a
//                      │  timer; probe failure ejects a backend from the
//                      │  healthy mask, the next success reinstates it
//                      └─ metrics listener: GET anything -> Prometheus
//                         plain-text exposition of router + backend counters
//
// Routing policy: the key is the FNV-1a hash of the eval's system name
// (RouteAffinity::kSystem, the default) so all requests for one system land
// on one backend — that keeps each backend's EvalCache and graph-build
// workspaces hot for the systems it owns. kPlacement additionally folds the
// first placement's canonical_hash into the key: identical (system,
// placement) pairs still co-locate (cache hits survive) while distinct
// placements of a single hot system spread across all backends. Requests a
// router cannot attribute (malformed placements, absent system field) route
// on what is parseable; the backend owns rejecting them.
//
// Failure handling: a backend that fails mid-request (connect, write, or
// read) is ejected and the request is retried ONCE on the next healthy
// backend in ring-walk order; a second failure answers the client with the
// typed "upstream_failed" error. Non-eval requests fan out: "load_system"
// and "reload" go to every backend, "stats" merges the router's own
// counters with a live per-backend snapshot.
//
// Connections run on a serve::Listener (serve/listener.h), the same
// accept/reader/stop core as serve::Server; the metrics port is a second,
// one-shot endpoint on it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/hash_ring.h"
#include "serve/listener.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "support/json.h"

namespace chainnet::serve {

/// One backend address in the router's static membership list.
struct BackendAddress {
  std::string host;
  int port = 0;

  std::string label() const { return host + ":" + std::to_string(port); }
};

/// What the routing key is built from; see the header comment.
enum class RouteAffinity {
  kSystem,     ///< system name only: one system -> one backend
  kPlacement,  ///< system name + first placement hash: spreads hot systems
};

struct RouterConfig {
  std::string host = "127.0.0.1";
  int port = 0;          ///< 0 binds an ephemeral port; see Router::port()
  int metrics_port = 0;  ///< Prometheus listener; -1 disables it entirely
  std::vector<BackendAddress> backends;
  int vnodes_per_backend = 128;
  RouteAffinity affinity = RouteAffinity::kSystem;
  /// Health-probe period. Each tick sends `stats` to every backend; the
  /// response doubles as the cached counter snapshot for /metrics.
  double health_interval_ms = 200.0;
  /// Per-attempt bound on connecting to a backend.
  double connect_timeout_ms = 1000.0;
};

/// Router-side counters (the backends keep their own; ServerMetrics).
/// LINT:counters — Counter is the relaxed-atomic type from metrics.h.
struct RouterMetrics {
  Counter connections_accepted;
  Counter requests_total;      ///< every decoded frame, any type
  Counter evals_routed;        ///< eval requests answered by a backend
  Counter retries;             ///< evals re-routed after a backend failure
  Counter upstream_failures;   ///< evals answered with upstream_failed
  Counter fanout_requests;     ///< load_system / reload broadcasts
  Counter parse_errors;
  Counter bad_requests;
  Counter ejections;           ///< healthy -> unhealthy transitions
  Counter reinstatements;      ///< unhealthy -> healthy transitions
  Counter metrics_scrapes;
  LatencyHistogram route_latency;  ///< frame decoded -> response written
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();  // stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the client and metrics listeners and starts the accept + health
  /// threads. Backends do not need to be up yet — the health thread
  /// admits them as they appear. Throws std::runtime_error on bind failure.
  void start();

  /// Actually-bound ports (resolve port 0). Valid after start();
  /// metrics_port() is -1 when the metrics listener is disabled.
  int port() const noexcept { return listener_.port(0); }
  int metrics_port() const noexcept { return listener_.port(1); }

  /// Blocks until a client sends {"type":"shutdown"} or stop() is called;
  /// wait_for is the poll-friendly variant (true = shutdown, false =
  /// timeout).
  void wait() { listener_.wait(); }
  bool wait_for(std::chrono::milliseconds timeout) {
    return listener_.wait_for(timeout);
  }

  /// Stops accepting, joins every thread, closes every socket. Idempotent.
  /// Backends are left running — the router does not own them. Besides the
  /// requests being handled, two things can hold stop() up. A client that
  /// stopped reading its responses: two kClientSendTimeout periods after
  /// the last response byte queued (serve/listener.h has the exact bound).
  /// A reader waiting on a wedged backend (connected, never answering): up
  /// to kUpstreamRecvTimeout (30 s) per round trip.
  void stop();

  const RouterMetrics& metrics() const noexcept { return metrics_; }

  /// Healthy flags by backend index, as the health thread last saw them.
  std::vector<char> healthy_snapshot() const;

  /// The `stats` response body: router counters, per-backend health and a
  /// live (best-effort) stats snapshot from each healthy backend.
  support::Json stats_json() const;

  /// The Prometheus text exposition served on the metrics port.
  std::string prometheus_text() const;

 private:
  void health_loop();
  /// A fresh-connection `stats` round trip to backend `b`; nullopt when the
  /// backend cannot be reached or answers with unparseable bytes.
  std::optional<support::Json> probe_stats(std::size_t b) const;
  /// The metrics endpoint's whole HTTP reply; counts the scrape.
  std::string metrics_http_response();

  // These return the serialized response payload: a routed eval relays the
  // backend's bytes verbatim instead of re-parsing and re-dumping them.
  std::string dispatch(const std::string& payload,
                       std::vector<int>& upstreams);
  std::string route_eval(const support::Json& request,
                         const std::string& payload,
                         std::vector<int>& upstreams);
  std::string fanout(const std::string& payload, std::vector<int>& upstreams);

  /// The consistent-hash key of an eval request (affinity-dependent).
  std::uint64_t routing_key(const support::Json& request) const;

  /// One request/response round trip against backend `b`, using (and
  /// maintaining) the caller's cached connection. A stale cached socket
  /// gets one transparent fresh-connect retry; returns false only when the
  /// backend is genuinely unreachable or misbehaving.
  bool backend_roundtrip(std::size_t b, const std::string& payload,
                         std::string& response, std::vector<int>& upstreams);
  int connect_backend(std::size_t b) const;

  void mark_backend(std::size_t b, bool healthy_now);
  void set_backend_stats(std::size_t b, support::Json stats);

  RouterConfig config_;
  HashRing ring_;
  RouterMetrics metrics_;
  std::vector<std::unique_ptr<Counter>> backend_forwards_;
  std::vector<std::unique_ptr<Counter>> backend_errors_;

  // Health state: written by the health thread and by readers observing a
  // mid-request failure; read on every routing decision.
  mutable std::mutex health_mutex_;
  std::vector<char> healthy_;                  // GUARDED_BY(health_mutex_)
  std::vector<support::Json> backend_stats_;   // GUARDED_BY(health_mutex_)

  std::thread health_thread_;
  // Last, so its connection threads are gone before the state they use.
  Listener listener_{"Router"};
};

}  // namespace chainnet::serve
