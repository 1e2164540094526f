// `serve`: the online serving path under open-loop load. One generator
// thread sends pre-built, length-prefixed eval frames (serve/protocol.h) on
// a Poisson schedule fixed before timing, pipelined over 4 connections to
// a serve::Router with placement affinity in front of 2 in-process
// serve::Server backends. Each backend runs the CLI-default surrogate
// (hidden 32, 4 iterations) on one pool worker behind one EvalCache the
// backends share. Two tenant systems of different sizes (20 and 40
// devices); requests carry 1 or 8 placements from per-tenant SA walks, and
// a fixed share repeats from a small hot set, so cheap cache hits and
// GNN-bound misses mix at small, ragged, mixed-system batch widths.
//
// Every request is timed from its scheduled send, so a stall also charges
// the requests queued behind it. Open-loop phases run back to back: a low
// rate, a high rate below the knee, and a fixed ladder of rates from which
// the highest rate meeting the SLO is interpolated. All rates are absolute
// constants below, never derived from a measured capacity. A final
// closed-loop `peak` phase keeps one request in flight per connection; its
// throughput and median latency are the bounded metrics, because on a
// shared host they repeat between runs where the open-loop figures swing
// with the host's wake-up latency (see README.md).
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/surrogate.h"
#include "edge/graph.h"
#include "gnn/plan.h"
#include "optim/annealing.h"
#include "optim/initial.h"
#include "runtime/eval_cache.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/rng.h"

namespace perfbench {
namespace {

using namespace chainnet;
using support::Json;

constexpr int kBackends = 2;
constexpr int kConnections = 4;
constexpr int kTenantDevices[2] = {20, 40};
constexpr int kChains = 6;           ///< chains per tenant
constexpr int kFragments = 42;       ///< kChains x the Table-VII mean of 7
constexpr int kHotPerTenant = 16;    ///< distinct hot requests per tenant
constexpr double kHotShare = 0.3;    ///< share of requests from the hot set
constexpr double kBatchShare = 0.15; ///< share of fresh requests with 8
constexpr int kBatchPlacements = 8;
constexpr int kMaxBatch = 32;        ///< server flush size (and plan widths)
constexpr int kCheckEvery = 25;      ///< reference-check every 25th OK reply

// Load shape (requests/s) and service-level objective.
constexpr double kLowRps = 50.0;
constexpr double kHighRps = 200.0;
constexpr double kLadderRps[] = {200.0, 260.0, 320.0, 380.0, 440.0, 500.0};
constexpr double kSloMs = 50.0;        ///< p90 client latency limit
constexpr double kShedLimit = 0.01;    ///< max failed-or-shed share
constexpr double kLagLimitMs = 50.0;   ///< generator validity limit
// Share of --seconds each phase gets (the ladder splits its share evenly).
constexpr double kLowShare = 0.15;
constexpr double kHighShare = 0.15;
constexpr double kLadderShare = 0.25;
/// The closed-loop `peak` share, run as three equal chunks (after `low`,
/// after `high`, after the ladder) so that its median chunk spans most of
/// the run rather than one stretch of it.
constexpr double kPeakShare = 0.45;
/// Requests planned per second of the closed-loop `peak` phase; more than
/// 4 connections can complete, so the phase always runs for its full time.
constexpr double kPeakPlanRps = 1000.0;
constexpr double kDrainSeconds = 10.0; ///< wait for replies after a phase
/// Fleet start-ups timed back to back before the window and again after
/// it. One takes a few milliseconds, so a median needs many. They are not
/// spread through the run as `search` and `train` spread theirs: a fleet
/// started while another lives, or started afresh for each phase, leaves
/// its threads' malloc arenas behind, which raised peak RSS by 40 % to
/// more than double, by different amounts from run to run.
constexpr int kSetupRepeats = 15;

core::ChainNetConfig model_config() { return core::ChainNetConfig{}; }

std::string tenant_name(int t) { return t == 0 ? "tenant-a" : "tenant-b"; }

/// A request to send: its frame and, for sampled requests, the inputs the
/// reference check needs.
struct Request {
  std::string frame;
  int tenant = 0;
  std::vector<edge::Placement> placements;  // kept for checked requests only
};

struct Planned {
  double at = 0.0;  ///< scheduled send, seconds from the phase start
  int request = 0;
};

struct Phase {
  std::string name;
  double rate = 0.0;     ///< requests per second
  double seconds = 0.0;  ///< length of the schedule
  std::vector<Planned> plan;
  /// Closed loop: each connection sends its next planned request as soon
  /// as its previous reply arrives (schedule times unused), until
  /// `seconds` have passed.
  bool closed = false;
};

/// Outcome of one planned send.
struct Sent {
  double scheduled = 0.0;
  double sent = -1.0;
  double received = -1.0;
  std::string reply;
};

struct Backend {
  std::vector<std::unique_ptr<core::ChainNet>> models;
  std::unique_ptr<runtime::ThreadPool> pool;
  std::unique_ptr<runtime::EvalService> service;
  std::unique_ptr<serve::Server> server;
};

/// The tenants and the traffic sent to them, made before any timing.
struct ServeInputs {
  std::vector<edge::EdgeSystem> tenants;
  std::vector<Request> requests;
  std::vector<Phase> phases;
};

/// The system set-up brings up: backends, router and client connections.
struct Fleet {
  std::shared_ptr<runtime::EvalCache> cache;
  std::vector<std::unique_ptr<Backend>> backends;
  std::unique_ptr<serve::Router> router;
  std::vector<int> fds;

  ~Fleet() {
    for (const int fd : fds) ::close(fd);
    if (router) router->stop();
    for (auto& b : backends) b->server->stop();
  }
};

std::string frame_of(const std::string& payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string frame(4, '\0');
  frame[0] = static_cast<char>((n >> 24) & 0xff);
  frame[1] = static_cast<char>((n >> 16) & 0xff);
  frame[2] = static_cast<char>((n >> 8) & 0xff);
  frame[3] = static_cast<char>(n & 0xff);
  return frame + payload;
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the router");
  }
  serve::set_low_latency(fd);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Inputs: tenants, SA-walk placements, request frames and schedules. The
/// two tenants are the fleet's deployment and stay the same for every seed
/// (the cost of a request differed by a fifth between seeds' tenants, which
/// would read as run-to-run noise); the seed varies the traffic: walks,
/// request mix, arrival times and model weights.
ServeInputs make_inputs(const Options& options) {
  ServeInputs inputs;
  constexpr std::uint64_t kDeploymentSeed = 2024;
  // EvalCache keys on the placement alone, so the shared cache is only
  // sound while no placement of one tenant is a placement of the other:
  // the second tenant is redrawn until its chain lengths differ.
  const auto lengths = [](const edge::EdgeSystem& system) {
    std::vector<int> out;
    for (const auto& chain : system.chains) out.push_back(chain.length());
    return out;
  };
  inputs.tenants.push_back(sized_problem(kTenantDevices[0], kChains,
                                         kFragments,
                                         derive_seed(kDeploymentSeed, 500)));
  for (std::uint64_t draw = 501;; ++draw) {
    auto system = sized_problem(kTenantDevices[1], kChains, kFragments,
                                derive_seed(kDeploymentSeed, draw));
    if (lengths(system) != lengths(inputs.tenants[0])) {
      inputs.tenants.push_back(std::move(system));
      break;
    }
  }

  std::vector<edge::Placement> walk_at(2);
  std::vector<support::Rng> walk_rng;
  for (int t = 0; t < 2; ++t) {
    walk_at[t] = optim::initial_placement(inputs.tenants[t]);
    walk_rng.emplace_back(derive_seed(options.seed, 510 + t));
  }
  const optim::SaConfig moves;
  const auto next_placement = [&](int t) {
    edge::Placement next;
    if (optim::propose_move(inputs.tenants[t], walk_at[t], walk_rng[t],
                            moves, next)) {
      walk_at[t] = next;
    }
    return walk_at[t];
  };
  support::Rng mix(derive_seed(options.seed, 520));
  int checked = 0;
  const auto add_request = [&](int t, int count) {
    Request request;
    request.tenant = t;
    std::vector<edge::Placement> placements;
    for (int i = 0; i < count; ++i) placements.push_back(next_placement(t));
    request.frame = frame_of(
        serve::make_eval_request(placements, tenant_name(t), 0.0).dump());
    if (checked++ % kCheckEvery == 0) request.placements = placements;
    inputs.requests.push_back(std::move(request));
    return static_cast<int>(inputs.requests.size()) - 1;
  };
  std::vector<std::vector<int>> hot(2);
  for (int t = 0; t < 2; ++t) {
    for (int h = 0; h < kHotPerTenant; ++h) {
      const int count = h % 4 == 0 ? kBatchPlacements : 1;
      hot[t].push_back(add_request(t, count));
    }
  }

  const Phase peak{"peak", kPeakPlanRps, kPeakShare * options.seconds / 3.0,
                   {}, true};
  inputs.phases = {{"low", kLowRps, kLowShare * options.seconds, {}},
                   peak,
                   {"high", kHighRps, kHighShare * options.seconds, {}},
                   peak};
  const double rung_s =
      kLadderShare * options.seconds / std::size(kLadderRps);
  for (const double rate : kLadderRps) {
    inputs.phases.push_back({"ladder", rate, rung_s, {}});
  }
  inputs.phases.push_back(peak);
  support::Rng arrivals(derive_seed(options.seed, 530));
  for (Phase& phase : inputs.phases) {
    for (double at = arrivals.exponential(1.0 / phase.rate); at < phase.seconds;
         at += arrivals.exponential(1.0 / phase.rate)) {
      const int t = mix.bernoulli(0.5) ? 1 : 0;
      int id = 0;
      if (mix.bernoulli(kHotShare)) {
        id = hot[t][static_cast<std::size_t>(
            mix.uniform_int(0, kHotPerTenant - 1))];
      } else {
        id = add_request(t, mix.bernoulli(kBatchShare) ? kBatchPlacements : 1);
      }
      phase.plan.push_back({at, id});
    }
  }
  return inputs;
}

/// Starts the backends and the router, compiles every plan the timed
/// phases can replay (both tenants, every flush width) on each backend, and
/// connects the client.
std::unique_ptr<Fleet> start_fleet(const Options& options,
                                   const ServeInputs& inputs, Tracer& tracer) {
  auto fleet = std::make_unique<Fleet>();
  fleet->cache = std::make_shared<runtime::EvalCache>();
  serve::RouterConfig router_config;
  router_config.affinity = serve::RouteAffinity::kPlacement;
  router_config.metrics_port = -1;
  const std::uint64_t weights_seed = derive_seed(options.seed, 540);
  for (int b = 0; b < kBackends; ++b) {
    auto backend = std::make_unique<Backend>();
    Backend* raw = backend.get();
    auto cache = fleet->cache;
    runtime::EvalService::EvaluatorFactory factory =
        [raw, cache, weights_seed, &tracer](support::Rng)
        -> std::unique_ptr<optim::PlacementEvaluator> {
      raw->models.push_back(seeded_chainnet(model_config(), weights_seed));
      std::unique_ptr<optim::PlacementEvaluator> oracle =
          std::make_unique<optim::SurrogateEvaluator>(
              core::Surrogate(*raw->models.back()));
      if (tracer.enabled()) {
        oracle = std::make_unique<TimingEvaluator>(std::move(oracle), tracer,
                                                   model_config());
      }
      return std::make_unique<runtime::CachedEvaluator>(std::move(oracle),
                                                        cache);
    };
    backend->pool = std::make_unique<runtime::ThreadPool>(1);
    backend->service = std::make_unique<runtime::EvalService>(
        *backend->pool, std::move(factory), derive_seed(options.seed, 550 + b));
    serve::ServerConfig server_config;
    server_config.max_batch = kMaxBatch;
    server_config.cache = fleet->cache;
    backend->server =
        std::make_unique<serve::Server>(*backend->service, server_config);
    for (int t = 0; t < 2; ++t) {
      backend->server->add_system(tenant_name(t), inputs.tenants[t]);
    }
    backend->server->start();
    router_config.backends.push_back({"127.0.0.1", backend->server->port()});

    gnn::PlanShape shape;
    const auto config = model_config();
    shape.hidden = config.hidden;
    shape.iterations = config.iterations;
    shape.attention_heads = config.attention_heads;
    shape.modified_outputs = config.modified_outputs;
    shape.attention_aggregation = config.attention_aggregation;
    shape.dtype = config.dtype;
    for (const auto& system : inputs.tenants) {
      const auto graph = edge::build_graph(system,
                                           optim::initial_placement(system),
                                           edge::FeatureMode::kModified);
      for (int width = 1; width <= kMaxBatch; ++width) {
        backend->service->plan_cache()->lookup_or_compile(graph, shape, width);
      }
    }
    fleet->backends.push_back(std::move(backend));
  }
  fleet->router = std::make_unique<serve::Router>(router_config);
  fleet->router->start();
  for (int c = 0; c < kConnections; ++c) {
    fleet->fds.push_back(connect_to(fleet->router->port()));
  }
  return fleet;
}

/// Drives one phase open-loop: sends every planned frame at its scheduled
/// instant on the connection with the fewest replies outstanding, and
/// reads replies as they arrive. Returns false on a transport failure.
bool drive(const ServeInputs& inputs, Fleet& fleet, const Phase& phase,
           std::vector<Sent>& sent, double& lag_max_ms,
           Clock::time_point& t0) {
  struct Conn {
    std::deque<std::size_t> waiting;  // planned indices, in send order
    std::string out;
    std::size_t out_pos = 0;
    std::string in;
  };
  std::vector<Conn> conns(fleet.fds.size());
  sent.assign(phase.plan.size(), Sent{});
  t0 = Clock::now() + std::chrono::milliseconds(5);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::vector<pollfd> pfds(fleet.fds.size());
  const auto rel_now = [&] { return seconds_between(t0, Clock::now()); };
  const auto due = [&](double now) {
    if (next >= phase.plan.size()) return false;
    if (!phase.closed) return phase.plan[next].at <= now;
    return now >= 0.0 && now < phase.seconds && outstanding < conns.size();
  };
  for (;;) {
    double now = rel_now();
    while (due(now)) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < conns.size(); ++c) {
        if (conns[c].waiting.size() < conns[best].waiting.size()) best = c;
      }
      Conn& conn = conns[best];
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
      conn.out += inputs.requests[static_cast<std::size_t>(
                                     phase.plan[next].request)]
                      .frame;
      conn.waiting.push_back(next);
      sent[next].scheduled = phase.closed ? now : phase.plan[next].at;
      sent[next].sent = now;
      lag_max_ms = std::max(lag_max_ms, 1e3 * (now - sent[next].scheduled));
      ++outstanding;
      ++next;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      while (conn.out_pos < conn.out.size()) {
        const ssize_t n =
            ::send(fleet.fds[c], conn.out.data() + conn.out_pos,
                   conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_pos += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          return false;
        }
      }
    }
    const double schedule_end =
        phase.closed ? phase.seconds : phase.plan.back().at;
    const bool sending =
        next < phase.plan.size() && (!phase.closed || now < phase.seconds);
    if (!sending && outstanding == 0) {
      sent.resize(next);  // a closed phase leaves the rest unsent
      return true;
    }
    double wait_s = kDrainSeconds;
    if (sending && !phase.closed) {
      wait_s = phase.plan[next].at - now;
    } else if (sending) {
      wait_s = phase.seconds - now;
    } else if (now - schedule_end > kDrainSeconds) {
      return false;  // replies stopped coming
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c] = {fleet.fds[c], POLLIN, 0};
      if (conns[c].out_pos < conns[c].out.size()) pfds[c].events |= POLLOUT;
    }
    const double clamped = std::clamp(wait_s, 0.0, 0.1);
    timespec ts{static_cast<time_t>(clamped),
                static_cast<long>((clamped - std::floor(clamped)) * 1e9)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    now = rel_now();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns[c];
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(fleet.fds[c], buf, sizeof buf, 0);
        if (n > 0) {
          conn.in.append(buf, static_cast<std::size_t>(n));
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          return false;
        }
      }
      std::size_t pos = 0;
      while (conn.in.size() - pos >= 4) {
        const auto* p = reinterpret_cast<const unsigned char*>(conn.in.data()) +
                        pos;
        const std::size_t len = (std::size_t{p[0]} << 24) |
                                (std::size_t{p[1]} << 16) |
                                (std::size_t{p[2]} << 8) | std::size_t{p[3]};
        if (conn.in.size() - pos - 4 < len) break;
        if (conn.waiting.empty()) return false;  // reply nobody asked for
        Sent& s = sent[conn.waiting.front()];
        conn.waiting.pop_front();
        s.received = now;
        s.reply.assign(conn.in, pos + 4, len);
        pos += 4 + len;
        --outstanding;
      }
      conn.in.erase(0, pos);
    }
  }
}

/// Per-phase tallies, failures split by type.
struct PhaseResult {
  std::vector<double> latency_ms;  ///< failed requests count as +inf
  std::uint64_t sent = 0, ok = 0, overloaded = 0, deadline = 0, upstream = 0,
                other = 0, transport = 0;
  std::uint64_t backlog_at_end = 0;  ///< unanswered when the schedule ended
  double last_reply_s = 0.0;  ///< when the phase's last reply arrived
  double p50() const { return quantile(latency_ms, 0.50); }
  double p90() const { return quantile(latency_ms, 0.90); }
  double p99() const { return quantile(latency_ms, 0.99); }
  std::uint64_t failed() const {
    return overloaded + deadline + upstream + other + transport;
  }
  double shed_share() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(failed()) / static_cast<double>(sent);
  }
};

PhaseResult tally(const Phase& phase, const std::vector<Sent>& sent,
                  std::vector<std::pair<int, Json>>& checks,
                  const std::vector<Request>& requests) {
  PhaseResult r;
  const double inf = std::numeric_limits<double>::infinity();
  const double end = phase.plan.empty() ? 0.0 : phase.plan.back().at;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    ++r.sent;
    r.last_reply_s = std::max(r.last_reply_s, s.received);
    if (s.received < 0.0 || s.received > end) ++r.backlog_at_end;
    if (s.received < 0.0) {
      ++r.transport;
      r.latency_ms.push_back(inf);
      continue;
    }
    Json reply;
    try {
      reply = Json::parse(s.reply);
    } catch (const std::exception&) {
      ++r.transport;
      r.latency_ms.push_back(inf);
      continue;
    }
    if (reply.has("ok") && reply.at("ok").is_bool() &&
        reply.at("ok").as_bool()) {
      ++r.ok;
      r.latency_ms.push_back(1e3 * (s.received - s.scheduled));
      const int id = phase.plan[i].request;
      if (!requests[static_cast<std::size_t>(id)].placements.empty()) {
        checks.emplace_back(id, reply);
      }
      continue;
    }
    r.latency_ms.push_back(inf);
    const std::string code =
        reply.has("error") ? reply.at("error").get_string("code", "") : "";
    if (code == "overloaded") {
      ++r.overloaded;
    } else if (code == "deadline_exceeded") {
      ++r.deadline;
    } else if (code == "upstream_failed") {
      ++r.upstream;
    } else {
      ++r.other;
    }
  }
  return r;
}

/// How far a rung is from meeting the SLO: the worst of p90 over the limit,
/// failed-or-shed share over its limit, and replies still owed when the
/// schedule ended over an SLO's worth of arrivals. <= 1 meets the SLO.
double slo_score(const PhaseResult& r, double rate) {
  const double p90 = r.p90();
  const double latency = std::isfinite(p90) ? p90 / kSloMs : 1e3;
  const double shed = r.shed_share() / kShedLimit;
  const double backlog =
      static_cast<double>(r.backlog_at_end) / (rate * kSloMs / 1e3);
  return std::max({latency, shed, backlog, 1e-3});
}

/// The rate at which the SLO score reaches 1, from a least-squares line of
/// log(score) against offered rate over every rung. Near the knee a single
/// rung's tail latency swings widely between identical runs; the fit over
/// the whole ladder does not hinge on which rung happened to pass. Clamped
/// to the ladder (from half its first rung to its last).
double max_rate_at_slo(const std::vector<double>& rates,
                       const std::vector<double>& scores) {
  const double n = static_cast<double>(rates.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    // Clamped, so that a deeply overloaded rung does not outweigh the rest.
    const double y = std::log(std::clamp(scores[i], 0.1, 10.0));
    sx += rates[i];
    sy += y;
    sxx += rates[i] * rates[i];
    sxy += rates[i] * y;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  const double intercept = (sy - slope * sx) / n;
  if (!(slope > 0.0)) return rates.back();  // no rise in load: never failed
  return std::clamp(-intercept / slope, rates.front() / 2.0, rates.back());
}

}  // namespace

Outcome run_serve(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const ServeInputs inputs = make_inputs(options);
  SetupTimes setup;
  const auto start = [&] { return start_fleet(options, inputs, tracer); };
  auto fleet = setup.before(start, kSetupRepeats);
  std::uint64_t compiles_after_setup = 0;
  for (const auto& b : fleet->backends) {
    compiles_after_setup += b->service->plan_cache()->stats().compiles;
  }

  const std::int64_t root = tracer.begin("workload.serve", -1);
  std::vector<PhaseResult> results;
  std::vector<std::pair<int, Json>> checks;
  double lag_max_ms = 0.0;
  std::vector<Sent> sent;
  for (const Phase& phase : inputs.phases) {
    const std::int64_t span = tracer.begin("serve.phase", root);
    tracer.set_current_parent(span);
    Clock::time_point t0;
    if (!drive(inputs, *fleet, phase, sent, lag_max_ms, t0)) {
      outcome.invalid_reason = "transport failure during phase " + phase.name;
      return outcome;
    }
    tracer.set_current_parent(-1);
    tracer.end(span, phase.plan.size());
    if (tracer.enabled()) {
      // Client-side request spans: scheduled send to reply.
      const double base = tracer.since_epoch(t0);
      for (const Sent& s : sent) {
        tracer.record("serve.request", base + s.scheduled, base + s.received,
                      span, 1);
      }
    }
    results.push_back(tally(phase, sent, checks, inputs.requests));
  }
  tracer.end(root, results.size());

  // Reference check, outside the timing: sampled OK replies must equal a
  // scalar surrogate with the same weights, bit for bit.
  auto reference_model =
      seeded_chainnet(model_config(), derive_seed(options.seed, 540));
  const core::Surrogate reference(*reference_model);
  for (const auto& [id, reply] : checks) {
    const Request& request = inputs.requests[static_cast<std::size_t>(id)];
    const auto& values = reply.at("values").as_array();
    bool ok = values.size() == request.placements.size();
    for (std::size_t i = 0; ok && i < values.size(); ++i) {
      ok = same_bits(values[i].as_number(),
                     reference.total_throughput(inputs.tenants[request.tenant],
                                                request.placements[i]));
    }
    outcome.check(ok, "serve: reply to request " + std::to_string(id) +
                          " differs from the reference surrogate");
  }
  outcome.check(!checks.empty(), "serve: no reply was reference-checked");

  if (lag_max_ms > kLagLimitMs) {
    outcome.invalid_reason = "generator ran " + std::to_string(lag_max_ms) +
                             " ms late (limit " + std::to_string(kLagLimitMs) +
                             " ms)";
    return outcome;
  }

  PhaseResult total;
  for (const PhaseResult& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.overloaded += r.overloaded;
    total.deadline += r.deadline;
    total.upstream += r.upstream;
    total.other += r.other;
    total.transport += r.transport;
  }
  const PhaseResult* low = nullptr;
  const PhaseResult* high = nullptr;
  std::vector<const PhaseResult*> rungs;
  std::vector<double> ladder_rates, ladder_scores, peak_rates, peak_ms;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Phase& phase = inputs.phases[i];
    const PhaseResult& r = results[i];
    if (phase.name == "low") {
      low = &r;
    } else if (phase.name == "high") {
      high = &r;
    } else if (phase.name == "ladder") {
      rungs.push_back(&r);
      ladder_rates.push_back(phase.rate);
      ladder_scores.push_back(slo_score(r, phase.rate));
    } else {
      peak_rates.push_back(static_cast<double>(r.ok) / r.last_reply_s);
      peak_ms.insert(peak_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    }
  }
  const double max_rps = max_rate_at_slo(ladder_rates, ladder_scores);
  const double peak_rps = median(peak_rates);

  outcome.attempted = total.sent;
  outcome.failed = total.failed();
  outcome.unit_cost = 1.0 / peak_rps;
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
  outcome.add("rate_per_s", peak_rps, "1/s");
  outcome.add("p50_ms", quantile(peak_ms, 0.50), "ms");

  auto& d = outcome.detail;
  d["low_p50_ms"] = Json(low->p50());
  d["low_p99_ms"] = Json(low->p99());
  d["high_p50_ms"] = Json(high->p50());
  d["high_p90_ms"] = Json(high->p90());
  d["high_p99_ms"] = Json(high->p99());
  d["max_rps_at_slo"] = Json(max_rps);
  d["peak_rps"] = Json(peak_rps);
  d["peak_p90_ms"] = Json(quantile(peak_ms, 0.90));
  Json::Array ladder;
  for (std::size_t i = 0; i < ladder_rates.size(); ++i) {
    Json rung;
    rung["rps"] = Json(ladder_rates[i]);
    rung["p90_ms"] = Json(rungs[i]->p90());
    rung["p99_ms"] = Json(rungs[i]->p99());
    rung["score"] = Json(ladder_scores[i]);
    rung["backlog"] = Json(static_cast<double>(rungs[i]->backlog_at_end));
    ladder.push_back(std::move(rung));
  }
  d["ladder"] = Json(std::move(ladder));
  d["sent"] = Json(static_cast<double>(total.sent));
  d["ok"] = Json(static_cast<double>(total.ok));
  d["failed_overloaded"] = Json(static_cast<double>(total.overloaded));
  d["failed_deadline_exceeded"] = Json(static_cast<double>(total.deadline));
  d["failed_upstream_failed"] = Json(static_cast<double>(total.upstream));
  d["failed_other"] = Json(static_cast<double>(total.other));
  d["failed_transport"] = Json(static_cast<double>(total.transport));
  d["generator_lag_ms_max"] = Json(lag_max_ms);
  d["checked_replies"] = Json(static_cast<double>(checks.size()));
  std::uint64_t compiles = 0;
  for (const auto& b : fleet->backends) {
    compiles += b->service->plan_cache()->stats().compiles;
  }
  d["plan_compiles_in_window"] =
      Json(static_cast<double>(compiles - compiles_after_setup));

  if (tracer.enabled()) {
    const auto spans = tracer.spans();
    const ForwardTotals forward = forward_totals(spans);
    const double request_s = total_seconds(spans, "serve.request");
    const Json router = fleet->router->stats_json();
    const Json& route = router.at("route_latency");
    const double router_s =
        route.at("mean_s").as_number() * route.at("count").as_number();
    double backend_sum_s = 0.0, backend_p50 = 0.0, backend_p99 = 0.0;
    for (const auto& b : fleet->backends) {
      const Json stats = b->server->stats_json();
      const Json& lat = stats.at("service_latency");
      backend_sum_s += lat.at("mean_s").as_number() * lat.at("count").as_number();
      backend_p50 = std::max(backend_p50, lat.at("p50_s").as_number());
      backend_p99 = std::max(backend_p99, lat.at("p99_s").as_number());
    }
    const auto cache = fleet->cache->stats();
    outcome.add_layer("core.forward_us_per_placement",
                      forward.us_per_placement(), "us");
    outcome.add_layer("core.batch_width_mean", forward.batch_width_mean(),
                      "count");
    outcome.add_layer("gnn.plan_compiles", static_cast<double>(compiles),
                      "count");
    outcome.add_layer("serve.router_ms_p50",
                      1e3 * route.at("p50_s").as_number(), "ms");
    outcome.add_layer("serve.backend_ms_p50", 1e3 * backend_p50, "ms");
    outcome.add_layer("serve.backend_ms_p99", 1e3 * backend_p99, "ms");
    // Shares of client request time: router self time (route latency not
    // spent in a backend), backend self time (service latency not spent in
    // the forward) and the forward itself.
    outcome.add_layer("serve.router_self_share",
                      (router_s - backend_sum_s) / request_s, "share");
    outcome.add_layer("serve.backend_self_share",
                      (backend_sum_s - forward.seconds) / request_s, "share");
    outcome.add_layer("serve.forward_share", forward.seconds / request_s,
                      "share");
    outcome.add_layer("runtime.cache_hit_share",
                      static_cast<double>(cache.hits) /
                          static_cast<double>(cache.hits + cache.misses),
                      "share");
    outcome.add_layer("serve.shed_share", total.shed_share(), "share");
    outcome.add_layer("serve.generator_lag_ms_max", lag_max_ms, "ms");
  }
  // The second half of the set-ups, once peak RSS is read.
  fleet.reset();
  setup.repeat(start, kSetupRepeats);
  outcome.add("setup_s", setup.median_s(), "s");
  outcome.detail["setups"] = Json(static_cast<double>(setup.count()));
  return outcome;
}

}  // namespace perfbench
