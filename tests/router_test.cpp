// In-process router tests: affinity (same system -> same backend), failover
// with typed upstream_failed, merged stats, and the Prometheus exposition.
// The fork/exec kill-and-reload scenarios live in router_integration_test.
#include "serve/router.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "edge/problem.h"
#include "optim/evaluator.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/hash_ring.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/rng.h"

namespace chainnet::serve {
namespace {

constexpr int kBackends = 3;
constexpr int kSystems = 8;

std::string system_name(int s) { return "sys-" + std::to_string(s); }

/// Router + backends fixture: every backend knows every system, so any
/// request is servable anywhere and routing decisions are observable purely
/// through per-backend counters.
struct Fixture {
  edge::EdgeSystem system;
  std::vector<edge::Placement> placements;
  runtime::ThreadPool pool{1};
  std::unique_ptr<runtime::EvalService> service;
  std::vector<std::unique_ptr<Server>> backends;
  std::unique_ptr<Router> router;

  Fixture()
      : system([] {
          support::Rng rng(5);
          return edge::generate_placement_problem(
              edge::PlacementProblemParams::paper(13), rng);
        }()) {
    support::Rng rng(23);
    for (int i = 0; i < 8; ++i) {
      placements.push_back(edge::random_placement(system, rng));
    }
    runtime::EvalService::EvaluatorFactory factory =
        [](support::Rng) -> std::unique_ptr<optim::PlacementEvaluator> {
      return std::make_unique<optim::ApproximationEvaluator>();
    };
    service = std::make_unique<runtime::EvalService>(pool, factory, 99);

    RouterConfig config;
    for (int b = 0; b < kBackends; ++b) {
      auto server = std::make_unique<Server>(*service, ServerConfig{});
      for (int s = 0; s < kSystems; ++s) {
        server->add_system(system_name(s), system);
      }
      server->start();
      config.backends.push_back(
          BackendAddress{"127.0.0.1", server->port()});
      backends.push_back(std::move(server));
    }
    config.health_interval_ms = 50.0;
    router = std::make_unique<Router>(std::move(config));
    router->start();
  }

  ~Fixture() {
    router->stop();
    for (auto& backend : backends) backend->stop();
  }

  std::uint64_t forwarded(int backend) const {
    const auto stats = router->stats_json();
    return static_cast<std::uint64_t>(stats.at("backends")
                                          .as_array()[static_cast<std::size_t>(
                                              backend)]
                                          .at("forwarded")
                                          .as_number());
  }
};

TEST(Router, SystemAffinityPinsEachSystemToItsRingBackend) {
  Fixture fx;
  Client client("127.0.0.1", fx.router->port());
  const HashRing ring(kBackends);  // same deterministic ring as the router

  std::vector<std::uint64_t> expected(kBackends, 0);
  for (int s = 0; s < kSystems; ++s) {
    const auto home = ring.pick(HashRing::hash_bytes(system_name(s)));
    for (int i = 0; i < 3; ++i) {
      client.evaluate_one(fx.placements[static_cast<std::size_t>(i)],
                          system_name(s));
      ++expected[home];
    }
  }
  for (int b = 0; b < kBackends; ++b) {
    EXPECT_EQ(fx.forwarded(b), expected[static_cast<std::size_t>(b)])
        << "backend " << b;
  }
  EXPECT_EQ(fx.router->metrics().evals_routed.value(),
            static_cast<std::uint64_t>(kSystems) * 3);
}

TEST(Router, FailoverReroutesWhenTheHomeBackendDies) {
  Fixture fx;
  Client client("127.0.0.1", fx.router->port());
  const HashRing ring(kBackends);
  const auto home =
      static_cast<int>(ring.pick(HashRing::hash_bytes(system_name(0))));
  client.evaluate_one(fx.placements[0], system_name(0));
  ASSERT_EQ(fx.forwarded(home), 1u);

  fx.backends[static_cast<std::size_t>(home)]->stop();
  // The next request either fails over transparently (retry-once) or, if
  // every attempt raced the shutdown, surfaces the typed upstream error —
  // never a transport/protocol error.
  double value = 0.0;
  try {
    value = client.evaluate_one(fx.placements[0], system_name(0));
    EXPECT_GT(value, 0.0);
    EXPECT_EQ(fx.forwarded(home), 1u) << "dead backend must not be re-picked";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUpstreamFailed);
  }
  // Once marked unhealthy, subsequent requests for the same system keep
  // working against a failover backend.
  const double again = client.evaluate_one(fx.placements[0], system_name(0));
  EXPECT_GT(again, 0.0);
  EXPECT_GE(fx.router->metrics().ejections.value(), 1u);
}

TEST(Router, AllBackendsDownYieldsTypedUpstreamFailed) {
  Fixture fx;
  for (auto& backend : fx.backends) backend->stop();
  Client client("127.0.0.1", fx.router->port());
  try {
    client.evaluate_one(fx.placements[0], system_name(0));
    FAIL() << "expected upstream_failed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUpstreamFailed);
  }
  EXPECT_GE(fx.router->metrics().upstream_failures.value(), 1u);
}

TEST(Router, StatsMergesRouterAndBackendCounters) {
  Fixture fx;
  Client client("127.0.0.1", fx.router->port());
  client.evaluate_one(fx.placements[0], system_name(0));
  const auto stats = client.stats();

  EXPECT_EQ(stats.at("evals_routed").as_number(), 1.0);
  EXPECT_TRUE(stats.has("route_latency"));
  EXPECT_GE(stats.at("route_latency").at("count").as_number(), 1.0);
  const auto& backends = stats.at("backends").as_array();
  ASSERT_EQ(backends.size(), static_cast<std::size_t>(kBackends));
  for (const auto& backend : backends) {
    EXPECT_TRUE(backend.has("address"));
    EXPECT_TRUE(backend.has("healthy"));
    EXPECT_TRUE(backend.has("forwarded"));
    // Live backend snapshot: the server's own counters are reachable
    // through the router's merged view.
    ASSERT_TRUE(backend.has("stats"));
    EXPECT_TRUE(backend.at("stats").has("requests"));
  }
}

TEST(Router, PrometheusEndpointServesParseableText) {
  Fixture fx;
  Client client("127.0.0.1", fx.router->port());
  client.evaluate_one(fx.placements[0], system_name(0));

  // Plain HTTP GET against the metrics port.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(fx.router->metrics_port()));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);

  ASSERT_TRUE(response.rfind("HTTP/1.0 200 OK\r\n", 0) == 0) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const auto body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);

  // Every non-comment, non-blank line must be "name{labels} value" /
  // "name value" with a numeric value — the whole exposition contract.
  std::size_t samples = 0;
  std::size_t start = 0;
  while (start < body.size()) {
    auto end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    EXPECT_NE(name.find("chainnet_"), std::string::npos) << line;
    char* parse_end = nullptr;
    const std::string value = line.substr(space + 1);
    std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << "non-numeric sample value: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 10u);
  EXPECT_NE(body.find("chainnet_router_requests_total"), std::string::npos);
  EXPECT_NE(body.find("chainnet_router_backend_up{"), std::string::npos);
  EXPECT_GE(fx.router->metrics().metrics_scrapes.value(), 1u);
}

TEST(Router, PlacementAffinitySpreadsOneSystemButCoLocatesPairs) {
  // Separate fixture-less setup: a placement-affinity router over the same
  // backends, asserting (a) repeated (system, placement) pairs always land
  // on one backend, and (b) distinct placements of one system reach more
  // than one backend.
  Fixture fx;
  RouterConfig config;
  for (const auto& backend : fx.backends) {
    config.backends.push_back(BackendAddress{"127.0.0.1", backend->port()});
  }
  config.affinity = RouteAffinity::kPlacement;
  Router router(std::move(config));
  router.start();
  {
    Client client("127.0.0.1", router.port());
    std::vector<std::uint64_t> before(kBackends, 0);
    auto forwarded_by = [&router] {
      const auto stats = router.stats_json();  // keep the snapshot alive
      std::vector<std::uint64_t> counts;
      for (const auto& backend : stats.at("backends").as_array()) {
        counts.push_back(static_cast<std::uint64_t>(
            backend.at("forwarded").as_number()));
      }
      return counts;
    };
    // (a) the same pair, many times: exactly one backend moves.
    for (int i = 0; i < 5; ++i) {
      client.evaluate_one(fx.placements[0], system_name(0));
    }
    auto counts = forwarded_by();
    EXPECT_EQ(std::count_if(counts.begin(), counts.end(),
                            [](std::uint64_t c) { return c > 0; }),
              1);
    // (b) many distinct placements of the one system: the spread reaches
    // at least a second backend.
    for (int r = 0; r < 4; ++r) {
      for (const auto& placement : fx.placements) {
        client.evaluate_one(placement, system_name(0));
      }
    }
    counts = forwarded_by();
    EXPECT_GE(std::count_if(counts.begin(), counts.end(),
                            [](std::uint64_t c) { return c > 0; }),
              2);
  }
  router.stop();
}

}  // namespace
}  // namespace chainnet::serve
