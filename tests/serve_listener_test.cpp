// The connection core both front-ends share (serve/listener.h), exercised
// through each of them: Server alone, and Router in front of a Server.
//
// HostilePeer: a peer that stops reading, sends half a length prefix or
// half a payload, half-closes mid-frame, connects and idles, or keeps
// pipelining requests while it reads the replies. Each case asserts that
// stop() returns within its documented bound.
//
// FdExhaustion: idle clients use up every descriptor while a connection is
// queued, so accept() fails with EMFILE. The accept loop must neither spin
// nor give up: once the clients go away, a fresh ping is answered. It runs
// in a child process (a death test) so the lowered RLIMIT_NOFILE cannot
// leak into other tests.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "optim/evaluator.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "support/json.h"
#include "test_util.h"

namespace chainnet::serve {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

enum class FrontEnd { kServer, kRouter };

std::string front_end_name(const ::testing::TestParamInfo<FrontEnd>& info) {
  return info.param == FrontEnd::kServer ? "Server" : "Router";
}

/// No send timeout is involved: the half-close ends a blocked read at once.
/// The bound is scheduling slack (sanitizer builds included).
constexpr auto kPromptStop = std::chrono::seconds(2);
/// A reader blocked writing to a peer that stopped reading: the write in
/// flight returns short at its send timeout, and the next fails at its own.
/// Counted from the last byte the write queued, or from the end of the
/// handlers that ran before it, whichever is later (see StopsReading).
constexpr auto kStalledWriterStop =
    2 * kClientSendTimeout + std::chrono::seconds(3);

/// One front-end under test: a Server, or a Router whose only backend is a
/// Server. `backend_reachable = false` points the Router at a closed port
/// instead and never probes again, so the test alone decides which
/// descriptors the process holds.
class Fleet {
 public:
  explicit Fleet(FrontEnd kind, bool backend_reachable = true)
      : service_(pool_, [](support::Rng) {
          return std::unique_ptr<optim::PlacementEvaluator>(
              std::make_unique<optim::ApproximationEvaluator>());
        }) {
    if (kind == FrontEnd::kServer || backend_reachable) {
      server_ = std::make_unique<Server>(service_);
      server_->add_system("default", chainnet::testing::small_system());
      server_->start();
    }
    if (kind == FrontEnd::kRouter) {
      RouterConfig config;
      config.metrics_port = -1;
      if (backend_reachable) {
        config.backends.push_back({"127.0.0.1", server_->port()});
      } else {
        config.backends.push_back({"127.0.0.1", 1});
        config.health_interval_ms = 1e9;
      }
      router_ = std::make_unique<Router>(std::move(config));
      router_->start();
      // The one probe round has finished once the closed port is ejected.
      while (!backend_reachable && router_->healthy_snapshot()[0] != 0) {
        std::this_thread::sleep_for(milliseconds(5));
      }
    }
  }

  ~Fleet() {
    if (router_) router_->stop();
    if (server_) server_->stop();
  }

  int port() const { return router_ ? router_->port() : server_->port(); }

  std::uint64_t accepted() const {
    return router_ ? router_->metrics().connections_accepted.value()
                   : server_->metrics().connections_accepted.value();
  }

  std::uint64_t parse_errors() const {
    return router_ ? router_->metrics().parse_errors.value()
                   : server_->metrics().parse_errors.value();
  }

  std::uint64_t requests() const {
    return router_ ? router_->metrics().requests_total.value()
                   : server_->metrics().requests_total.value();
  }

  /// The front-end's own stop().
  void stop() {
    if (router_) {
      router_->stop();
    } else {
      server_->stop();
    }
  }

  /// Waits until the front-end has accepted `count` connections.
  bool accepted_within(std::uint64_t count, milliseconds timeout) const {
    const auto deadline = Clock::now() + timeout;
    while (accepted() < count) {
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(milliseconds(5));
    }
    return true;
  }

 private:
  runtime::ThreadPool pool_{1};
  runtime::EvalService service_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Router> router_;
};

/// A raw loopback socket connected to `port`; -1 when socket() or
/// connect() fails (errno set). `rcvbuf` > 0 shrinks the receive buffer
/// before connecting, so the TCP window stays small.
int connect_raw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  const auto addr = ipv4_address("127.0.0.1", port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&*addr),
                sizeof(*addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

void set_timeout(int fd, int option, milliseconds timeout) {
  const timeval tv{static_cast<time_t>(timeout.count() / 1000),
                   static_cast<suseconds_t>(timeout.count() % 1000 * 1000)};
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// The first `bytes` bytes of a frame carrying `payload`.
std::string partial_frame(const std::string& payload, std::size_t bytes) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  std::string frame{static_cast<char>(size >> 24),
                    static_cast<char>(size >> 16),
                    static_cast<char>(size >> 8), static_cast<char>(size)};
  frame += payload;
  return frame.substr(0, bytes);
}

bool send_bytes(int fd, const std::string& bytes) {
  return send_all(fd, bytes.data(), bytes.size());
}

/// The front-end's end of the loopback connection `peer` (both ends live
/// in this process); -1 when there is none.
int front_end_socket(int peer) {
  sockaddr_in self{};
  socklen_t len = sizeof(self);
  if (::getsockname(peer, reinterpret_cast<sockaddr*>(&self), &len) != 0) {
    return -1;
  }
  for (int fd = 0; fd < 1024; ++fd) {
    sockaddr_in other{};
    len = sizeof(other);
    if (fd != peer &&
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&other), &len) == 0 &&
        other.sin_port == self.sin_port &&
        other.sin_addr.s_addr == self.sin_addr.s_addr) {
      return fd;
    }
  }
  return -1;
}

/// How long `request` takes to be answered on a fresh connection whose
/// client reads the reply: the front-end's handler for it, plus transfer.
Clock::duration round_trip(int port, const std::string& request) {
  const int fd = connect_raw(port);
  EXPECT_GE(fd, 0);
  const auto start = Clock::now();
  std::string payload;
  std::string error;
  EXPECT_TRUE(write_frame(fd, request));
  EXPECT_EQ(read_frame(fd, payload, error), FrameStatus::kOk) << error;
  const auto elapsed = Clock::now() - start;
  ::close(fd);
  return elapsed;
}

class HostilePeer : public ::testing::TestWithParam<FrontEnd> {
 protected:
  /// Runs the front-end's stop() and reports whether it returned within
  /// `bound`. Closing the peer afterwards resets the connection, which
  /// releases a stop() still blocked on it, so a failing run cannot hang.
  bool stops_within(Clock::duration bound, int peer) {
    auto stopped = std::async(std::launch::async, [this] { fleet_.stop(); });
    const auto start = Clock::now();
    const bool in_time =
        stopped.wait_for(bound) == std::future_status::ready;
    ::close(peer);
    stopped.get();
    elapsed_ = Clock::now() - start;
    return in_time;
  }

  /// A connection the front-end has accepted.
  int accepted_peer(int rcvbuf = 0) {
    const int fd = connect_raw(fleet_.port(), rcvbuf);
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(fleet_.accepted_within(1, milliseconds(5000)));
    return fd;
  }

  /// Lets the reader consume what the peer sent before stop() runs.
  static void settle() { std::this_thread::sleep_for(milliseconds(100)); }

  double elapsed_s() const {
    return std::chrono::duration<double>(elapsed_).count();
  }

  Fleet fleet_{GetParam()};
  Clock::duration elapsed_{};
};

TEST_P(HostilePeer, StopsReading) {
  // Pipelines eval requests and never reads. Every reply quotes the 1 MiB
  // unknown system name, so the front-end's send buffer fills after a
  // dozen requests and a reply is still mid-write when stop() runs.
  const int fd = accepted_peer(4096);
  // A send that makes no progress for this long means the front-end has
  // stopped reading requests: it is blocked writing a reply, or busy
  // handling one.
  set_timeout(fd, SO_SNDTIMEO, milliseconds(200));
  const auto placement = chainnet::testing::small_placement();
  const std::string request =
      make_eval_request({&placement, 1}, std::string(1 << 20, 'x'), 0.0)
          .dump();
  // Sanitizer builds take a good fraction of a second per 1 MiB request,
  // so the handler's time is measured rather than assumed.
  const Clock::duration handler = round_trip(fleet_.port(), request);
  constexpr int kMaxFrames = 1000;
  int frames = 0;
  while (frames < kMaxFrames && write_frame(fd, request)) ++frames;
  ASSERT_LT(frames, kMaxFrames) << "the front-end never stopped reading";

  // stop() right away. The documented bound: the reader finishes the
  // request it is handling, and any already-sent request it goes on to
  // read; its reply write then fails at the first send call that queues
  // nothing within a send timeout, so stop() returns within two send
  // timeouts of the last reply byte the reader queued. The kernel decides
  // when a stuck write may queue more (under TSan it sometimes does
  // seconds later, with the peer still taking nothing), so the test
  // watches the front-end's end of the connection: its unsent byte count
  // grows whenever a send call makes progress.
  const int served = front_end_socket(fd);
  ASSERT_GE(served, 0);
  const auto queued_bytes = [served] {
    int bytes = 0;
    ::ioctl(served, SIOCOUTQ, &bytes);
    return bytes;
  };
  int queued = queued_bytes();
  const std::uint64_t decoded = fleet_.requests();
  const auto start = Clock::now();
  auto stopped = std::async(std::launch::async, [this] { fleet_.stop(); });
  auto last_queued = start;
  while (stopped.wait_for(milliseconds(10)) != std::future_status::ready) {
    if (const int now = queued_bytes(); now > queued) {
      queued = now;
      last_queued = Clock::now();
    }
    // The hang guard: every request could have been handled by now.
    if (Clock::now() - std::max(last_queued, start + frames * handler) >
        kStalledWriterStop) {
      break;
    }
  }
  const auto end = Clock::now();
  // Closing with unread data resets the connection, which releases a
  // stop() still blocked on it, so a failing run cannot hang.
  ::close(fd);
  stopped.get();
  const int handled = static_cast<int>(fleet_.requests() - decoded) + 1;
  const auto from = std::max(last_queued, start + handled * handler);
  const auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  EXPECT_LE(end - from, kStalledWriterStop)
      << "stop() blocked on a peer that stopped reading after " << frames
      << " pipelined requests: " << seconds(end - start) << " s, "
      << seconds(last_queued - start) << " s after stop() the reply write "
      << "last queued bytes, " << handled << " requests of "
      << seconds(handler) << " s";
}

TEST_P(HostilePeer, PartialLengthPrefix) {
  const int fd = accepted_peer();
  ASSERT_TRUE(send_bytes(fd, partial_frame(R"({"type":"ping"})", 2)));
  settle();
  EXPECT_TRUE(stops_within(kPromptStop, fd)) << elapsed_s() << " s";
}

TEST_P(HostilePeer, PartialPayload) {
  const int fd = accepted_peer();
  ASSERT_TRUE(send_bytes(fd, partial_frame(R"({"type":"ping"})", 9)));
  settle();
  EXPECT_TRUE(stops_within(kPromptStop, fd)) << elapsed_s() << " s";
}

TEST_P(HostilePeer, HalfCloseMidFrame) {
  const int fd = accepted_peer();
  ASSERT_TRUE(send_bytes(fd, partial_frame(R"({"type":"ping"})", 9)));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  // The truncated frame is a framing error: one parse_error reply, then
  // the front-end hangs up.
  set_timeout(fd, SO_RCVTIMEO, milliseconds(5000));
  std::string payload;
  std::string error;
  ASSERT_EQ(read_frame(fd, payload, error), FrameStatus::kOk) << error;
  const auto reply = support::Json::parse(payload);
  EXPECT_EQ(reply.at("error").at("code").as_string(), "parse_error");
  EXPECT_EQ(fleet_.parse_errors(), 1u);
  EXPECT_TRUE(stops_within(kPromptStop, fd)) << elapsed_s() << " s";
}

TEST_P(HostilePeer, ConnectsAndIdles) {
  const int fd = accepted_peer();
  EXPECT_TRUE(stops_within(kPromptStop, fd)) << elapsed_s() << " s";
}

TEST_P(HostilePeer, PipelinesAcrossStop) {
  // One thread writes pings as fast as the front-end takes them, another
  // reads every reply: the front-end's writes never block and a request is
  // always queued. The half-close keeps queued bytes (and takes new ones),
  // so only the reader's own stop check can end it.
  const int fd = accepted_peer();
  std::atomic<bool> done{false};
  std::atomic<int> replies{0};
  std::thread writer([fd, &done] {
    const std::string ping = R"({"type":"ping"})";
    while (!done.load() && write_frame(fd, ping)) {
    }
  });
  std::thread reader([fd, &replies] {
    std::string payload;
    std::string error;
    while (read_frame(fd, payload, error) == FrameStatus::kOk) {
      replies.fetch_add(1);
    }
  });
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (replies.load() < 100 && Clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_GE(replies.load(), 100) << "the peer's pings went unanswered";

  auto stopped = std::async(std::launch::async, [this] { fleet_.stop(); });
  const auto start = Clock::now();
  const bool in_time = stopped.wait_for(std::chrono::seconds(3)) ==
                       std::future_status::ready;
  elapsed_ = Clock::now() - start;
  // Release a stop() still serving the peer, so a failing run cannot hang:
  // the shutdown wakes both peer threads, and closing with unread replies
  // resets the connection under the front-end's reader.
  done.store(true);
  ::shutdown(fd, SHUT_RDWR);
  writer.join();
  reader.join();
  ::close(fd);
  stopped.get();
  EXPECT_TRUE(in_time) << "stop() kept serving a pipelining peer for "
                       << elapsed_s() << " s";
}

INSTANTIATE_TEST_SUITE_P(FrontEnds, HostilePeer,
                         ::testing::Values(FrontEnd::kServer,
                                           FrontEnd::kRouter),
                         front_end_name);

/// Descriptors left free above those open when the limit is lowered.
constexpr int kSpareDescriptors = 24;

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "%s\n", why.c_str());
  std::exit(1);
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The child-process body: exhausts descriptors, checks the accept loop
/// idles, frees them, and expects a fresh ping to be answered.
[[noreturn]] void exhaust_and_recover(FrontEnd kind) {
  Fleet fleet(kind, /*backend_reachable=*/false);
  // Held back for the case where the clients run out of descriptors
  // first; releasing it frees none of the front-end's.
  int reserve = ::open("/dev/null", O_RDONLY);

  int highest = 0;
  for (int fd = 0; fd < 4096; ++fd) {
    if (::fcntl(fd, F_GETFD) != -1) highest = fd;
  }
  rlimit limit{};
  ::getrlimit(RLIMIT_NOFILE, &limit);
  const rlimit original = limit;
  limit.rlim_cur = static_cast<rlim_t>(highest + 1 + kSpareDescriptors);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) fail("setrlimit failed");

  // Connect idle clients one at a time, each waiting for its accept, until
  // one stays queued: the accept loop is then out of descriptors. When the
  // client side runs out first instead, the reserve goes, so the next
  // connect gets a descriptor while the front-end has none to spare.
  std::vector<int> idle;
  for (int round = 0;; ++round) {
    if (round > 2 * kSpareDescriptors) fail("never exhausted descriptors");
    const std::uint64_t before = fleet.accepted();
    const int fd = connect_raw(fleet.port());
    if (fd < 0) {
      if (errno != EMFILE || reserve < 0) fail("cannot connect a client");
      ::close(reserve);
      reserve = -1;
      continue;
    }
    idle.push_back(fd);
    if (!fleet.accepted_within(before + 1, milliseconds(500))) break;
  }

  // The queued connection keeps the listener readable: an accept loop that
  // retries at once burns a core for the whole window.
  const double cpu_before = cpu_seconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu = cpu_seconds() - cpu_before;
  if (cpu >= 0.5) {
    fail("accept loop spun: " + std::to_string(cpu) +
         " s of CPU in a 1 s window of descriptor exhaustion");
  }

  // The limit goes back up before the clients hang up: a reader thread
  // that exits while no descriptor is free trips UBSan's vptr check,
  // which needs a pipe to probe memory.
  if (::setrlimit(RLIMIT_NOFILE, &original) != 0) fail("setrlimit failed");
  for (int fd : idle) ::close(fd);
  const int fd = connect_raw(fleet.port());
  if (fd < 0) fail("cannot connect once descriptors are free");
  set_timeout(fd, SO_RCVTIMEO, milliseconds(5000));
  std::string payload;
  std::string error;
  if (!write_frame(fd, R"({"type":"ping"})") ||
      read_frame(fd, payload, error) != FrameStatus::kOk) {
    fail("ping after descriptor exhaustion was not answered");
  }
  if (!support::Json::parse(payload).at("ok").as_bool()) fail("ping failed");
  ::close(fd);
  fleet.stop();
  std::fprintf(stderr, "recovered after %zu idle clients\n", idle.size());
  std::exit(0);
}

class FdExhaustion : public ::testing::TestWithParam<FrontEnd> {};

TEST_P(FdExhaustion, AcceptResumesOnceDescriptorsFree) {
  // "threadsafe" re-executes the test binary for the child instead of
  // forking this (possibly multi-threaded) process.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(exhaust_and_recover(GetParam()), ::testing::ExitedWithCode(0),
              "recovered");
}

INSTANTIATE_TEST_SUITE_P(FrontEnds, FdExhaustion,
                         ::testing::Values(FrontEnd::kServer,
                                           FrontEnd::kRouter),
                         front_end_name);

}  // namespace
}  // namespace chainnet::serve
