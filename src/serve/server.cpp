#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <stdexcept>
#include <utility>

#include "edge/json_io.h"
#include "gnn/plan.h"
#include "serve/registry.h"
#include "tensor/kernels.h"

namespace chainnet::serve {

using support::Json;

/// Shared completion state of one eval request. All mutation happens on the
/// flusher thread (values, failure, completion); the reader thread only
/// waits on `done` and reads afterwards, synchronized by the promise.
struct Server::RequestState {
  explicit RequestState(std::size_t n) : values(n), remaining(n) {}

  std::vector<double> values;
  std::atomic<std::size_t> remaining;
  std::atomic<bool> failed{false};
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::promise<void> done;

  void fail(ErrorCode c, const std::string& m) {
    bool expected = false;
    if (failed.compare_exchange_strong(expected, true)) {
      code = c;
      message = m;
    }
  }
  void complete_one() {
    if (remaining.fetch_sub(1) == 1) done.set_value();
  }
};

/// One placement awaiting evaluation, queued by a reader thread.
struct Server::PendingItem {
  std::shared_ptr<RequestState> state;
  std::size_t index = 0;
  const edge::EdgeSystem* system = nullptr;
  edge::Placement placement;
  Clock::time_point enqueued;
  Clock::time_point deadline;  // time_point::max() when none
};

struct Server::Connection {
  int fd = -1;
  std::atomic<bool> done{false};
  std::thread thread;
};

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Client deadlines saturate here: converting an arbitrary double to the
/// clock's integer rep overflows for huge values, and anything beyond an
/// hour is indistinguishable from "no deadline" for a microbatched eval.
constexpr double kMaxDeadlineMs = 3600.0 * 1000.0;

}  // namespace

Server::Server(runtime::EvalService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      flush_window_(std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double, std::milli>(
              std::max(0.0, config_.flush_window_ms)))) {
  config_.max_batch = std::max(1, config_.max_batch);
  config_.max_pending = std::max<std::size_t>(1, config_.max_pending);
}

Server::~Server() { stop(); }

void Server::add_system(std::string name, edge::EdgeSystem system) {
  system.validate();
  std::lock_guard<std::mutex> lock(systems_mutex_);
  auto [it, inserted] = systems_.emplace(
      std::move(name), std::make_unique<edge::EdgeSystem>(std::move(system)));
  if (!inserted) {
    throw std::runtime_error("system '" + it->first +
                             "' is already registered");
  }
}

const edge::EdgeSystem* Server::find_system(const std::string& name) const {
  std::lock_guard<std::mutex> lock(systems_mutex_);
  const auto it = systems_.find(name);
  // Registry entries are never erased, so the pointer stays valid after
  // the lock is dropped.
  return it == systems_.end() ? nullptr : it->second.get();
}

void Server::start() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (started_) throw std::runtime_error("Server: already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  const std::string host =
      config_.host == "localhost" ? "127.0.0.1" : config_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Server: invalid host '" + config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    throw_errno("Server: bind/listen on " + host + ":" +
                std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = static_cast<int>(ntohs(bound.sin_port));
  // Non-blocking listener + self-pipe: the accept loop polls both, so
  // stop() can wake it portably (shutdown() on a listening socket only
  // interrupts accept() on Linux) and accept() itself can never block
  // on a connection that aborted between poll() and the call.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  if (::pipe(wake_pipe_) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    throw_errno("Server: pipe");
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    started_ = true;
  }
  flusher_thread_ = std::thread([this] { flusher_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [this] { return shutdown_requested_ || stopped_; });
}

bool Server::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(
      lock, timeout, [this] { return shutdown_requested_ || stopped_; });
}

void Server::stop() {
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
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;

  // 2. Drain the batcher. New evals are rejected as shutting_down; the
  //    flusher exits only once the pending queue is empty, so every
  //    admitted request has its promise fulfilled after the join.
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    draining_ = true;
  }
  batch_cv_.notify_all();
  if (flusher_thread_.joinable()) flusher_thread_.join();

  // 3. Half-close the connections (SHUT_RD): a reader blocked in recv sees
  //    EOF immediately, while one still writing a drained response gets to
  //    finish the write before its next read returns 0. A peer that stopped
  //    reading (zero TCP window) cannot stall the join indefinitely: every
  //    connection socket carries SO_SNDTIMEO, so the blocked write fails
  //    within two kClientSendTimeout periods and the reader exits.
  //    The lock covers only taking ownership of the list; the shutdowns,
  //    joins, and closes run outside it so stop() never blocks with
  //    conn_mutex_ held.
  std::vector<std::unique_ptr<Connection>> doomed;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    doomed.swap(connections_);
  }
  for (auto& conn : doomed) {
    if (!conn->done.load(std::memory_order_acquire)) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (auto& conn : doomed) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop() wrote the wake byte
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      break;  // listening socket gone
    }
    metrics_.connections_accepted.add();
    set_low_latency(fd);
    set_blocking_with_send_timeout(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    std::lock_guard<std::mutex> lock(conn_mutex_);
    reap_finished_connections();
    conn->thread = std::thread([this, raw] { reader_loop(raw); });
    connections_.push_back(std::move(conn));
  }
}

void Server::reap_finished_connections() {
  // LINT:unguarded(caller holds conn_mutex_ — the accept loop reaps while
  // already inside its lock_guard; see the declaration comment in server.h)
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& conn) {
    if (!conn->done.load(std::memory_order_acquire)) return false;
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
    return true;
  });
}

void Server::reader_loop(Connection* conn) {
  std::string payload;
  std::string frame_error;
  for (;;) {
    const FrameStatus status = read_frame(conn->fd, payload, frame_error);
    if (status == FrameStatus::kClosed) break;
    if (status == FrameStatus::kError) {
      // Framing is unrecoverable — answer once, then hang up.
      metrics_.parse_errors.add();
      write_frame(conn->fd,
                  error_response(ErrorCode::kParseError, frame_error).dump());
      break;
    }
    const auto start = Clock::now();
    metrics_.requests_total.add();
    Json response;
    try {
      response = dispatch(payload);
    } catch (const std::exception& e) {
      // Last-resort guard: this runs on a detached-ish std::thread, so an
      // escaping exception would std::terminate the whole process.
      metrics_.bad_requests.add();
      response = error_response(ErrorCode::kInternal, e.what());
    }
    const bool written = write_frame(conn->fd, response.dump());
    metrics_.service_latency.record(
        std::chrono::duration<double>(Clock::now() - start).count());
    if (!written) break;
  }
  conn->done.store(true, std::memory_order_release);
}

Json Server::dispatch(const std::string& payload) {
  Json request;
  try {
    request = Json::parse(payload);
  } catch (const support::JsonError& e) {
    metrics_.parse_errors.add();
    return error_response(ErrorCode::kParseError, e.what());
  }
  if (!request.is_object() || !request.has("type") ||
      !request.at("type").is_string()) {
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest,
                          "request must be an object with a \"type\" string");
  }
  const std::string& type = request.at("type").as_string();
  if (type == "ping") return ok_response();
  if (type == "eval") return handle_eval(request);
  if (type == "stats") {
    Json response = stats_json();
    response["ok"] = Json(true);
    return response;
  }
  if (type == "reload") return handle_reload(request);
  if (type == "load_system") {
    try {
      const std::string name = request.at("name").as_string();
      add_system(name, edge::system_from_json(request.at("system")));
      return ok_response();
    } catch (const std::exception& e) {
      metrics_.bad_requests.add();
      return error_response(ErrorCode::kBadRequest, e.what());
    }
  }
  if (type == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      shutdown_requested_ = true;
    }
    state_cv_.notify_all();
    return ok_response();
  }
  metrics_.bad_requests.add();
  return error_response(ErrorCode::kBadRequest,
                        "unknown request type '" + type + "'");
}

Json Server::handle_reload(const Json& request) {
  if (!config_.registry) {
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest,
                          "server was started without a model registry");
  }
  std::string manifest_path;
  try {
    manifest_path = request.at("manifest").as_string();
  } catch (const std::exception& e) {
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest, e.what());
  }
  // Runs inline on this connection's reader thread: only the reloading
  // client blocks while the new version builds; every other connection
  // keeps evaluating against the still-active version, and the flip is a
  // pointer swap — no request ever sees a half-loaded model.
  try {
    const ModelVersionInfo info = config_.registry->load(manifest_path);
    Json response = ok_response();
    response["version"] = Json(static_cast<double>(info.version));
    response["checksum"] = Json(tensor::checksum_to_string(info.checksum));
    response["state"] = Json(info.state);
    return response;
  } catch (const tensor::SerializeError& e) {
    // A bad manifest or corrupt weight file is the client's problem; the
    // previously active version is untouched.
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return error_response(ErrorCode::kInternal, e.what());
  }
}

Json Server::handle_eval(const Json& request) {
  metrics_.eval_requests.add();
  const auto now = Clock::now();
  const edge::EdgeSystem* system = nullptr;
  std::vector<edge::Placement> placements;
  auto deadline = Clock::time_point::max();
  // Every field access sits inside this try: the accessors throw on
  // wrong-typed values, and nothing a client sends may escape as an
  // exception.
  try {
    const std::string system_name = request.get_string("system", "default");
    system = find_system(system_name);
    if (system == nullptr) {
      return error_response(ErrorCode::kUnknownSystem,
                            "no system named '" + system_name +
                                "' is loaded");
    }
    const auto& docs = request.at("placements").as_array();
    if (docs.empty()) {
      throw support::JsonError("placements must be non-empty", 0);
    }
    placements.reserve(docs.size());
    for (const auto& doc : docs) {
      std::vector<std::vector<int>> assignment;
      for (const auto& row : doc.as_array()) {
        std::vector<int> devices;
        for (const auto& dev : row.as_array()) {
          const double v = dev.as_number();
          // Reject non-integral and int-overflowing values up front:
          // static_cast<int> of an out-of-range double is undefined
          // behavior, so the range check must precede the cast.
          if (v != std::floor(v) ||
              v < static_cast<double>(std::numeric_limits<int>::min()) ||
              v > static_cast<double>(std::numeric_limits<int>::max())) {
            throw support::JsonError(
                "device index must be an integer in int range", 0);
          }
          devices.push_back(static_cast<int>(v));
        }
        assignment.push_back(std::move(devices));
      }
      edge::Placement placement(std::move(assignment));
      placement.validate(*system);
      placements.push_back(std::move(placement));
    }
    const double deadline_ms = request.get_number("deadline_ms", 0.0);
    if (deadline_ms > 0.0) {
      deadline = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               std::min(deadline_ms, kMaxDeadlineMs)));
    }
  } catch (const std::exception& e) {
    metrics_.bad_requests.add();
    return error_response(ErrorCode::kBadRequest, e.what());
  }
  metrics_.placements_received.add(placements.size());

  auto state = std::make_shared<RequestState>(placements.size());
  auto done = state->done.get_future();
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    if (draining_) {
      metrics_.rejects_shutdown.add();
      return error_response(ErrorCode::kShuttingDown, "server is draining");
    }
    if (pending_.size() + placements.size() > config_.max_pending) {
      metrics_.rejects_overload.add();
      return error_response(
          ErrorCode::kOverloaded,
          "pending queue full (" + std::to_string(pending_.size()) + " of " +
              std::to_string(config_.max_pending) + " placements)");
    }
    for (std::size_t i = 0; i < placements.size(); ++i) {
      pending_.push_back(PendingItem{state, i, system,
                                     std::move(placements[i]), now,
                                     deadline});
    }
  }
  batch_cv_.notify_all();
  done.wait();

  if (state->failed.load(std::memory_order_acquire)) {
    return error_response(state->code, state->message);
  }
  Json values;
  for (double v : state->values) values.push_back(Json(v));
  Json response = ok_response();
  response["values"] = std::move(values);
  return response;
}

void Server::flusher_loop() {
  std::unique_lock<std::mutex> lock(batch_mutex_);
  for (;;) {
    if (pending_.empty()) {
      if (draining_) return;
      batch_cv_.wait(lock, [this] { return draining_ || !pending_.empty(); });
      continue;
    }
    if (static_cast<int>(pending_.size()) < config_.max_batch && !draining_) {
      // Wait for the batch to fill, but no longer than the flush window of
      // the oldest pending placement.
      const auto flush_at = pending_.front().enqueued + flush_window_;
      batch_cv_.wait_until(lock, flush_at, [this] {
        return static_cast<int>(pending_.size()) >= config_.max_batch ||
               draining_;
      });
      if (pending_.empty()) continue;
    }

    // Pop expired items (dropped before evaluation) and a same-system
    // prefix of up to max_batch placements; a system change ends the batch
    // and the remainder flushes on the next iteration.
    const auto now = Clock::now();
    std::vector<PendingItem> expired;
    std::vector<PendingItem> batch;
    const edge::EdgeSystem* system = nullptr;
    while (!pending_.empty() &&
           static_cast<int>(batch.size()) < config_.max_batch) {
      PendingItem& front = pending_.front();
      if (now >= front.deadline) {
        expired.push_back(std::move(front));
        pending_.pop_front();
        continue;
      }
      if (system == nullptr) {
        system = front.system;
      } else if (front.system != system) {
        break;
      }
      batch.push_back(std::move(front));
      pending_.pop_front();
    }
    // LINT:manual-lock(the flusher drops batch_mutex_ around the evaluate
    // call so readers can keep admitting work during a long batch; it only
    // touches the popped-off locals until it re-locks below)
    lock.unlock();

    for (auto& item : expired) {
      metrics_.deadline_drops.add();
      item.state->fail(ErrorCode::kDeadlineExceeded,
                       "deadline expired before evaluation");
      item.state->complete_one();
    }
    if (!batch.empty()) {
      std::vector<edge::Placement> placements;
      placements.reserve(batch.size());
      for (auto& item : batch) placements.push_back(std::move(item.placement));
      metrics_.batches_flushed.add();
      metrics_.batch_sizes.record(batch.size());
      try {
        const auto values = service_.evaluate_batch(*system, placements);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          batch[i].state->values[batch[i].index] = values[i];
        }
        metrics_.placements_evaluated.add(batch.size());
      } catch (const std::exception& e) {
        for (auto& item : batch) {
          item.state->fail(ErrorCode::kInternal, e.what());
        }
      }
      for (auto& item : batch) item.state->complete_one();
    }
    // LINT:manual-lock(re-acquires batch_mutex_ for the next loop pass;
    // pairs with the waived unlock above)
    lock.lock();
  }
}

Json Server::stats_json() const {
  Json doc;
  const auto count = [](const Counter& c) {
    return Json(static_cast<double>(c.value()));
  };
  doc["connections_accepted"] = count(metrics_.connections_accepted);
  doc["requests"] = count(metrics_.requests_total);
  doc["eval_requests"] = count(metrics_.eval_requests);
  doc["placements_received"] = count(metrics_.placements_received);
  doc["placements_evaluated"] = count(metrics_.placements_evaluated);
  doc["batches"] = count(metrics_.batches_flushed);
  doc["rejects_overload"] = count(metrics_.rejects_overload);
  doc["rejects_shutdown"] = count(metrics_.rejects_shutdown);
  doc["deadline_drops"] = count(metrics_.deadline_drops);
  doc["parse_errors"] = count(metrics_.parse_errors);
  doc["bad_requests"] = count(metrics_.bad_requests);
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    doc["queue_depth"] = Json(static_cast<double>(pending_.size()));
  }
  doc["pool_queue_depth"] =
      Json(static_cast<double>(service_.pool().queue_depth()));

  const auto latency = metrics_.service_latency.snapshot();
  Json lat;
  lat["count"] = Json(static_cast<double>(latency.total));
  lat["mean_s"] = Json(latency.mean());
  lat["p50_s"] = Json(latency.quantile(0.50));
  lat["p95_s"] = Json(latency.quantile(0.95));
  lat["p99_s"] = Json(latency.quantile(0.99));
  doc["service_latency"] = std::move(lat);

  // Batch-size histogram as [size, count] pairs, zero rows elided; the
  // final slot aggregates sizes >= the histogram bound.
  const auto sizes = metrics_.batch_sizes.snapshot();
  Json histogram;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0) continue;
    Json row;
    row.push_back(Json(static_cast<double>(i)));
    row.push_back(Json(static_cast<double>(sizes[i])));
    histogram.push_back(std::move(row));
  }
  if (histogram.is_null()) histogram = Json(Json::Array{});
  doc["batch_size_histogram"] = std::move(histogram);

  // Runtime-resolved execution environment: the kernel ISA tier this
  // process dispatched and the numeric tier the evaluators run at.
  {
    Json runtime;
    runtime["kernel_isa"] = Json(std::string(tensor::kernels::isa()));
    runtime["dtype"] = Json(std::string(tensor::dtype_name(config_.dtype)));
    doc["runtime"] = std::move(runtime);
  }
  if (config_.registry) {
    doc["model"] = config_.registry->stats_json();
  }
  // Compiled-plan cache counters: the registry's cache when one is serving
  // (hot swaps share it across versions), else the eval service's own.
  {
    const auto& plans = config_.registry ? config_.registry->plan_cache()
                                         : service_.plan_cache();
    const gnn::PlanCache::Stats stats = plans->stats();
    Json cache;
    cache["hits"] = Json(static_cast<double>(stats.hits));
    cache["compiles"] = Json(static_cast<double>(stats.compiles));
    cache["entries"] = Json(static_cast<double>(stats.entries));
    cache["evictions"] = Json(static_cast<double>(stats.evictions));
    doc["plan_cache"] = std::move(cache);
  }
  if (config_.cache) {
    const auto stats = config_.cache->stats();
    Json cache;
    cache["hits"] = Json(static_cast<double>(stats.hits));
    cache["misses"] = Json(static_cast<double>(stats.misses));
    cache["entries"] = Json(static_cast<double>(stats.entries));
    cache["evictions"] = Json(static_cast<double>(stats.evictions));
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    cache["hit_rate"] =
        Json(lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0);
    doc["cache"] = std::move(cache);
  }
  return doc;
}

}  // namespace chainnet::serve
