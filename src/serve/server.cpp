// SymCeX -- serve: the daemon.
//
// Threading model: one accept thread, one thread per connection (reads
// newline-framed requests, writes responses), and a fixed worker pool
// that executes check jobs.  Connections never run checks themselves --
// they enqueue a Job and wait on its future, so a batch from one client
// fans out across all workers while slow models never stall the socket
// loop.  Admission control bounds the queue: a job that would exceed it
// is answered immediately with a typed "unknown"/overload result instead
// of queueing without bound.
//
// Warm sessions: each served model keeps one resident Session (its
// TransitionSystem -- and so its BDD manager, variable order, cluster
// schedule, reachable set -- plus a Checker whose fair-states set and
// FairEG memo persist).  A session serves one job at a time (per-session
// mutex; the managers are not concurrently reentrant) but distinct models
// check in parallel.  Sessions are evicted LRU beyond max_sessions;
// shared_ptr keeps an evicted session alive until its in-flight job ends.
//
// Every job runs under its own guard::ResourceBudget, installed on the
// session's manager just before the check (which restarts the deadline
// clock) and replaced with the unlimited budget after.  Explainer::check
// converts exhaustion into a typed kUnknown outcome and leaves the
// manager audit-clean, so a budget-killed job never poisons its session.

#include "serve/serve.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/explain.hpp"
#include "diag/metrics.hpp"
#include "evidence/evidence.hpp"
#include "guard/config.hpp"
#include "guard/guard.hpp"
#include "persist/persist.hpp"
#include "version.hpp"

namespace symcex::serve {

namespace {

/// Overload / rejected-admission result: a typed unknown, mirroring the
/// budget-exhaustion shape so clients handle both identically.
CheckResult overload_result(const CheckRequest& request) {
  CheckResult r;
  r.ok = true;
  r.model = request.model;
  r.spec = request.spec;
  r.verdict = "unknown";
  r.reason = "admission control: job queue full";
  r.exhausted = "overload";
  r.cacheable = false;
  return r;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_dir) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) return;
  if (options_.socket_path.empty()) {
    throw std::runtime_error("serve: socket path is required");
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " +
                             options_.socket_path);
  }

  // Warm-start sessions from snapshots before the socket opens, so the
  // first client never sees a cold daemon.
  for (const std::string& path : options_.warm_snapshots) {
    ServedModel model = load_warm_model(path);  // throws SnapshotError
    auto session = std::make_shared<Session>();
    session->model = std::move(model);
    core::CheckOptions co;
    co.model_name = session->model.name;
    session->checker =
        std::make_unique<core::Checker>(*session->model.system, co);
    if (!session->model.warm_fair.is_null()) {
      session->checker->seed_fair(session->model.warm_fair);
    }
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session->last_used = ++session_tick_;
    sessions_["bundled:" + session->model.name] = std::move(session);
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket(): ") +
                             std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: bind/listen(" + options_.socket_path +
                             "): " + what);
  }

  stopping_.store(false);
  shutdown_requested_.store(false);
  running_.store(true);

  diag_source_id_ = diag::Registry::global().register_source(
      [this](diag::Registry& registry) {
        const ServeStats s = stats();
        registry.add_in("serve", "jobs", s.jobs);
        registry.add_in("serve", "hits", s.hits);
        registry.add_in("serve", "misses", s.misses);
        registry.add_in("serve", "evictions", s.evictions);
        registry.add_in("serve", "poisoned", s.poisoned);
        registry.add_in("serve", "overload_rejects", s.overload_rejects);
        registry.add_in("serve", "unknown_verdicts", s.unknown_verdicts);
        registry.gauge_set_in("serve", "queue_depth",
                              static_cast<double>(s.queue_depth));
        registry.gauge_set_in("serve", "sessions",
                              static_cast<double>(s.sessions));
      });

  const std::size_t workers = options_.workers == 0 ? 1 : options_.workers;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  shutdown_requested_.store(true);

  // Unblock the accept loop and every connection reader.  The listen
  // socket is closed only once the accept thread has exited: it is still
  // reading the descriptor until then.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::thread& t : connections_) {
      if (t.joinable()) t.join();
    }
    connections_.clear();
    conn_fds_.clear();
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Answer any job that was still queued when the workers exited.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    while (!queue_.empty()) {
      queue_.front()->done.set_value(overload_result(queue_.front()->request));
      queue_.pop_front();
    }
  }
  if (diag_source_id_ >= 0) {
    diag::Registry::global().unregister_source(diag_source_id_);
    diag_source_id_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  wait_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(wait_mu_);
  // Polled rather than purely notified so request_shutdown() can stay a
  // bare atomic store (signal handlers call it).
  wait_cv_.wait_for(lock, std::chrono::milliseconds(200), [this] {
    return shutdown_requested_.load() || !running_.load();
  });
  while (!shutdown_requested_.load() && running_.load()) {
    wait_cv_.wait_for(lock, std::chrono::milliseconds(200));
  }
}

ServeStats Server::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  const CacheStats c = cache_.stats();
  s.hits = c.hits;
  s.misses = c.misses;
  s.evictions = c.evictions;
  s.poisoned = c.poisoned;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = queue_.size();
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s.sessions = sessions_.size();
  }
  return s;
}

// -- job execution ------------------------------------------------------------

std::shared_ptr<Server::Session> Server::session_for(
    const CheckRequest& request) {
  const std::string key =
      request.smv.empty()
          ? "bundled:" + request.model
          : "smv:" + request.model + ":" +
                hex16(persist::fnv1a64(request.smv.data(), request.smv.size()));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(key);
  if (it != sessions_.end()) {
    it->second->last_used = ++session_tick_;
    return it->second;
  }

  auto session = std::make_shared<Session>();
  session->model = request.smv.empty()
                       ? build_bundled_model(request.model)
                       : build_smv_model(request.model, request.smv);
  core::CheckOptions co;
  co.model_name = session->model.name;
  session->checker =
      std::make_unique<core::Checker>(*session->model.system, co);
  session->last_used = ++session_tick_;
  sessions_[key] = session;

  // LRU-evict beyond the cap, skipping sessions with a job in flight
  // (the shared_ptr keeps an evicted busy session alive anyway; skipping
  // just prefers evicting genuinely idle ones).
  while (sessions_.size() > (options_.max_sessions == 0
                                 ? 1
                                 : options_.max_sessions)) {
    auto victim = sessions_.end();
    for (auto i = sessions_.begin(); i != sessions_.end(); ++i) {
      if (i->second == session) continue;
      if (victim == sessions_.end() ||
          i->second->last_used < victim->second->last_used) {
        victim = i;
      }
    }
    if (victim == sessions_.end()) break;
    sessions_.erase(victim);
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.session_evictions;
  }
  return session;
}

CheckResult Server::execute(const CheckRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&t0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  CheckResult result;
  result.model = request.model;
  result.spec = request.spec;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.jobs;
  }

  std::shared_ptr<Session> session;
  try {
    session = session_for(request);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error_check = "model";
    result.error = e.what();
    return result;
  }

  ctl::Formula::Ptr spec;
  try {
    spec = ctl::parse(request.spec);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error_check = "spec";
    result.error = e.what();
    return result;
  }

  // Canonical spec text: the cache key hashes the AST, so two spellings
  // of one formula share a key.  Cache validation and the bundle must use
  // the same canonical text, or the second spelling would look like a
  // poisoned entry and evict a perfectly good one.
  const std::string canonical_spec = ctl::to_string(spec);

  std::lock_guard<std::mutex> session_lock(session->mu);
  ts::TransitionSystem& ts = *session->model.system;

  // Semantic fingerprint, once per session.  Cover blowup makes the
  // model uncacheable, not unservable.
  if (!session->fingerprint_done) {
    try {
      session->fingerprint = model_fingerprint(ts);
    } catch (const std::length_error&) {
      session->fingerprint = std::nullopt;
    }
    session->fingerprint_done = true;
  }
  result.cacheable = session->fingerprint.has_value();

  if (session->fingerprint) {
    result.cache_key = cache_key(*session->fingerprint, spec);
    if (!request.options.no_cache) {
      if (std::optional<CacheEntry> hit =
              cache_.lookup(result.cache_key, canonical_spec)) {
        result.cached = true;
        result.verdict = hit->verdict;
        result.reason = hit->reason;
        result.bundle = std::move(hit->bundle);
        result.elapsed_ms = elapsed_ms();
        return result;
      }
    }
  }

  // Fresh run under this job's own budget.  install_budget restarts the
  // deadline clock; the unlimited reinstall afterwards clears it so an
  // idle session never times out between jobs.
  guard::ResourceBudget budget;
  budget.max_live_nodes = request.options.node_limit != 0
                              ? request.options.node_limit
                              : options_.default_node_limit;
  budget.deadline_ms = request.options.deadline_ms != 0
                           ? request.options.deadline_ms
                           : options_.default_deadline_ms;
  budget.checkpoint_margin_ms = config::current().budget.checkpoint_margin_ms;
  ts.manager().install_budget(budget);
  core::Explainer explainer(*session->checker);
  const core::CheckOutcome outcome = explainer.check(spec);
  ts.manager().install_budget(guard::ResourceBudget{});

  evidence::BundleBuilder bundle =
      evidence::from_outcome(ts, session->model.name, canonical_spec, outcome);
  bundle.add_annotation("serve:producer", version::build_info("symcex-serve"));
  if (session->fingerprint) {
    bundle.add_annotation("serve:cache_key", result.cache_key);
    bundle.add_annotation("serve:model_fingerprint",
                          session->fingerprint->hex());
    bundle.add_annotation("serve:formula_hash",
                          hex16(ctl::formula_hash(spec)));
  }
  result.bundle = bundle.to_json();
  result.verdict = core::verdict_name(outcome.verdict);
  result.reason = outcome.known() ? bundle.note() : outcome.reason;
  if (outcome.exhausted) {
    result.exhausted = guard::resource_name(*outcome.exhausted);
  }
  if (!outcome.known()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.unknown_verdicts;
  }

  if (outcome.known() && session->fingerprint && !request.options.no_cache) {
    CacheEntry entry;
    entry.verdict = result.verdict;
    entry.reason = result.reason;
    entry.spec = canonical_spec;
    entry.producer = version::build_info("symcex-serve");
    entry.bundle = result.bundle;
    cache_.store(result.cache_key, entry);
  }
  result.elapsed_ms = elapsed_ms();
  return result;
}

CheckResult Server::submit_and_wait(const CheckRequest& request) {
  auto job = std::make_shared<Job>();
  job->request = request;
  std::future<CheckResult> done = job->done.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_.load() || queue_.size() >= options_.max_queue) {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.overload_rejects;
      return overload_result(request);
    }
    queue_.push_back(job);
  }
  queue_cv_.notify_one();
  return done.get();
}

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stopping_.load() || !queue_.empty(); });
      if (stopping_.load() && queue_.empty()) return;
      if (queue_.empty()) continue;
      job = queue_.front();
      queue_.pop_front();
    }
    job->done.set_value(execute(job->request));
  }
}

// -- socket plumbing ----------------------------------------------------------

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // listen socket gone
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

std::string Server::hello_line() const {
  std::ostringstream os;
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("symcex_serve_hello", 1);
  w.member("protocol", kProtocolVersion);
  w.member("server", version::build_info("symcex-serve"));
  w.member("version", version::kVersion);
  w.end_object();
  return os.str();
}

void Server::handle_connection(int fd) {
  if (!send_all(fd, hello_line() + "\n")) {
    ::close(fd);
    return;
  }
  std::string buffer;
  char chunk[4096];
  bool shutdown_server = false;
  while (!shutdown_server) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // disconnect (or stop() shut the socket down)
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (line.empty()) continue;
    const std::string response = handle_line(line, shutdown_server);
    if (!send_all(fd, response + "\n")) break;
  }
  ::close(fd);
  if (shutdown_server) request_shutdown();
}

std::string Server::handle_line(const std::string& line, bool& shutdown) {
  std::ostringstream os;
  diag::JsonWriter w(os);
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    w.begin_object();
    w.member("ok", false);
    w.member("error_check", e.check());
    w.member("error", e.what());
    w.end_object();
    return os.str();
  }
  switch (request.op) {
    case Request::Op::kPing:
      w.begin_object();
      w.member("ok", true);
      w.member("op", "ping");
      w.member("protocol", kProtocolVersion);
      w.end_object();
      break;
    case Request::Op::kStats:
      write_stats_json(os);
      break;
    case Request::Op::kShutdown:
      shutdown = true;
      w.begin_object();
      w.member("ok", true);
      w.member("op", "shutdown");
      w.end_object();
      break;
    case Request::Op::kCheck:
      write_check_result(w, submit_and_wait(request.check));
      break;
    case Request::Op::kBatch: {
      // Fan the whole batch into the queue first, then collect in order:
      // the batch runs across all workers, not serially.
      std::vector<std::future<CheckResult>> futures;
      std::vector<CheckResult> immediate(request.batch.size());
      std::vector<bool> rejected(request.batch.size(), false);
      futures.reserve(request.batch.size());
      for (std::size_t i = 0; i < request.batch.size(); ++i) {
        auto job = std::make_shared<Job>();
        job->request = request.batch[i];
        std::future<CheckResult> done = job->done.get_future();
        bool admitted = false;
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          if (!stopping_.load() && queue_.size() < options_.max_queue) {
            queue_.push_back(job);
            admitted = true;
          }
        }
        if (admitted) {
          queue_cv_.notify_one();
        } else {
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.overload_rejects;
          rejected[i] = true;
          immediate[i] = overload_result(request.batch[i]);
        }
        futures.push_back(std::move(done));
      }
      w.begin_object();
      w.member("ok", true);
      w.member("op", "batch");
      w.key("results");
      w.begin_array();
      for (std::size_t i = 0; i < futures.size(); ++i) {
        write_check_result(w, rejected[i] ? immediate[i] : futures[i].get());
      }
      w.end_array();
      w.end_object();
      break;
    }
  }
  return os.str();
}

void Server::write_stats_json(std::ostream& os) const {
  const ServeStats s = stats();
  const CacheStats c = cache_.stats();
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("ok", true);
  w.member("op", "stats");
  w.member("server", version::build_info("symcex-serve"));
  w.key("stats");
  w.begin_object();
  w.member("jobs", s.jobs);
  w.member("hits", s.hits);
  w.member("misses", s.misses);
  w.member("evictions", s.evictions);
  w.member("poisoned", s.poisoned);
  w.member("disk_loads", c.disk_loads);
  w.member("overload_rejects", s.overload_rejects);
  w.member("unknown_verdicts", s.unknown_verdicts);
  w.member("sessions", s.sessions);
  w.member("session_evictions", s.session_evictions);
  w.member("queue_depth", s.queue_depth);
  w.member("cache_size", static_cast<std::uint64_t>(c.size));
  w.end_object();
  w.end_object();
}

}  // namespace symcex::serve
