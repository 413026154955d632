// SymCeX -- the check-serving subsystem.
//
// Amortization is the missing piece of "evidence as a product": every
// process start pays variable ordering, cluster scheduling, reachability
// and FairEG fixpoints from scratch, and every repeated query pays them
// again.  This layer keeps that work warm.  A long-lived daemon
// (tools/symcex_serve) owns a pool of warm model sessions -- each a
// finalized TransitionSystem plus a Checker whose reachable set, fair
// states and FairEG memo persist across jobs -- and answers (model,
// formula, options) queries over a Unix-domain socket with newline-JSON
// framing (emitted by diag::JsonWriter, parsed by tools/json_mini.hpp).
//
// Verdicts are memoized across runs in a VerdictCache whose entries ARE
// evidence bundles: the cached bytes of a response are the same
// self-validating artifact `symcex-verify` replays, so a cache hit is not
// "trust the cache", it is "here is the proof again".  The key is
// semantic, not syntactic (DESIGN.md §15):
//
//   key = model_fingerprint(ts) . "-" . hex(ctl::formula_hash(spec))
//
// where model_fingerprint hashes the *canonical DNF covers*
// (bdd::Bdd::for_each_cube -- variable-order independent, canonical per
// function) of init, every raw transition conjunct, every fairness
// constraint and every label, together with the variable table.  Two
// models with the same fingerprint have identical labelled transition
// structure, hence identical verdicts for every CTL formula; engine
// options (image method, care set, COI, reorder) are certified
// verdict-invariant by the ablation layers and are deliberately NOT part
// of the key.  Models whose covers exceed the expansion cap are served
// but never cached.
//
// Resilience: every job runs under its own guard::ResourceBudget; a job
// that exhausts it comes back as a typed kUnknown response (never cached)
// and the daemon keeps serving.  Admission control bounds the job queue
// -- an overloaded daemon answers immediately with kUnknown/"overload"
// rather than queueing without bound.  On-disk cache entries are
// checksummed and re-validated on load; a tampered entry is detected,
// evicted and recomputed, never served.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/checker.hpp"
#include "ctl/formula.hpp"
#include "diag/json.hpp"
#include "smv/smv.hpp"
#include "ts/transition_system.hpp"

namespace symcex::jsonmini {
struct Value;  // tools/json_mini.hpp (header-only, vendored in tools/)
}

namespace symcex::serve {

/// Wire-protocol version, negotiated by the hello frame.
inline constexpr int kProtocolVersion = 1;

// -- cache key ---------------------------------------------------------------

/// 128-bit semantic model fingerprint: two independent FNV-1a streams over
/// the canonical covers of the model's components (see file comment).
struct ModelFingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  /// 32 lowercase hex digits (lo then hi).
  [[nodiscard]] std::string hex() const;
};

/// Compute the semantic fingerprint of a finalized system.  Throws
/// std::length_error when some component's cover exceeds `max_cubes`
/// (the caller then treats the model as uncacheable).
[[nodiscard]] ModelFingerprint model_fingerprint(
    const ts::TransitionSystem& ts, std::size_t max_cubes = 65536);

/// The verdict-cache key for (model, spec):
/// "<fingerprint hex32>-<formula_hash hex16>".
[[nodiscard]] std::string cache_key(const ModelFingerprint& fp,
                                    const ctl::Formula::Ptr& spec);

/// 16 lowercase hex digits of `v` -- the rendering every serve-layer hash
/// uses (cache keys, annotations, the client's --hash output).
[[nodiscard]] std::string hex16(std::uint64_t v);

// -- verdict cache -----------------------------------------------------------

/// One cached verdict.  `bundle` holds the exact evidence-bundle JSON
/// bytes of the producing run -- the response payload and the replayable
/// proof are the same object.
struct CacheEntry {
  std::string verdict;   ///< "true" or "false" (unknowns are never cached)
  std::string reason;    ///< the producing run's one-line note
  std::string spec;      ///< display text of the formula (validation aid)
  std::string producer;  ///< build_info() of the producing build
  std::string bundle;    ///< evidence bundle JSON, byte-exact
  std::uint64_t checksum = 0;  ///< persist::fnv1a64 of `bundle`
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t poisoned = 0;    ///< tampered/corrupt entries rejected
  std::uint64_t disk_loads = 0;  ///< hits served from the spill directory
  std::size_t size = 0;          ///< entries currently in memory
};

/// Thread-safe cross-run verdict cache: an in-memory LRU backed by an
/// optional on-disk spill directory.  Every lookup re-validates the entry
/// (checksum over the bundle bytes, spec text match, and for disk loads a
/// full parse of the meta sidecar and bundle); anything that fails
/// validation is counted as poisoned, removed, and reported as a miss --
/// a tampered cache can cost recomputation, never a wrong answer.
///
/// Disk layout, per key: `<dir>/<key>.bundle.json` (the raw bundle bytes,
/// directly replayable by symcex-verify) and `<dir>/<key>.meta.json`
/// (verdict, reason, spec, producer, checksum).
class VerdictCache {
 public:
  /// `capacity` bounds the in-memory entry count (evictions spill to disk
  /// when a spill directory is set); `spill_dir` "" disables persistence.
  VerdictCache(std::size_t capacity, std::string spill_dir);

  /// Look up `key`, validating against the expected spec text.  Counts a
  /// hit or miss; promotes disk entries into memory.
  [[nodiscard]] std::optional<CacheEntry> lookup(const std::string& key,
                                                 const std::string& spec_text);
  /// Insert (or overwrite) an entry; writes through to the spill
  /// directory when one is configured.  Entries with verdict "unknown"
  /// are rejected (throws std::logic_error) -- the cache holds proofs.
  void store(const std::string& key, CacheEntry entry);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& spill_dir() const { return spill_dir_; }

 private:
  struct Slot {
    CacheEntry entry;
    std::list<std::string>::iterator lru_it;
  };
  void evict_one_locked();
  void spill_locked(const std::string& key, const CacheEntry& entry) const;
  std::optional<CacheEntry> load_from_disk_locked(const std::string& key,
                                                  const std::string& spec_text);
  void poison_locked(const std::string& key);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::string spill_dir_;
  std::list<std::string> lru_;  // front = most recent
  std::map<std::string, Slot> slots_;
  CacheStats stats_;
};

// -- model registry ----------------------------------------------------------

/// A model the daemon can serve: the transition system plus (for SMV
/// sources) the front-end model that owns it, and any warm state loaded
/// from a snapshot.
struct ServedModel {
  std::string name;
  std::unique_ptr<smv::SmvModel> smv;            ///< set for SMV sources
  std::unique_ptr<ts::TransitionSystem> owned;   ///< set for zoo / snapshots
  ts::TransitionSystem* system = nullptr;        ///< always set
  bdd::Bdd warm_fair;  ///< completed fair-states set from a snapshot
};

/// Build a bundled zoo model by name (models::bundled).  Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] ServedModel build_bundled_model(const std::string& name);

/// Compile an SMV source into a served model.  Throws smv::SmvError.
[[nodiscard]] ServedModel build_smv_model(std::string name,
                                          const std::string& source);

/// Load a check snapshot (src/persist) as a warm served model: the
/// rebuilt system with its completed reachable set installed and the
/// fair-states set staged for Checker::seed_fair.  Throws
/// persist::SnapshotError.
[[nodiscard]] ServedModel load_warm_model(const std::string& snapshot_path);

// -- wire protocol -----------------------------------------------------------

/// Malformed request; `check` is a short stable name of the violated rule
/// ("json", "op", "field") echoed in the error response.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string check, const std::string& what)
      : std::runtime_error(what), check_(std::move(check)) {}
  [[nodiscard]] const std::string& check() const { return check_; }

 private:
  std::string check_;
};

/// Per-job resource knobs (all 0 / false = server defaults).
struct JobOptions {
  std::size_t node_limit = 0;
  std::uint64_t deadline_ms = 0;
  bool no_cache = false;  ///< bypass the verdict cache for this job
};

/// One check job.
struct CheckRequest {
  std::string model;  ///< bundled name, or a display name for `smv`
  std::string smv;    ///< inline SMV source ("" = `model` is bundled)
  std::string spec;   ///< CTL formula text
  JobOptions options;
};

/// A parsed request line.
struct Request {
  enum class Op { kPing, kStats, kShutdown, kCheck, kBatch };
  Op op = Op::kPing;
  CheckRequest check;               ///< kCheck
  std::vector<CheckRequest> batch;  ///< kBatch
};

/// Parse one request line.  Throws ProtocolError.
[[nodiscard]] Request parse_request(const std::string& line);

/// Serialize a check/batch-element request (the client side).
[[nodiscard]] std::string format_check_request(const CheckRequest& request);
[[nodiscard]] std::string format_batch_request(
    const std::vector<CheckRequest>& requests);

/// One job's result, as it appears on the wire.
struct CheckResult {
  bool ok = true;
  std::string error;        ///< set when !ok
  std::string error_check;  ///< stable failure name when !ok
  std::string model;
  std::string spec;
  std::string verdict = "unknown";  ///< "true" / "false" / "unknown"
  std::string reason;
  std::string exhausted;  ///< guard resource name when the budget ran out
  bool cached = false;    ///< served from the verdict cache
  bool cacheable = true;  ///< model fingerprint within the cover cap
  double elapsed_ms = 0.0;
  std::string cache_key;
  std::string bundle;  ///< evidence bundle JSON bytes ("" when !ok)
};

/// Emit a result as a JSON object on `w`.  The bundle rides as a JSON
/// *string* member, so the receiver recovers the producing run's exact
/// bytes (re-serializing a parsed tree would not be byte-faithful).
void write_check_result(diag::JsonWriter& w, const CheckResult& result);

/// Parse a result object (the client side of write_check_result).
[[nodiscard]] CheckResult parse_check_result(const jsonmini::Value& v);

// -- server ------------------------------------------------------------------

struct ServerOptions {
  std::string socket_path;      ///< required
  std::size_t workers = 2;      ///< job-executing threads
  std::size_t max_queue = 32;   ///< admission bound on queued jobs
  std::size_t max_sessions = 16;  ///< warm model sessions kept resident
  std::size_t cache_capacity = 256;
  std::string cache_dir;        ///< verdict-cache spill dir ("" = memory only)
  std::size_t default_node_limit = 0;     ///< job budget when unspecified
  std::uint64_t default_deadline_ms = 0;  ///< job budget when unspecified
  /// Warm-start snapshots (persist check snapshots) loaded at startup.
  std::vector<std::string> warm_snapshots;
};

/// Counters the daemon exports via the stats op and folds into
/// diag::Registry as serve.* metrics.
struct ServeStats {
  std::uint64_t jobs = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t poisoned = 0;
  std::uint64_t overload_rejects = 0;
  std::uint64_t unknown_verdicts = 0;
  std::uint64_t sessions = 0;        ///< resident warm sessions
  std::uint64_t session_evictions = 0;
  std::uint64_t queue_depth = 0;     ///< jobs waiting at snapshot time
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket, load warm snapshots, start the accept loop and the
  /// worker pool.  Throws std::runtime_error on socket failure.
  void start();
  /// Stop accepting, drain connections, join all threads, remove the
  /// socket file.  Idempotent.
  void stop();
  /// Ask the serve loop to end: wait() returns, after which the owner
  /// calls stop().  Async-signal-safe (a plain atomic store), so the
  /// daemon's SIGINT/SIGTERM handlers may call it directly.
  void request_shutdown() { shutdown_requested_.store(true); }
  /// Block until a shutdown request (or stop()) ends the serve loop.
  void wait();
  [[nodiscard]] bool running() const { return running_.load(); }

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const ServerOptions& options() const { return options_; }

  /// Execute one check job synchronously on the calling thread (the same
  /// path worker threads run; exposed for in-process tests).
  [[nodiscard]] CheckResult execute(const CheckRequest& request);

 private:
  struct Session {
    ServedModel model;
    std::unique_ptr<core::Checker> checker;
    bool fingerprint_done = false;
    std::optional<ModelFingerprint> fingerprint;  ///< nullopt = uncacheable
    std::uint64_t last_used = 0;
    std::mutex mu;  ///< one job at a time per session
  };
  struct Job {
    CheckRequest request;
    std::promise<CheckResult> done;
  };

  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);
  [[nodiscard]] std::string handle_line(const std::string& line,
                                        bool& shutdown);
  [[nodiscard]] std::shared_ptr<Session> session_for(
      const CheckRequest& request);
  /// Queue one job; returns the future, or an immediate overload result.
  [[nodiscard]] CheckResult submit_and_wait(const CheckRequest& request);
  void write_stats_json(std::ostream& os) const;
  [[nodiscard]] std::string hello_line() const;

  ServerOptions options_;
  VerdictCache cache_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> connections_;
  std::vector<int> conn_fds_;  // open connection sockets, for stop()
  std::mutex conn_mu_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t session_tick_ = 0;

  mutable std::mutex stats_mu_;
  ServeStats stats_;
  int diag_source_id_ = -1;

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
};

// -- client ------------------------------------------------------------------

/// Minimal blocking client for the wire protocol: connect, read the hello
/// frame, exchange newline-framed JSON lines.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to the daemon and consume its hello frame.  Throws
  /// std::runtime_error on connection failure or a malformed hello.
  void connect(const std::string& socket_path);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  /// The raw hello JSON line (without the trailing newline).
  [[nodiscard]] const std::string& hello() const { return hello_; }

  /// Send one request line, return the response line.  Throws
  /// std::runtime_error on I/O failure or connection loss.
  [[nodiscard]] std::string roundtrip(const std::string& request_json);

  // -- typed conveniences ----------------------------------------------------
  [[nodiscard]] bool ping();
  /// The stats response's "stats" object as raw JSON text.
  [[nodiscard]] std::string stats_json();
  /// Parsed ServeStats from the stats op.
  [[nodiscard]] ServeStats stats();
  void shutdown_server();
  [[nodiscard]] CheckResult check(const CheckRequest& request);
  [[nodiscard]] std::vector<CheckResult> batch(
      const std::vector<CheckRequest>& requests);

 private:
  [[nodiscard]] std::string read_line();
  void write_all(const std::string& data);

  int fd_ = -1;
  std::string hello_;
  std::string inbuf_;
};

}  // namespace symcex::serve
