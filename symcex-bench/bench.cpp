// symcex-bench -- the SymCeX end-to-end benchmark.
//
//   symcex-bench --workload W --seed N --seconds S --trace 0|1
//                --verify PATH --models DIR --out DIR
//   symcex-bench --self-test --verify PATH --models DIR --out DIR
//
// Workloads (why each exists is in symcex-bench/README.md):
//   verdict-deep   SMV text -> verdict -> certified trace, no evidence
//   evidence-wide  ... -> evidence bundle -> file -> symcex-verify
//   served-mix     a Zipf-skewed closed-loop stream of inline-SMV checks
//                  against an in-process serve::Server over its socket
//
// A run measures whole passes over the seeded job pool until --seconds
// have elapsed and at least kMinJobs jobs have completed.  Every pass is
// preceded by its own set-up, the first timed from process start; setup_s
// is the median.  With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it alternates untraced and traced
// passes and reports per-layer metrics from the traced ones plus the
// tracing overhead.  The last stdout line is the JSON result object.
// Per-job rows, the run manifest, a summary and (traced) the Chrome
// trace-event file go to <out>/<workload>-s<seed>-t<trace>/.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "diag/json.hpp"
#include "diag/metrics.hpp"
#include "evidence/evidence.hpp"
#include "explicit/explicit_checker.hpp"
#include "explicit/explicit_graph.hpp"
#include "families.hpp"
#include "json_mini.hpp"
#include "persist/persist.hpp"
#include "pipeline.hpp"
#include "serve/serve.hpp"
#include "smv/smv.hpp"
#include "tracer.hpp"
#include "ts/parallel.hpp"
#include "version.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace symcex;
using bench::Job;
using bench::JobResult;
using bench::Outcome;
using bench::Tracer;
using Clock = std::chrono::steady_clock;

/// Kept out of every tuning run, for later claims (README.md).
constexpr std::uint64_t kHeldOutSeed = 7919;
/// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinJobs = 110;
/// Measuring stops here whatever else holds, inside the 180 s run limit.
constexpr double kMaxMeasureSeconds = 120.0;

// served-mix shape: the cache holds fewer entries than the stream has
// distinct keys, so evictions spill to disk and repeats reload from it.
// The shape is assumed, not taken from observed serving traffic: the values
// below, and the size caps in make_pool, were chosen for steady runs.
constexpr std::size_t kServedRequestsPerPass = 150;
constexpr std::size_t kCacheCapacity = 16;
constexpr std::size_t kServerWorkers = 2;
/// Above the pool's distinct model count, so a repeat is a cache lookup and
/// never a session rebuild (compile plus fingerprint), and the resident set
/// -- hence peak RSS -- does not depend on the draw order.
constexpr std::size_t kMaxSessions = 32;
// A flat skew: with exponent 1 the hottest key takes a fifth of all
// requests, and its bundle size alone decides where p50 falls.
constexpr double kZipfExponent = 0.6;
constexpr std::uint64_t kPopularitySeed = 0x5eed;

const char* const kWorkloads[] = {"verdict-deep", "evidence-wide",
                                  "served-mix"};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool self_test = false;
  bench::Paths paths;
  std::string out;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -- environment pinning -------------------------------------------------------

constexpr const char* kClearedVar = "BENCH_CLEARED_ENV";

/// Engine knobs are read from SYMCEX_* variables, some at static-init time,
/// so clearing them inside main is too late: drop them and re-exec.
/// Returns the names cleared (carried across the exec).
std::vector<std::string> pin_environment(char** argv) {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SYMCEX_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      found.emplace_back(*e, eq == nullptr ? std::strlen(*e) : eq - *e);
    }
  }
  if (!found.empty()) {
    std::string list;
    for (const std::string& name : found) {
      unsetenv(name.c_str());
      list += (list.empty() ? "" : ",") + name;
    }
    setenv(kClearedVar, list.c_str(), 1);
    execv("/proc/self/exe", argv);
    std::perror("symcex-bench: re-exec with a clean environment");
    std::exit(2);
  }
  std::vector<std::string> cleared;
  if (const char* list = std::getenv(kClearedVar)) {
    std::stringstream ss(list);
    for (std::string name; std::getline(ss, name, ',');) cleared.push_back(name);
  }
  return cleared;
}

// -- arguments -----------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "symcex-bench: " << why << "\n"
            << "usage: symcex-bench --workload "
               "verdict-deep|evidence-wide|served-mix --seed N --seconds S "
               "--trace 0|1 --verify PATH --models DIR --out DIR\n"
            << "       symcex-bench --self-test --verify PATH --models DIR "
               "--out DIR\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0) || o.seconds > 100) {
        usage("--seconds expects a number in (0, 100]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (a == "--verify") {
      o.paths.verify = v;
    } else if (a == "--models") {
      o.paths.models = v;
    } else if (a == "--out") {
      o.out = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.paths.verify.empty() || o.paths.models.empty() || o.out.empty()) {
    usage("--verify, --models and --out are required");
  }
  if (!o.self_test) {
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
        std::end(kWorkloads)) {
      usage("unknown workload '" + o.workload + "'");
    }
    if (!have_seed || o.seconds == 0) usage("--seed and --seconds are required");
  }
  return o;
}

// -- pools ---------------------------------------------------------------------

std::vector<Job> make_pool(const std::string& workload, const bench::Draw& draw,
                           const std::string& models) {
  if (workload == "verdict-deep") return bench::verdict_deep_pool(draw, models);
  if (workload == "evidence-wide") return bench::evidence_wide_pool(draw);
  // served-mix: the servable jobs of both pools up to a per-family size, one
  // key per (model, spec).  At the largest sizes one miss -- a new
  // session's fingerprint plus a multi-MB bundle -- costs more than a pass
  // of hits, so a single draw more or less would swing every metric.
  static const std::map<std::string, unsigned> kServedMaxN = {
      {"counter", 14},     {"round_robin", 8},  {"round_robin_camping", 10},
      {"philosophers", 5}, {"counter_bank", 24}, {"seitz_arbiter", 0}};
  std::vector<Job> pool;
  std::set<std::pair<std::string, std::string>> seen;
  std::vector<Job> both = bench::verdict_deep_pool(draw, models);
  for (Job& j : bench::evidence_wide_pool(draw)) both.push_back(std::move(j));
  for (Job& j : both) {
    const auto max_n = kServedMaxN.find(j.family);
    if (j.servable() && max_n != kServedMaxN.end() && j.n <= max_n->second &&
        seen.emplace(j.model, j.spec).second) {
      pool.push_back(std::move(j));
    }
  }
  return pool;
}

/// The smallest instance of each family in `pool`: set-up's warm-up set.
std::vector<const Job*> warmup_jobs(const std::vector<Job>& pool) {
  std::map<std::string, const Job*> smallest;
  for (const Job& j : pool) {
    const Job*& s = smallest[j.family];
    if (s == nullptr || j.n < s->n) s = &j;
  }
  std::vector<const Job*> out;
  for (const auto& [family, job] : smallest) out.push_back(job);
  return out;
}

// -- served-mix ----------------------------------------------------------------

/// One in-process server with a fresh spill directory, and its client.
class ServedSession {
 public:
  ServedSession(const std::string& run_dir, const std::string& tag)
      : spill_(run_dir + "/spill-" + tag),
        server_(serve::ServerOptions{.socket_path = run_dir + "/" + tag + ".sock",
                                     .workers = kServerWorkers,
                                     .max_sessions = kMaxSessions,
                                     .cache_capacity = kCacheCapacity,
                                     .cache_dir = spill_}) {
    fs::remove_all(spill_);
    fs::create_directories(spill_);
    server_.start();
    client_.connect(server_.options().socket_path);
    if (!client_.ping()) throw std::runtime_error("server did not answer ping");
  }
  ~ServedSession() {
    client_.close();
    server_.stop();
    std::error_code ec;
    fs::remove_all(spill_, ec);
  }
  ServedSession(const ServedSession&) = delete;
  ServedSession& operator=(const ServedSession&) = delete;

  serve::Client& client() { return client_; }

 private:
  std::string spill_;
  serve::Server server_;
  serve::Client client_;
};

serve::CheckRequest request_for(const Job& job) {
  return serve::CheckRequest{
      .model = job.model, .smv = job.model_text, .spec = job.spec};
}

struct ServeCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t disk_loads = 0;
  std::uint64_t poisoned = 0;
  std::uint64_t uncacheable = 0;
};

std::uint64_t stat_of(const jsonmini::Value& stats, const char* key) {
  const jsonmini::Value* v = stats.find(key);
  return v != nullptr && v->is_number() ? static_cast<std::uint64_t>(v->number)
                                        : 0;
}

/// Zipf(s) over ranks 0..n-1 as a cumulative table.
std::vector<double> zipf_cdf(std::size_t n) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

// -- rows ----------------------------------------------------------------------

struct Row {
  const Job* job = nullptr;
  std::uint64_t id = 0;
  unsigned pass = 0;
  bool traced = false;
  JobResult result;
  // served-mix only
  bool cached = false;
  bool cacheable = true;
  double server_ms = 0.0;
};

struct RunState {
  Options opt;
  std::string run_dir;
  /// One pool per pass (each pass names the next component; see Draw).  A
  /// deque, so rows can point into earlier pools.
  std::deque<std::vector<Job>> pools;
  std::mt19937_64 rng;
  Tracer tracer;
  std::vector<Row> rows;
  std::vector<double> pass_seconds;
  std::vector<bool> pass_traced;
  std::vector<ServeCounts> serve_counts;  // per served pass
  std::uint64_t next_id = 0;
};

void direct_pass(RunState& st, unsigned pass) {
  const bool evidence = st.opt.workload == "evidence-wide";
  const std::vector<Job>& pool = st.pools.back();
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), st.rng);
  for (const std::size_t i : order) {
    Row row{.job = &pool[i], .id = st.next_id++, .pass = pass,
            .traced = st.tracer.enabled()};
    row.result = bench::run_job(pool[i], evidence, st.opt.paths, st.tracer,
                                row.id);
    st.rows.push_back(std::move(row));
  }
}

void served_pass(RunState& st, unsigned pass) {
  // The popularity order is fixed, not seeded: which keys are hot decides
  // how big the bundles behind most hits are, so a seeded order would swing
  // the hit latency from seed to seed.  The seed draws the request stream.
  const std::vector<Job>& pool = st.pools.back();
  std::vector<std::size_t> by_rank(pool.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::shuffle(by_rank.begin(), by_rank.end(), std::mt19937_64(kPopularitySeed));
  const std::vector<double> cdf = zipf_cdf(pool.size());
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  ServedSession session(st.run_dir, "pass" + std::to_string(pass));
  serve::Client& client = session.client();
  std::map<std::string, std::uint64_t> first_bundle;  // key -> FNV
  ServeCounts counts;
  for (std::size_t k = 0; k < kServedRequestsPerPass; ++k) {
    const double u = unit(st.rng);
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const Job& job = pool[by_rank[std::min(rank, cdf.size() - 1)]];
    Row row{.job = &job, .id = st.next_id++, .pass = pass,
            .traced = st.tracer.enabled()};
    JobResult& r = row.result;
    const auto t0 = Clock::now();
    try {
      serve::CheckResult res;
      {
        Tracer::Span s(st.tracer, "serve.request", row.id);
        res = client.check(request_for(job));
      }
      r.job_ms = ms_between(t0, Clock::now());
      row.cached = res.cached;
      row.cacheable = res.cacheable;
      row.server_ms = res.elapsed_ms;
      r.verdict = res.verdict;
      if (!res.cacheable) ++counts.uncacheable;
      const std::uint64_t fnv =
          persist::fnv1a64(res.bundle.data(), res.bundle.size());
      if (!res.ok) {
        r.outcome = Outcome::kException;
        r.detail = res.error_check + ": " + res.error;
      } else if (res.verdict == "unknown") {
        r.outcome = Outcome::kUnknown;
        r.detail = res.reason;
      } else if ((res.verdict == "true") != job.expected) {
        r.outcome = Outcome::kWrongVerdict;
        r.detail = "served " + res.verdict;
      } else if (const auto [it, fresh] =
                     first_bundle.emplace(res.cache_key, fnv);
                 !fresh && it->second != fnv) {
        // A hit must hand back the producing run's proof byte for byte.
        r.outcome = Outcome::kVerifyRejected;
        r.detail = "cached bundle differs from the producing run's";
      }
    } catch (const std::exception& e) {
      r.job_ms = ms_between(t0, Clock::now());
      r.outcome = Outcome::kException;
      r.detail = e.what();
    }
    st.rows.push_back(std::move(row));
  }
  const jsonmini::Value v = jsonmini::parse(client.stats_json());
  if (const jsonmini::Value* s = v.find("stats")) {
    counts.hits = stat_of(*s, "hits");
    counts.misses = stat_of(*s, "misses");
    counts.evictions = stat_of(*s, "evictions");
    counts.disk_loads = stat_of(*s, "disk_loads");
    counts.poisoned = stat_of(*s, "poisoned");
  }
  st.serve_counts.push_back(counts);
}

// -- set-up ----------------------------------------------------------------------

/// The set-up before pass `pass`: generate the pass's inputs, find and probe
/// symcex-verify, bring a server up (served-mix) and warm up on the smallest
/// job of each family.  Returns the seconds since `start`.  Set-ups spread
/// over the whole run, so one burst of machine load cannot move the median.
double setup_pass(RunState& st, unsigned pass, Clock::time_point start) {
  std::vector<Job> pool = make_pool(
      st.opt.workload, bench::Draw(st.opt.seed, pass), st.opt.paths.models);
  if (pool.empty()) throw std::runtime_error("empty job pool");
  const std::string log = st.run_dir + "/verify-version.log";
  if (bench::spawn_and_wait(st.opt.paths.verify, {"--version"}, log) != 0) {
    throw std::runtime_error("cannot run symcex-verify at '" +
                             st.opt.paths.verify + "'");
  }
  Tracer off;
  const std::vector<const Job*> warm = warmup_jobs(pool);
  if (st.opt.workload == "served-mix") {
    ServedSession session(st.run_dir, "setup");
    for (const Job* job : warm) {
      serve::CheckRequest req = request_for(*job);
      req.options.no_cache = true;
      const serve::CheckResult res = session.client().check(req);
      if (!res.ok) throw std::runtime_error("warm-up failed: " + res.error);
    }
  } else {
    const bool evidence = st.opt.workload == "evidence-wide";
    for (const Job* job : warm) {
      const JobResult r = bench::run_job(*job, evidence, st.opt.paths, off, 0);
      if (r.outcome != Outcome::kOk) {
        throw std::runtime_error("warm-up job " + job->model + " failed: " +
                                 r.detail);
      }
    }
  }
  const double seconds = ms_between(start, Clock::now()) / 1000.0;
  st.pools.push_back(std::move(pool));
  return seconds;
}

// -- metrics ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

std::vector<double> job_times(const std::vector<Row>& rows, int traced) {
  std::vector<double> v;
  for (const Row& r : rows) {
    if (traced < 0 || r.traced == (traced == 1)) v.push_back(r.result.job_ms);
  }
  return v;
}

std::vector<Metric> end_to_end(const RunState& st, double setup_s) {
  const std::vector<double> times = job_times(st.rows, -1);
  std::size_t ok = 0;
  for (const Row& r : st.rows) ok += r.result.outcome == Outcome::kOk;
  const double busy =
      std::accumulate(st.pass_seconds.begin(), st.pass_seconds.end(), 0.0);
  std::vector<Metric> m;
  add(m, "setup_s", setup_s, "s");
  add(m, "job_p50_ms", percentile(times, 0.50), "ms");
  add(m, "job_p90_ms", percentile(times, 0.90), "ms");
  add(m, "jobs_per_s", static_cast<double>(ok) / busy, "1/s");
  add(m, "peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

std::vector<Metric> per_layer(const RunState& st) {
  std::vector<const Row*> traced;
  for (const Row& r : st.rows) {
    if (r.traced) traced.push_back(&r);
  }
  const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
  std::map<std::string, double> self;
  const std::vector<double> span_self = st.tracer.self_ms();
  for (std::size_t i = 0; i < span_self.size(); ++i) {
    self[st.tracer.records()[i].name] += span_self[i];
  }
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto mean = [&](auto field) {
    double sum = 0;
    for (const Row* r : traced) sum += static_cast<double>(field(r->result));
    return sum / n;
  };
  const auto ratio = [&](auto num, auto den) {
    double a = 0;
    double b = 0;
    for (const Row* r : traced) {
      a += static_cast<double>(num(r->result.counters));
      b += static_cast<double>(den(r->result.counters));
    }
    return b == 0 ? 0.0 : a / b;
  };
  const auto count_of = [&](Outcome o) {
    double c = 0;
    for (const Row* r : traced) c += r->result.outcome == o;
    return c;
  };
  using C = bench::Counters;
  using R = JobResult;
  const bool served = st.opt.workload == "served-mix";
  std::vector<Metric> m;

  // smv / ts / bdd / core / certify / evidence / verify: per-job means of
  // the traced direct jobs (served-mix runs them inside the server, where
  // only serve.job_ms sees them).  Counts repeat exactly for one seed.
  double compile_ms = self_of("smv.compile") / n;
  double state_vars = mean([](const R& r) { return r.counters.state_vars; });
  double fingerprint_ms = 0;
  if (served) {
    // One compile and one model_fingerprint probe per distinct model.
    std::map<std::string, const Job*> models;
    for (const std::vector<Job>& pool : st.pools) {
      for (const Job& j : pool) models.emplace(j.model, &j);
    }
    double c_ms = 0;
    double f_ms = 0;
    double vars = 0;
    for (const auto& [name, job] : models) {
      const auto t0 = Clock::now();
      smv::SmvModel model = smv::compile(job->model_text);
      const auto t1 = Clock::now();
      try {
        (void)serve::model_fingerprint(model.system());
      } catch (const std::length_error&) {
        // Uncacheable; the probe still measured the attempt.
      }
      c_ms += ms_between(t0, t1);
      f_ms += ms_between(t1, Clock::now());
      vars += static_cast<double>(model.system().num_state_vars());
    }
    const double k = static_cast<double>(models.size());
    compile_ms = c_ms / k;
    fingerprint_ms = f_ms / k;
    state_vars = vars / k;
  }
  add(m, "smv.compile_ms", compile_ms, "ms");
  add(m, "smv.state_vars", state_vars, "count");
  add(m, "ts.reachable_ms", self_of("ts.reachable") / n, "ms");
  add(m, "ts.conjuncts", mean([](const R& r) { return r.counters.conjuncts; }),
      "count");
  add(m, "ts.clusters", mean([](const R& r) { return r.counters.clusters; }),
      "count");
  add(m, "bdd.apply_calls",
      mean([](const R& r) { return r.counters.apply_calls; }), "count");
  add(m, "bdd.and_exists_calls",
      mean([](const R& r) { return r.counters.and_exists_calls; }), "count");
  add(m, "bdd.cache_hit_ratio",
      ratio([](const C& c) { return c.cache_hits; },
            [](const C& c) { return c.cache_lookups; }),
      "ratio");
  add(m, "bdd.unique_hit_ratio",
      ratio([](const C& c) { return c.unique_hits; },
            [](const C& c) { return c.unique_hits + c.unique_misses; }),
      "ratio");
  double peak = 0;
  for (const Row* r : traced) {
    peak = std::max(peak, static_cast<double>(r->result.counters.peak_nodes));
  }
  add(m, "bdd.peak_nodes", peak, "nodes");
  add(m, "bdd.gc_runs", mean([](const R& r) { return r.counters.gc_runs; }),
      "count");
  add(m, "bdd.gc_pause_ms", mean([](const R& r) { return r.gc_pause_ms; }),
      "ms");
  add(m, "core.check_ms", self_of("core.check") / n, "ms");
  add(m, "core.explain_ms", self_of("core.explain") / n, "ms");
  add(m, "core.eu_iterations",
      mean([](const R& r) { return r.counters.eu_iterations; }), "count");
  add(m, "core.eg_iterations",
      mean([](const R& r) { return r.counters.eg_iterations; }), "count");
  add(m, "core.preimage_calls",
      mean([](const R& r) { return r.counters.preimage_calls; }), "count");
  add(m, "core.faireg_reuse_hits",
      mean([](const R& r) { return r.counters.faireg_reuse_hits; }), "count");
  add(m, "core.witness_restarts",
      mean([](const R& r) { return r.counters.witness_restarts; }), "count");
  add(m, "core.trace_len",
      mean([](const R& r) { return r.counters.trace_len; }), "states");
  add(m, "certify.ms", self_of("certify") / n, "ms");
  add(m, "certify.obligations",
      mean([](const R& r) { return r.counters.certify_obligations; }),
      "count");
  add(m, "evidence.bundle_ms", self_of("evidence.bundle") / n, "ms");
  add(m, "evidence.write_ms", self_of("evidence.write") / n, "ms");
  add(m, "evidence.bundle_bytes",
      mean([](const R& r) { return r.counters.bundle_bytes; }), "bytes");
  add(m, "evidence.uncoverable", count_of(Outcome::kUncoverable), "count");
  add(m, "verify.ms", self_of("verify") / n, "ms");
  add(m, "verify.rejects", count_of(Outcome::kVerifyRejected), "count");

  // serve: per-request means and per-pass counts over the traced passes.
  double job_ms = 0;
  double transport_ms = 0;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  for (const Row* r : traced) {
    if (!served) break;
    job_ms += r->server_ms;
    transport_ms += r->result.job_ms - r->server_ms;
    (r->cached ? hit_ms : miss_ms).push_back(r->result.job_ms);
  }
  ServeCounts per_pass;
  double traced_passes = 0;
  for (std::size_t p = 0, s = 0; served && p < st.pass_traced.size(); ++p) {
    const ServeCounts& c = st.serve_counts[s++];
    if (!st.pass_traced[p]) continue;
    ++traced_passes;
    per_pass.hits += c.hits;
    per_pass.misses += c.misses;
    per_pass.evictions += c.evictions;
    per_pass.disk_loads += c.disk_loads;
    per_pass.poisoned += c.poisoned;
    per_pass.uncacheable += c.uncacheable;
  }
  const double tp = std::max(1.0, traced_passes);
  add(m, "serve.job_ms", job_ms / n, "ms");
  add(m, "serve.transport_ms", transport_ms / n, "ms");
  add(m, "serve.fingerprint_ms", fingerprint_ms, "ms");
  add(m, "serve.hit_p50_ms", percentile(hit_ms, 0.5), "ms");
  add(m, "serve.miss_p50_ms", percentile(miss_ms, 0.5), "ms");
  add(m, "serve.hits", static_cast<double>(per_pass.hits) / tp, "count/pass");
  add(m, "serve.misses", static_cast<double>(per_pass.misses) / tp,
      "count/pass");
  add(m, "serve.uncacheable", static_cast<double>(per_pass.uncacheable) / tp,
      "count/pass");
  add(m, "serve.evictions", static_cast<double>(per_pass.evictions) / tp,
      "count/pass");
  add(m, "serve.disk_loads", static_cast<double>(per_pass.disk_loads) / tp,
      "count/pass");
  add(m, "serve.poisoned", static_cast<double>(per_pass.poisoned) / tp,
      "count/pass");

  // Failures over every job of the run, and what tracing costs.
  double failed = 0;
  for (const Row& r : st.rows) failed += r.result.outcome != Outcome::kOk;
  add(m, "fail_ratio", failed / static_cast<double>(st.rows.size()), "ratio");
  const double untraced_p50 = percentile(job_times(st.rows, 0), 0.5);
  const double traced_p50 = percentile(job_times(st.rows, 1), 0.5);
  add(m, "trace.overhead_pct",
      untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0, "%");
  return m;
}

// -- output ----------------------------------------------------------------------

void write_manifest(const RunState& st, const std::vector<std::string>& cleared,
                    const std::vector<double>& setups) {
  std::ofstream os(st.run_dir + "/manifest.json");
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("benchmark", "symcex-bench");
  w.member("build", version::build_info("symcex-bench"));
  w.member("workload", st.opt.workload);
  w.member("seed", st.opt.seed);
  w.member("held_out_seed", kHeldOutSeed);
  w.member("seconds", st.opt.seconds);
  w.member("trace", st.opt.trace);
  w.member("nproc", static_cast<std::uint64_t>(
                        std::max(1u, std::thread::hardware_concurrency())));
  w.key("environment_cleared");
  w.begin_array();
  for (const std::string& name : cleared) w.value(name);
  w.end_array();
  // Knobs with a public getter, read back in this process; the per-model
  // ones from a compile of the first job's model, as every job compiles it.
  smv::SmvModel probe = smv::compile(st.pools.front().front().smv_text());
  w.key("engine");
  w.begin_object();
  w.member("threads", static_cast<std::uint64_t>(ts::env_threads()));
  w.member("certify_auto", certify::enabled());
  w.member("diag_stats", diag::enabled());
  w.member("audit", bdd::audits_enabled());
  w.member("evidence_dir", evidence::default_dir());
  w.member("cluster_threshold",
           static_cast<std::uint64_t>(probe.system().cluster_threshold()));
  w.member("reorder", probe.system().manager().auto_reorder());
  w.member("image_method",
           core::CheckOptions{}.image_method == ts::ImageMethod::kMonolithic
               ? "monolithic"
               : "partitioned");
  w.end_object();
  // Knobs with no public getter: these are the library defaults that hold
  // once their SYMCEX_* variables are cleared, not values read back.
  w.key("engine_defaults");
  w.begin_object();
  w.member("care_set", false);
  w.member("coi", false);
  w.member("fold_constants", false);
  w.member("checkpoint_dir", "");
  w.member("fault_spec", "");
  w.end_object();
  w.key("setup_s");
  w.begin_array();
  for (const double s : setups) w.value(s);
  w.end_array();
  w.key("families");
  w.begin_array();
  for (const bench::Family& f : bench::families()) {
    w.begin_object();
    w.member("name", f.name);
    w.member("why", f.why);
    w.end_object();
  }
  w.end_array();
  w.key("jobs");
  w.begin_array();
  for (const Job& j : st.pools.front()) {
    w.begin_object();
    w.member("family", j.family);
    w.member("n", static_cast<std::uint64_t>(j.n));
    w.member("model", j.model);
    w.member("spec", j.spec);
    w.member("expected", j.expected);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

void write_rows(const RunState& st) {
  // Stage self times per job, from the spans.
  std::map<std::uint64_t, std::map<std::string, double>> stages;
  const std::vector<double> self = st.tracer.self_ms();
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Tracer::Record& r = st.tracer.records()[i];
    stages[r.job][r.name] += self[i];
  }
  std::ofstream os(st.run_dir + "/rows.jsonl");
  for (const Row& row : st.rows) {
    const JobResult& r = row.result;
    const bench::Counters& c = r.counters;
    diag::JsonWriter w(os);
    w.begin_object();
    w.member("id", row.id);
    w.member("pass", static_cast<std::uint64_t>(row.pass));
    w.member("family", row.job->family);
    w.member("n", static_cast<std::uint64_t>(row.job->n));
    w.member("model", row.job->model);
    w.member("spec", row.job->spec);
    w.member("expected", row.job->expected);
    w.member("verdict", r.verdict);
    w.member("outcome", bench::outcome_name(r.outcome));
    if (!r.detail.empty()) w.member("detail", r.detail);
    w.member("job_ms", r.job_ms);
    if (st.opt.workload == "served-mix") {
      w.member("cached", row.cached);
      w.member("cacheable", row.cacheable);
      w.member("server_ms", row.server_ms);
    }
    w.member("traced", row.traced);
    if (row.traced) {
      w.key("stage_ms");
      w.begin_object();
      for (const auto& [name, ms] : stages[row.id]) w.member(name, ms);
      w.end_object();
      w.key("counters");
      w.begin_object();
      w.member("state_vars", c.state_vars);
      w.member("conjuncts", c.conjuncts);
      w.member("clusters", c.clusters);
      w.member("apply_calls", c.apply_calls);
      w.member("and_exists_calls", c.and_exists_calls);
      w.member("cache_hits", c.cache_hits);
      w.member("cache_lookups", c.cache_lookups);
      w.member("unique_hits", c.unique_hits);
      w.member("unique_misses", c.unique_misses);
      w.member("peak_nodes", c.peak_nodes);
      w.member("gc_runs", c.gc_runs);
      w.member("eu_iterations", c.eu_iterations);
      w.member("eg_iterations", c.eg_iterations);
      w.member("preimage_calls", c.preimage_calls);
      w.member("faireg_reuse_hits", c.faireg_reuse_hits);
      w.member("witness_restarts", c.witness_restarts);
      w.member("trace_len", c.trace_len);
      w.member("certify_obligations", c.certify_obligations);
      w.member("bundle_bytes", c.bundle_bytes);
      w.member("bundle_fnv", serve::hex16(c.bundle_fnv));
      w.end_object();
    }
    w.end_object();
    os << "\n";
  }
}

void write_result(std::ostream& os, bool correct, std::size_t attempted,
                  std::size_t failed, const std::vector<Metric>& metrics) {
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("correct", correct);
  w.member("attempted", static_cast<std::uint64_t>(attempted));
  w.member("failed", static_cast<std::uint64_t>(failed));
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.member("value", m.value);
    w.member("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

// -- a run -----------------------------------------------------------------------

int run(const Options& opt, const std::vector<std::string>& cleared,
        Clock::time_point start) {
  RunState st;
  st.opt = opt;
  st.run_dir = opt.out + "/" + opt.workload + "-s" + std::to_string(opt.seed) +
               "-t" + (opt.trace ? "1" : "0");
  st.opt.paths.run = st.run_dir;
  fs::remove_all(st.run_dir);
  fs::create_directories(st.run_dir);

  st.rng.seed(opt.seed ^ 0x9e3779b97f4a7c15ULL);

  // Whole passes until the time is up and p90 has ten samples beyond it;
  // traced runs alternate untraced and traced passes.
  std::vector<double> setups;
  const auto t_measure = Clock::now();
  double elapsed = 0;
  for (unsigned pass = 0;; ++pass) {
    setups.push_back(setup_pass(st, pass, pass == 0 ? start : Clock::now()));
    const bool traced = opt.trace && pass % 2 == 1;
    st.tracer.set_enabled(traced);
    const auto t0 = Clock::now();
    if (opt.workload == "served-mix") {
      served_pass(st, pass);
    } else {
      direct_pass(st, pass);
    }
    st.pass_seconds.push_back(ms_between(t0, Clock::now()) / 1000.0);
    st.pass_traced.push_back(traced);
    // Hand the freed heap back to the OS, so each pass starts from the heap
    // a fresh process would have.  Otherwise the free memory that each
    // thread's malloc arena keeps piles up across served passes.
    malloc_trim(0);
    elapsed = ms_between(t_measure, Clock::now()) / 1000.0;
    const bool enough = elapsed >= opt.seconds && st.rows.size() >= kMinJobs &&
                        (!opt.trace || pass >= 1);
    if (enough || elapsed >= kMaxMeasureSeconds) break;
  }
  st.tracer.set_enabled(false);
  std::vector<double> sorted = setups;
  std::sort(sorted.begin(), sorted.end());
  const double setup_s = sorted[sorted.size() / 2];

  std::array<std::size_t, bench::kNumOutcomes> by_class{};
  for (const Row& r : st.rows) {
    ++by_class[static_cast<std::size_t>(r.result.outcome)];
  }
  const std::size_t failed =
      st.rows.size() - by_class[static_cast<std::size_t>(Outcome::kOk)];
  const std::vector<Metric> metrics =
      opt.trace ? per_layer(st) : end_to_end(st, setup_s);

  write_manifest(st, cleared, setups);
  write_rows(st);
  if (opt.trace) {
    std::ofstream trace(st.run_dir + "/trace.json");
    st.tracer.write_chrome(trace);
  }
  {
    std::ofstream summary(st.run_dir + "/summary.json");
    write_result(summary, failed == 0, st.rows.size(), failed, metrics);
    summary << "\n";
  }

  const std::vector<double> times = job_times(st.rows, -1);
  std::cout << "symcex-bench " << opt.workload << " seed=" << opt.seed
            << " trace=" << opt.trace << " passes=" << st.pass_seconds.size()
            << " jobs=" << st.rows.size() << " pool=" << st.pools.front().size()
            << " measured=" << std::fixed << std::setprecision(2) << elapsed
            << "s\n";
  std::cout << "  samples: job_p50_ms n=" << times.size()
            << ", job_p90_ms beyond=" << times.size() - static_cast<std::size_t>(
                   std::ceil(0.9 * static_cast<double>(times.size())))
            << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(24) << m.name << std::right
              << std::setw(14) << std::setprecision(4) << m.value << " "
              << m.unit << "\n";
  }
  std::cout << "  outcomes:";
  for (std::size_t i = 0; i < bench::kNumOutcomes; ++i) {
    std::cout << " " << bench::outcome_name(static_cast<Outcome>(i)) << "="
              << by_class[i];
  }
  std::cout << "\n  files: " << st.run_dir << "\n";
  for (const Row& r : st.rows) {
    if (r.result.outcome != Outcome::kOk) {
      std::cout << "  FAILED " << r.job->model << " | " << r.job->spec << ": "
                << bench::outcome_name(r.result.outcome) << " "
                << r.result.detail << "\n";
      break;
    }
  }
  std::cout.unsetf(std::ios::floatfield);
  write_result(std::cout, failed == 0, st.rows.size(), failed, metrics);
  std::cout << std::endl;
  return 0;
}

// -- self-test ---------------------------------------------------------------------

int self_test(const Options& opt) {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    failures += ok ? 0 : 1;
  };
  const std::string run_dir = opt.out + "/self-test";
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  bench::Paths paths = opt.paths;
  paths.run = run_dir;

  // 1. Every family's expected verdicts against the independent explicit
  //    engine, at the smallest N.
  for (const Job& job : bench::smallest_instances(opt.paths.models)) {
    smv::SmvModel model = smv::compile(job.smv_text());
    const std::size_t index = job.spec_index < 0 ? 0 : job.spec_index;
    const enumerative::Enumerated e =
        enumerative::enumerate(model.system(), 1u << 16);
    enumerative::Checker explicit_checker(e.graph);
    const bool verdict = explicit_checker.holds(model.specs()[index]);
    check(verdict == job.expected,
          "explicit " + job.model + " | " + job.spec + " is " +
              (verdict ? "true" : "false"));
  }

  // 2. Failure accounting: each class is recorded and the run goes on.
  Tracer off;
  Job uncoverable;
  uncoverable.family = "philosophers";
  uncoverable.n = 9;
  uncoverable.model = "philosophers-9";
  uncoverable.model_text = bench::philosophers_smv(9);
  uncoverable.spec = "AG (hungry0 -> AF eat0)";
  uncoverable.expected = false;
  JobResult r = bench::run_job(uncoverable, true, paths, off, 1);
  check(r.outcome == Outcome::kUncoverable,
        "philosophers-9 bundle is counted as " +
            std::string(bench::outcome_name(r.outcome)));
  Job wrong = uncoverable;
  wrong.model_text = bench::philosophers_smv(3);
  wrong.expected = true;
  r = bench::run_job(wrong, false, paths, off, 2);
  check(r.outcome == Outcome::kWrongVerdict,
        "a wrong expectation is counted as " +
            std::string(bench::outcome_name(r.outcome)));
  Job broken = wrong;
  broken.model_text = "MODULE main\nVAR x : boolean;\nASSIGN next(x) := y;\n";
  r = bench::run_job(broken, false, paths, off, 3);
  check(r.outcome == Outcome::kException,
        "a malformed model is counted as " +
            std::string(bench::outcome_name(r.outcome)));

  // 3. Exact counters: one job set, twice, same seed.
  std::vector<std::vector<bench::Counters>> runs;
  for (int k = 0; k < 2; ++k) {
    const std::vector<Job> pool =
        bench::evidence_wide_pool(bench::Draw(1, 0));
    Tracer on;
    on.set_enabled(true);
    runs.emplace_back();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const JobResult jr = bench::run_job(pool[i], true, paths, on, i);
      runs.back().push_back(jr.counters);
      if (k == 0 && jr.outcome != Outcome::kOk) {
        check(false, "evidence-wide " + pool[i].model + " | " + pool[i].spec +
                         ": " + bench::outcome_name(jr.outcome) + " " +
                         jr.detail);
      }
    }
  }
  std::size_t same = 0;
  for (std::size_t i = 0; i < runs[0].size(); ++i) same += runs[0][i] == runs[1][i];
  check(same == runs[0].size(),
        "exact counters and bundle hashes repeat on " + std::to_string(same) +
            "/" + std::to_string(runs[0].size()) + " evidence-wide jobs");
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  const std::vector<std::string> cleared = pin_environment(argv);
  const Options opt = parse_args(argc, argv);
  try {
    if (opt.self_test) return self_test(opt);
    return run(opt, cleared, start);
  } catch (const std::exception& e) {
    std::cerr << "symcex-bench: " << e.what() << "\n";
    return 1;
  }
}
