// The check-serving subsystem (src/serve; DESIGN.md section 15):
// protocol round-trips, semantic cache keys, the self-validating verdict
// cache (including tamper detection), and the daemon end to end over a
// real Unix socket -- warm sessions, batched queries, cache hits that are
// measurably faster and replayable by symcex-verify, budget-exhausted
// jobs that come back as typed unknowns without killing the daemon, and
// admission-control overload responses.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "ctl/formula.hpp"
#include "evidence/evidence.hpp"
#include "guard/fault.hpp"
#include "json_mini.hpp"
#include "models/models.hpp"
#include "persist/persist.hpp"
#include "serve/serve.hpp"
#include "test_util.hpp"

#ifndef SYMCEX_VERIFY_BIN
#error "SYMCEX_VERIFY_BIN must point at the symcex-verify executable"
#endif

namespace symcex {
namespace {

std::string fresh_dir(const char* tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "symcex_serve_" + tag + "_" +
                          info->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out) << "cannot write " << path;
}

serve::CheckRequest req(const std::string& model, const std::string& spec) {
  serve::CheckRequest r;
  r.model = model;
  r.spec = spec;
  return r;
}

// -- wire protocol ------------------------------------------------------------

TEST(ServeProtocol, CheckRequestRoundTrips) {
  serve::CheckRequest r = req("counter", "AG EF zero");
  r.smv = "MODULE main\nVAR x : boolean;\n";
  r.options.node_limit = 1234;
  r.options.deadline_ms = 56;
  r.options.no_cache = true;

  const serve::Request parsed =
      serve::parse_request(serve::format_check_request(r));
  ASSERT_EQ(parsed.op, serve::Request::Op::kCheck);
  EXPECT_EQ(parsed.check.model, r.model);
  EXPECT_EQ(parsed.check.smv, r.smv);
  EXPECT_EQ(parsed.check.spec, r.spec);
  EXPECT_EQ(parsed.check.options.node_limit, r.options.node_limit);
  EXPECT_EQ(parsed.check.options.deadline_ms, r.options.deadline_ms);
  EXPECT_EQ(parsed.check.options.no_cache, r.options.no_cache);
}

TEST(ServeProtocol, BatchRequestRoundTrips) {
  const std::vector<serve::CheckRequest> jobs = {
      req("counter", "AG EF zero"), req("peterson", "AG !(crit0 & crit1)")};
  const serve::Request parsed =
      serve::parse_request(serve::format_batch_request(jobs));
  ASSERT_EQ(parsed.op, serve::Request::Op::kBatch);
  ASSERT_EQ(parsed.batch.size(), 2u);
  EXPECT_EQ(parsed.batch[0].model, "counter");
  EXPECT_EQ(parsed.batch[1].spec, "AG !(crit0 & crit1)");
}

TEST(ServeProtocol, MalformedRequestsThrowTypedErrors) {
  const auto check_of = [](const std::string& line) {
    try {
      (void)serve::parse_request(line);
    } catch (const serve::ProtocolError& e) {
      return e.check();
    }
    return std::string("(no error)");
  };
  EXPECT_EQ(check_of("this is not json"), "json");
  EXPECT_EQ(check_of("[1,2,3]"), "json");
  EXPECT_EQ(check_of("{\"op\":\"frobnicate\"}"), "op");
  EXPECT_EQ(check_of("{\"op\":\"check\"}"), "field");  // no model/spec
  EXPECT_EQ(check_of("{\"op\":\"check\",\"model\":\"counter\"}"), "field");
  EXPECT_EQ(check_of("{\"op\":\"batch\"}"), "field");  // no jobs
  // A count past 2^53 is rejected, not cast (from 2^64 on, undefined).
  EXPECT_EQ(check_of("{\"op\":\"check\",\"model\":\"counter\",\"spec\":"
                     "\"AG EF zero\",\"options\":{\"deadline_ms\": 1e30}}"),
            "field");
}

TEST(ServeProtocol, CheckResultRoundTrips) {
  serve::CheckResult r;
  r.model = "counter";
  r.spec = "AG EF zero";
  r.verdict = "true";
  r.reason = "invariant holds";
  r.cached = true;
  r.cacheable = true;
  r.elapsed_ms = 1.5;
  r.cache_key = "abc-def";
  r.bundle = "{\"check\":{\"verdict\":\"true\"}}";

  std::ostringstream os;
  diag::JsonWriter w(os);
  serve::write_check_result(w, r);
  const jsonmini::Value v = jsonmini::parse(os.str());
  const serve::CheckResult back = serve::parse_check_result(v);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.model, r.model);
  EXPECT_EQ(back.spec, r.spec);
  EXPECT_EQ(back.verdict, r.verdict);
  EXPECT_EQ(back.reason, r.reason);
  EXPECT_TRUE(back.cached);
  EXPECT_EQ(back.cache_key, r.cache_key);
  // The bundle must come back byte-exact: it is the replayable proof.
  EXPECT_EQ(back.bundle, r.bundle);
}

// -- cache key ----------------------------------------------------------------

TEST(ServeCacheKey, FingerprintIsSemanticAndStable) {
  auto a = models::counter({.width = 4});
  auto b = models::counter({.width = 4});
  auto c = models::counter({.width = 5});
  const serve::ModelFingerprint fa = serve::model_fingerprint(*a);
  const serve::ModelFingerprint fb = serve::model_fingerprint(*b);
  const serve::ModelFingerprint fc = serve::model_fingerprint(*c);
  // Same structure, fresh managers: identical fingerprint.
  EXPECT_EQ(fa.hex(), fb.hex());
  // Different structure: different fingerprint.
  EXPECT_NE(fa.hex(), fc.hex());
  EXPECT_EQ(fa.hex().size(), 32u);
}

TEST(ServeCacheKey, KeyCombinesModelAndFormula) {
  auto ts = models::counter({.width = 4});
  const serve::ModelFingerprint fp = serve::model_fingerprint(*ts);
  const std::string k1 = serve::cache_key(fp, ctl::parse("AG EF zero"));
  const std::string k2 = serve::cache_key(fp, ctl::parse("AG  EF  (zero)"));
  const std::string k3 = serve::cache_key(fp, ctl::parse("EF zero"));
  // Spelling-insensitive, structure-sensitive.
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
  ASSERT_EQ(k1.size(), 32u + 1u + 16u);
  EXPECT_EQ(k1[32], '-');
  EXPECT_EQ(k1.substr(0, 32), fp.hex());
}

// -- verdict cache ------------------------------------------------------------

/// Minimal bundle body that passes the cache's disk re-validation (the
/// check section must agree with the meta sidecar).
std::string mini_bundle(const std::string& spec, const std::string& verdict) {
  return "{\"check\": {\"spec\": \"" + spec + "\", \"verdict\": \"" +
         verdict + "\"}}";
}

serve::CacheEntry entry_for(const std::string& spec) {
  serve::CacheEntry e;
  e.verdict = "true";
  e.reason = "test";
  e.spec = spec;
  e.producer = "serve_test";
  e.bundle = mini_bundle(spec, "true");
  return e;
}

TEST(VerdictCache, StoreLookupValidateAndCountStats) {
  serve::VerdictCache cache(4, "");
  cache.store("k1", entry_for("AG p"));
  const auto hit = cache.lookup("k1", "AG p");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, "true");
  EXPECT_EQ(hit->bundle, mini_bundle("AG p", "true"));
  EXPECT_FALSE(cache.lookup("k2", "AG p").has_value());
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.size, 1u);
}

TEST(VerdictCache, UnknownVerdictsAreRejected) {
  serve::VerdictCache cache(4, "");
  serve::CacheEntry e = entry_for("AG p");
  e.verdict = "unknown";
  EXPECT_THROW(cache.store("k", std::move(e)), std::logic_error);
}

TEST(VerdictCache, SpecMismatchPoisonsTheEntry) {
  serve::VerdictCache cache(4, "");
  cache.store("k1", entry_for("AG p"));
  // A key collision (or tampered memory entry) surfaces as a spec
  // mismatch: rejected, counted, dropped -- never served.
  EXPECT_FALSE(cache.lookup("k1", "AG q").has_value());
  EXPECT_EQ(cache.stats().poisoned, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerdictCache, EvictionSpillsToDiskAndReloads) {
  const std::string dir = fresh_dir("cache");
  serve::VerdictCache cache(1, dir);
  cache.store("aaa", entry_for("AG p"));
  cache.store("bbb", entry_for("AG q"));  // evicts aaa from memory
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/aaa.bundle.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/aaa.meta.json"));

  // The evicted entry comes back from disk, byte-exact.
  const auto hit = cache.lookup("aaa", "AG p");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->bundle, mini_bundle("AG p", "true"));
  EXPECT_GE(cache.stats().disk_loads, 1u);
}

TEST(VerdictCache, TamperedDiskEntryIsDetectedRemovedAndRecomputable) {
  const std::string dir = fresh_dir("cache");
  std::string bundle_path;
  {
    serve::VerdictCache cache(4, dir);
    cache.store("kkk", entry_for("AG p"));
    bundle_path = dir + "/kkk.bundle.json";
    ASSERT_TRUE(std::filesystem::exists(bundle_path));
  }
  // Swap in a well-formed but different bundle; the checksum in the meta
  // sidecar no longer matches, so a fresh cache instance (cross-run)
  // rejects it on load.
  write_file(bundle_path,
             "{\"check\": {\"spec\": \"AG p\", \"verdict\": \"true\"},"
             " \"forged\": 1}");
  serve::VerdictCache cache(4, dir);
  EXPECT_FALSE(cache.lookup("kkk", "AG p").has_value());
  EXPECT_EQ(cache.stats().poisoned, 1u);
  EXPECT_FALSE(std::filesystem::exists(bundle_path)) << "poisoned file kept";
  // The slot is reusable: a fresh store serves again.
  cache.store("kkk", entry_for("AG p"));
  EXPECT_TRUE(cache.lookup("kkk", "AG p").has_value());
}

TEST(VerdictCache, MetaVerdictDisagreementIsPoison) {
  const std::string dir = fresh_dir("cache");
  // An honest-looking meta whose verdict disagrees with the bundle it
  // points at must not be served: the entry validates against itself.
  std::string meta_path;
  {
    serve::VerdictCache cache(4, dir);
    cache.store("mmm", entry_for("AG p"));
    meta_path = dir + "/mmm.meta.json";
  }
  std::string meta = read_file(meta_path);
  const auto pos = meta.find("\"true\"");
  ASSERT_NE(pos, std::string::npos);
  meta.replace(pos, 6, "\"false\"");
  write_file(meta_path, meta);
  serve::VerdictCache cache(4, dir);
  EXPECT_FALSE(cache.lookup("mmm", "AG p").has_value());
  EXPECT_EQ(cache.stats().poisoned, 1u);
}

// -- the daemon, end to end ---------------------------------------------------

struct LiveServer {
  explicit LiveServer(serve::ServerOptions opt) : server(std::move(opt)) {
    server.start();
  }
  ~LiveServer() { server.stop(); }
  serve::Server server;
};

serve::ServerOptions base_options(const char* tag) {
  serve::ServerOptions opt;
  const std::string dir = fresh_dir(tag);
  opt.socket_path = dir + "/serve.sock";
  opt.cache_dir = dir + "/cache";
  opt.workers = 2;
  return opt;
}

TEST(ServeDaemon, BatchServesVerifiesAndCachesAcrossModels) {
  // The acceptance battery: >= 5 bundled models, mixed true and false
  // verdicts, every bundle replayable by symcex-verify, and a second pass
  // that is all cache hits: the daemon's counters show no job reran the
  // checker.
  const serve::ServerOptions opt = base_options("e2e");
  LiveServer live(opt);
  serve::Client client;
  client.connect(opt.socket_path);
  EXPECT_NE(client.hello().find("\"protocol\": 1"), std::string::npos);
  EXPECT_TRUE(client.ping());

  const std::vector<serve::CheckRequest> jobs = {
      req("counter", "AG EF zero"),
      req("counter_mod", "AG !max"),
      req("peterson", "AG !(crit0 & crit1)"),
      req("peterson_buggy", "AG (try0 -> AF crit0)"),
      req("philosophers", "AG !(eat0 & eat1)"),
      req("round_robin", "AG !(gnt0 & gnt1)"),
      req("scc_chain", "EF in_cycle"),
  };

  const std::vector<serve::CheckResult> first = client.batch(jobs);
  ASSERT_EQ(first.size(), jobs.size());
  const std::string bundles = fresh_dir("bundles");
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(jobs[i].model + " / " + jobs[i].spec);
    ASSERT_TRUE(first[i].ok) << first[i].error;
    EXPECT_FALSE(first[i].cached);
    EXPECT_TRUE(first[i].cacheable);
    EXPECT_TRUE(first[i].verdict == "true" || first[i].verdict == "false")
        << first[i].verdict;
    ASSERT_FALSE(first[i].bundle.empty());
    write_file(bundles + "/job" + std::to_string(i) + ".json",
               first[i].bundle);
  }
  // Known verdicts anchor the battery.
  EXPECT_EQ(first[0].verdict, "true");   // counter: AG EF zero
  EXPECT_EQ(first[2].verdict, "true");   // peterson mutual exclusion
  EXPECT_EQ(first[3].verdict, "false");  // buggy peterson livelocks

  // Every served bundle is a self-contained proof symcex-verify accepts.
  std::string verify_out;
  EXPECT_EQ(test::run_verify(bundles, bundles + "/*.json", &verify_out), 0)
      << verify_out;

  // Second pass: identical answers, all cache hits, no checker run.
  const serve::ServeStats after_first = client.stats();
  const std::vector<serve::CheckResult> second = client.batch(jobs);
  ASSERT_EQ(second.size(), jobs.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    SCOPED_TRACE(jobs[i].model + " / " + jobs[i].spec);
    ASSERT_TRUE(second[i].ok);
    EXPECT_TRUE(second[i].cached);
    EXPECT_EQ(second[i].verdict, first[i].verdict);
    EXPECT_EQ(second[i].bundle, first[i].bundle) << "cached bytes drifted";
  }
  const serve::ServeStats stats = client.stats();
  EXPECT_EQ(stats.misses, after_first.misses) << "a cached job reran";
  EXPECT_EQ(stats.hits, after_first.hits + jobs.size());
  EXPECT_EQ(stats.jobs, 2 * jobs.size());
  EXPECT_EQ(stats.hits, jobs.size());
  EXPECT_EQ(stats.misses, jobs.size());
  EXPECT_EQ(stats.sessions, jobs.size());  // one warm session per model
}

TEST(ServeDaemon, ServedBundlesCarryTheExplanationDuties) {
  // A served bundle proves what a from_explanation bundle of the same check
  // proves: the same predicates and "visits" duties, and both replay.
  serve::Server server(base_options("duties"));
  const std::string spec = ctl::to_string(ctl::parse("EF max"));
  const serve::CheckResult served = server.execute(req("counter", spec));
  ASSERT_TRUE(served.ok) << served.error;

  auto system = models::bundled("counter");
  core::Checker checker(*system);
  core::Explainer explainer(checker);
  const std::string direct =
      evidence::from_explanation(*system, "counter", spec,
                                 explainer.explain(spec))
          .to_json();

  // The writer emits "predicates" and "duties" just before "certificates".
  const auto duties = [](const std::string& bundle) {
    const std::size_t from = bundle.find("\"predicates\":");
    const std::size_t to = bundle.find("\"certificates\":");
    EXPECT_LT(from, to);
    return bundle.substr(from, to - from);
  };
  EXPECT_NE(duties(direct).find("\"visits\""), std::string::npos);
  EXPECT_EQ(duties(served.bundle), duties(direct));

  const std::string dir = fresh_dir("duty_bundles");
  write_file(dir + "/served.json", served.bundle);
  write_file(dir + "/direct.json", direct);
  std::string output;
  EXPECT_EQ(test::run_verify(dir, dir + "/served.json " + dir + "/direct.json",
                             &output),
            0)
      << output;
}

TEST(ServeDaemon, EquivalentSpellingsShareOneCacheEntry) {
  const serve::ServerOptions opt = base_options("canon");
  LiveServer live(opt);
  serve::Client client;
  client.connect(opt.socket_path);

  const serve::CheckResult fresh = client.check(req("counter", "AG EF zero"));
  ASSERT_TRUE(fresh.ok);
  EXPECT_FALSE(fresh.cached);
  // Different spelling, same AST: same key, and the cached entry
  // validates against the canonical text rather than the raw request.
  const serve::CheckResult respelled =
      client.check(req("counter", "AG  EF  ( zero )"));
  ASSERT_TRUE(respelled.ok);
  EXPECT_TRUE(respelled.cached);
  EXPECT_EQ(respelled.cache_key, fresh.cache_key);
  EXPECT_EQ(respelled.verdict, fresh.verdict);
  EXPECT_EQ(client.stats().poisoned, 0u);
}

TEST(ServeDaemon, BudgetExhaustionIsTypedAndTheDaemonSurvives) {
  const serve::ServerOptions opt = base_options("budget");
  LiveServer live(opt);
  serve::Client client;
  client.connect(opt.socket_path);

  serve::CheckRequest starved = req("philosophers", "AG (hungry0 -> AF eat0)");
  starved.options.node_limit = 8;  // far below what the fixpoints need
  const serve::CheckResult r = client.check(starved);
  ASSERT_TRUE(r.ok) << "exhaustion must be a typed response, not an error";
  EXPECT_EQ(r.verdict, "unknown");
  EXPECT_FALSE(r.exhausted.empty());
  EXPECT_FALSE(r.cached);

  // Unknowns are never cached, and the session survives the killed job:
  // the same model answers the next, unconstrained query correctly.
  const serve::CheckResult retry =
      client.check(req("philosophers", "AG !(eat0 & eat1)"));
  ASSERT_TRUE(retry.ok);
  EXPECT_EQ(retry.verdict, "true");
  EXPECT_FALSE(retry.cached);

  const serve::ServeStats stats = client.stats();
  EXPECT_GE(stats.unknown_verdicts, 1u);
  EXPECT_TRUE(live.server.running());
}

TEST(ServeDaemon, AdmissionControlRejectsWithTypedOverload) {
  serve::ServerOptions opt = base_options("overload");
  opt.max_queue = 0;  // every job is one too many
  LiveServer live(opt);
  serve::Client client;
  client.connect(opt.socket_path);

  const serve::CheckResult r = client.check(req("counter", "AG EF zero"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.verdict, "unknown");
  EXPECT_EQ(r.exhausted, "overload");
  EXPECT_GE(client.stats().overload_rejects, 1u);
  EXPECT_TRUE(live.server.running());
}

TEST(ServeDaemon, InlineSmvSourcesAreServedAndCached) {
  const serve::ServerOptions opt = base_options("smv");
  LiveServer live(opt);
  serve::Client client;
  client.connect(opt.socket_path);

  serve::CheckRequest job = req("toggle", "AG EF x");
  job.smv =
      "MODULE main\n"
      "VAR x : boolean;\n"
      "ASSIGN\n"
      "  init(x) := FALSE;\n"
      "  next(x) := !x;\n";
  const serve::CheckResult fresh = client.check(job);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_EQ(fresh.verdict, "true");
  EXPECT_FALSE(fresh.cached);
  const serve::CheckResult again = client.check(job);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.bundle, fresh.bundle);
}

TEST(ServeDaemon, PoisonedDiskCacheIsRejectedAcrossInstances) {
  serve::ServerOptions opt = base_options("poison");
  std::string key;
  std::string honest_verdict;
  {
    serve::Server first(opt);
    first.start();
    const serve::CheckResult r = first.execute(req("counter", "AG EF zero"));
    ASSERT_TRUE(r.ok);
    key = r.cache_key;
    honest_verdict = r.verdict;
    first.stop();
  }
  // Forge the spilled bundle between daemon runs.
  const std::string bundle_path = opt.cache_dir + "/" + key + ".bundle.json";
  ASSERT_TRUE(std::filesystem::exists(bundle_path));
  std::string bundle = read_file(bundle_path);
  const auto pos = bundle.find("\"true\"");
  ASSERT_NE(pos, std::string::npos);
  bundle.replace(pos, 6, "\"false\"");
  write_file(bundle_path, bundle);

  // A new daemon instance over the same spill dir detects the forgery,
  // drops it, recomputes, and still answers honestly.
  opt.socket_path += ".2";
  serve::Server second(opt);
  second.start();
  const serve::CheckResult r = second.execute(req("counter", "AG EF zero"));
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.cached) << "forged entry was served";
  EXPECT_EQ(r.verdict, honest_verdict);
  EXPECT_GE(second.stats().poisoned, 1u);
  second.stop();
}

TEST(ServeDaemon, WarmSnapshotStartsAResidentSession) {
  const std::string dir = fresh_dir("warm");
  // Produce a check snapshot the way a real interrupted run does.
  std::string checkpoint;
  {
    auto sys = models::counter({.width = 5});
    core::CheckOptions co;
    co.checkpoint_dir = dir;
    co.model_name = "counter";
    core::Checker ck(*sys, co);
    core::Explainer ex(ck);
    guard::FaultInjector::instance().configure("deadline@eu:3");
    const core::CheckOutcome out = ex.check("AG EF zero");
    guard::FaultInjector::instance().clear();
    ASSERT_EQ(out.verdict, core::Verdict::kUnknown);
    ASSERT_FALSE(out.checkpoint_path.empty());
    checkpoint = out.checkpoint_path;
  }

  serve::ServerOptions opt = base_options("warmsrv");
  opt.warm_snapshots.push_back(checkpoint);
  LiveServer live(opt);
  EXPECT_EQ(live.server.stats().sessions, 1u);

  // The job lands on the warm session (no new session is built) and the
  // snapshot's partial reachable work is finished, not redone.
  const serve::CheckResult r =
      live.server.execute(req("counter", "AG EF zero"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.verdict, "true");
  EXPECT_EQ(live.server.stats().sessions, 1u);
}

TEST(ServeDaemon, WarmModelRejectsBadReachabilityState) {
  for (const char* file :
       {"reachable-misses-init.sxsnap", "reach-frontier-misses-init.sxsnap",
        "reach-frontier-two-rings.sxsnap"}) {
    const std::string path =
        std::string(SYMCEX_GOLDEN_DIR) + "/corrupt/" + file;
    try {
      (void)serve::load_warm_model(path);
      FAIL() << file << ": load_warm_model accepted a corrupt file";
    } catch (const persist::SnapshotError& e) {
      EXPECT_EQ(e.check(), "meta") << file;
    }
  }
}

}  // namespace
}  // namespace symcex
