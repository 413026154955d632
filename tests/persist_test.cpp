// Crash-safe persistence tests (src/persist; DESIGN.md section 13):
// manager and check snapshots round-trip exactly, writes are atomic and
// byte-deterministic, the checked-in corrupted corpus is rejected with
// typed SnapshotErrors (never a crash -- this suite runs under the
// sanitizer CI job), the version-1 golden files stay loadable, and the
// injected I/O faults exercise both failure directions of the disk path.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "ctl/formula.hpp"
#include "guard/fault.hpp"
#include "guard/guard.hpp"
#include "json_mini.hpp"
#include "models/models.hpp"
#include "persist/persist.hpp"

namespace symcex {
namespace {

using bdd::Bdd;
using bdd::Manager;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "symcex_persist_" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Every test that arms the process-wide injector must disarm it, or the
/// leftover countdown fires in an unrelated test.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    guard::FaultInjector::instance().configure(spec);
  }
  ~FaultGuard() { guard::FaultInjector::instance().clear(); }
};

// ---------------------------------------------------------------------------
// Manager snapshots.

/// The demo functions symcex-snap writes into the golden file, rebuilt in
/// `m` (canonicity makes handle equality the function-equality check).
std::vector<Bdd> demo_roots(Manager& m) {
  const Bdd x0 = m.var(0), x1 = m.var(1), x2 = m.var(2), x3 = m.var(3);
  return {(x0 & x1) | (x2 & x3), x0 ^ x2, (x1 | x3) & !x0};
}

TEST(ManagerSnapshot, RoundTripPreservesFunctionsOrderAndGroups) {
  Manager src(4);
  src.group_vars({0, 1});
  const std::vector<Bdd> roots = demo_roots(src);
  (void)src.reorder();  // a non-identity order must survive the trip

  std::stringstream ss;
  src.save_snapshot(ss, roots, {"and-or", "xor", "mixed"});

  Manager dst(4);
  const Manager::LoadedSnapshot loaded = dst.load_snapshot(ss);
  ASSERT_EQ(loaded.roots.size(), 3u);
  ASSERT_EQ(loaded.names.size(), 3u);
  EXPECT_EQ(loaded.names[0], "and-or");
  EXPECT_EQ(dst.audit_check(), "");

  // The saved level map installed wholesale.
  EXPECT_EQ(dst.current_order(), src.current_order());

  // Same functions: rebuilding them in the destination manager must land
  // on the very handles the decoder produced.
  const std::vector<Bdd> rebuilt = demo_roots(dst);
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(loaded.roots[i], rebuilt[i]) << "root " << i;
  }

  // Pair-group metadata came along: sifting the loaded manager keeps the
  // (0,1) block adjacent.
  (void)dst.reorder();
  const auto d =
      static_cast<std::int64_t>(dst.level_of_var(0)) -
      static_cast<std::int64_t>(dst.level_of_var(1));
  EXPECT_TRUE(d == 1 || d == -1);
  EXPECT_EQ(dst.audit_check(), "");
}

TEST(ManagerSnapshot, SaveIsByteDeterministic) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    Manager m(4);
    m.group_vars({0, 1});
    std::stringstream ss;
    m.save_snapshot(ss, demo_roots(m), {"and-or", "xor", "mixed"});
    *out = ss.str();
  }
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(ManagerSnapshot, GoldenV1StaysLoadable) {
  // tests/golden/manager_v1.sxsnap is the compatibility contract: every
  // build that still writes format version 1 must load it bit-exactly.
  std::ifstream is(std::string(SYMCEX_GOLDEN_DIR) + "/manager_v1.sxsnap",
                   std::ios::binary);
  ASSERT_TRUE(is.good());
  Manager m(4);
  const Manager::LoadedSnapshot loaded = m.load_snapshot(is);
  ASSERT_EQ(loaded.roots.size(), 3u);
  EXPECT_EQ(loaded.names,
            (std::vector<std::string>{"and-or", "xor", "mixed"}));
  EXPECT_EQ(m.audit_check(), "");
  const std::vector<Bdd> rebuilt = demo_roots(m);
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(loaded.roots[i], rebuilt[i]) << "root " << i;
  }
}

TEST(ManagerSnapshot, LoadRequiresFreshManager) {
  Manager src(4);
  std::stringstream ss;
  src.save_snapshot(ss, demo_roots(src));
  Manager dirty(4);
  (void)(dirty.var(0) & dirty.var(1));  // interior nodes exist
  try {
    (void)dirty.load_snapshot(ss);
    FAIL() << "expected SnapshotError";
  } catch (const persist::SnapshotError& e) {
    EXPECT_EQ(e.check(), "order-map");
  }
}

TEST(ManagerSnapshot, VariableCountMismatchIsTyped) {
  Manager src(4);
  std::stringstream ss;
  src.save_snapshot(ss, demo_roots(src));
  Manager narrow(3);
  try {
    (void)narrow.load_snapshot(ss);
    FAIL() << "expected SnapshotError";
  } catch (const persist::SnapshotError& e) {
    EXPECT_EQ(e.check(), "meta");
  }
}

// ---------------------------------------------------------------------------
// Check snapshots.

TEST(CheckSnapshot, InterruptedCheckWritesResumableCheckpoint) {
  const std::string dir = fresh_dir("roundtrip");

  // Baseline: the uninterrupted verdict.
  core::Verdict baseline;
  {
    auto ts = models::counter({.width = 4});
    core::Checker ck(*ts);
    baseline = ck.check("AG EF zero").verdict;
  }
  EXPECT_EQ(baseline, core::Verdict::kTrue);

  // Interrupt the EU fixpoint mid-flight with an injected deadline.
  std::string path;
  {
    auto ts = models::counter({.width = 4});
    core::CheckOptions opt;
    opt.checkpoint_dir = dir;
    opt.model_name = "counter";
    core::Checker ck(*ts, opt);
    FaultGuard fault("deadline@eu:3");
    const core::CheckOutcome out = ck.check("AG EF zero");
    EXPECT_EQ(out.verdict, core::Verdict::kUnknown);
    ASSERT_FALSE(out.checkpoint_path.empty());
    path = out.checkpoint_path;
  }

  // The file is a valid snapshot naming the interrupted configuration...
  const persist::CheckSnapshot snap = persist::load_check_snapshot(path);
  EXPECT_EQ(snap.model_name, "counter");
  EXPECT_EQ(snap.formula, "AG EF zero");
  ASSERT_NE(snap.system, nullptr);
  EXPECT_EQ(snap.system->manager().audit_check(), "");
  EXPECT_FALSE(snap.frontiers.empty());

  // ...and resuming it completes to the baseline verdict.
  core::ResumedCheck resumed = core::resume_check(path);
  EXPECT_EQ(resumed.model_name, "counter");
  const core::CheckOutcome done = resumed.checker->check(resumed.spec);
  EXPECT_EQ(done.verdict, baseline);
  EXPECT_EQ(resumed.system->manager().audit_check(), "");
}

TEST(CheckSnapshot, CompletedCheckDiscardsItsMarginCheckpoint) {
  const std::string dir = fresh_dir("discard");
  auto ts = models::counter({.width = 4});
  core::CheckOptions opt;
  opt.checkpoint_dir = dir;
  opt.model_name = "counter";
  core::Checker ck(*ts, opt);

  const std::string would_be_stale =
      dir + "/" +
      persist::checkpoint_basename("counter", "AG EF zero", ts->fingerprint());
  std::remove(would_be_stale.c_str());  // TempDir persists across runs

  // A completed verdict must not leave a stale resume point behind.
  const core::CheckOutcome out = ck.check("AG EF zero");
  EXPECT_EQ(out.verdict, core::Verdict::kTrue);
  EXPECT_TRUE(out.checkpoint_path.empty());
  const std::string would_be =
      dir + "/" +
      persist::checkpoint_basename("counter", "AG EF zero", ts->fingerprint());
  std::ifstream probe(would_be, std::ios::binary);
  EXPECT_FALSE(probe.good()) << would_be << " should not exist";
}

/// A deadline budget whose checkpoint margin covers the whole deadline,
/// so the margin hook fires at the first cooperative checkpoint.
void install_margin_deadline(Manager& m) {
  guard::ResourceBudget budget;
  budget.deadline_ms = 600000;
  budget.checkpoint_margin_ms = 600000;
  m.install_budget(budget);
}

TEST(CheckSnapshot, MarginCheckpointFiresThenCompletedRunDeletesIt) {
  const std::string dir = fresh_dir("margin_done");
  auto ts = models::counter({.width = 4});
  install_margin_deadline(ts->manager());
  core::CheckOptions opt;
  opt.checkpoint_dir = dir;
  opt.model_name = "counter";
  core::Checker ck(*ts, opt);
  auto& injector = guard::FaultInjector::instance();
  // Arm a fault that never fires so the persist-write probes count.
  FaultGuard counting("io-fail@persist-read:1000000");
  const std::size_t writes = injector.probes(guard::FaultKind::kIoShortWrite);
  const core::CheckOutcome out = ck.check("AG EF zero");
  EXPECT_EQ(out.verdict, core::Verdict::kTrue);
  EXPECT_TRUE(out.checkpoint_path.empty());
  EXPECT_GT(injector.probes(guard::FaultKind::kIoShortWrite), writes)
      << "the margin hook never wrote";
  const std::string path =
      dir + "/" +
      persist::checkpoint_basename("counter", "AG EF zero", ts->fingerprint());
  EXPECT_FALSE(std::ifstream(path, std::ios::binary).good())
      << path << " should have been deleted";
}

TEST(CheckSnapshot, MarginCheckpointIsTheFallbackAndResumes) {
  const std::string dir = fresh_dir("margin_fallback");
  auto& injector = guard::FaultInjector::instance();
  // How many persist-write probes one check snapshot takes.
  std::uint64_t writes_per_save = 0;
  {
    auto ts = models::counter({.width = 4});
    persist::CheckSnapshotInput input;
    input.system = ts.get();
    input.spec = ctl::parse("AG EF zero");
    FaultGuard counting("io-fail@persist-read:1000000");
    const std::size_t before =
        injector.probes(guard::FaultKind::kIoShortWrite);
    persist::save_check_snapshot(dir + "/calibrate.sxsnap", input);
    writes_per_save =
        injector.probes(guard::FaultKind::kIoShortWrite) - before;
  }
  ASSERT_GT(writes_per_save, 0u);

  // The margin snapshot (live frontiers) is written first; the abort-time
  // write then fails, so the outcome falls back to the margin snapshot.
  std::string path;
  {
    auto ts = models::counter({.width = 4});
    install_margin_deadline(ts->manager());
    core::CheckOptions opt;
    opt.checkpoint_dir = dir;
    opt.model_name = "counter";
    core::Checker ck(*ts, opt);
    FaultGuard fault("deadline@eu:3,io-short-write@persist-write:" +
                     std::to_string(writes_per_save + 1));
    const core::CheckOutcome out = ck.check("AG EF zero");
    ASSERT_EQ(out.verdict, core::Verdict::kUnknown);
    ASSERT_FALSE(out.checkpoint_path.empty());
    EXPECT_EQ(injector.armed_entries(), 0u) << "abort-time write never failed";
    path = out.checkpoint_path;
  }
  const persist::CheckSnapshot snap = persist::load_check_snapshot(path);
  EXPECT_FALSE(snap.frontiers.empty()) << "no live frontier in the margin";

  core::ResumedCheck resumed = core::resume_check(path);
  EXPECT_EQ(resumed.checker->check(resumed.spec).verdict,
            core::Verdict::kTrue);
  EXPECT_EQ(resumed.system->manager().audit_check(), "");
}

TEST(CheckSnapshot, GoldenV1StaysLoadable) {
  const persist::CheckSnapshot snap = persist::load_check_snapshot(
      std::string(SYMCEX_GOLDEN_DIR) + "/check_v1.sxsnap");
  EXPECT_EQ(snap.model_name, "demo");
  EXPECT_EQ(snap.formula, "AG (@spec1 -> AF @spec0)");
  ASSERT_NE(snap.spec, nullptr);
  EXPECT_EQ(ctl::to_string(snap.spec), snap.formula);
  ASSERT_NE(snap.system, nullptr);
  EXPECT_EQ(snap.system->var_names().size(), 6u);
  EXPECT_FALSE(snap.reachable.is_null());
  EXPECT_EQ(snap.frontiers.size(), 2u);
  EXPECT_EQ(snap.system->manager().audit_check(), "");
}

TEST(CheckSnapshot, CheckpointBasenameIsSanitizedAndStable) {
  const std::string a = persist::checkpoint_basename("a/b c", "AG p");
  EXPECT_EQ(a, persist::checkpoint_basename("a/b c", "AG p"));
  EXPECT_EQ(a.find('/'), std::string::npos);
  EXPECT_EQ(a.find(' '), std::string::npos);
  EXPECT_NE(a, persist::checkpoint_basename("a/b c", "AG q"));
  EXPECT_EQ(a.substr(a.size() - 7), ".sxsnap");
}

// Regression: sanitization is lossy, so two *different* models sharing a
// sanitized name and formula used to clobber each other's checkpoint in
// one SYMCEX_CHECKPOINT_DIR.  The fingerprint-taking overload keeps their
// basenames distinct while staying deterministic per model.
TEST(CheckSnapshot, CheckpointBasenameSeparatesCollidingModels) {
  // "m/1" and "m:1" sanitize identically -- the 2-arg basenames collide.
  EXPECT_EQ(persist::checkpoint_basename("m/1", "AG p"),
            persist::checkpoint_basename("m:1", "AG p"));

  // Two structurally different systems under those names stay apart.
  auto small = models::counter({.width = 3});
  auto large = models::counter({.width = 4});
  const std::string a =
      persist::checkpoint_basename("m/1", "AG p", small->fingerprint());
  const std::string b =
      persist::checkpoint_basename("m:1", "AG p", large->fingerprint());
  EXPECT_NE(a, b);
  // Deterministic: same inputs, same name.
  EXPECT_EQ(a,
            persist::checkpoint_basename("m/1", "AG p", small->fingerprint()));
  // Still distinguishes formulas under one model.
  EXPECT_NE(a,
            persist::checkpoint_basename("m/1", "AG q", small->fingerprint()));
  EXPECT_EQ(a.substr(a.size() - 7), ".sxsnap");
}

// ---------------------------------------------------------------------------
// The corrupted corpus: every checked-in file must be rejected with its
// intended typed check name -- exercised through describe (container
// validation) and the full loader.  None may crash.

struct CorpusEntry {
  const char* file;
  const char* container_check;  // expected from describe_snapshot; nullptr
                                // when container validation passes
  const char* load_check;       // expected from load_check_snapshot
};

constexpr CorpusEntry kCorpus[] = {
    {"bad-magic.sxsnap", "magic", "magic"},
    {"bad-version.sxsnap", "version", "version"},
    {"bitflip.sxsnap", "checksum", "checksum"},
    {"dup-section.sxsnap", "duplicate-section", "duplicate-section"},
    {"empty.sxsnap", "truncated", "truncated"},
    // A forward/self node reference is semantically invalid but the
    // container (checksums included) is intact: only the full decode
    // catches it.
    {"forward-ref.sxsnap", nullptr, "node-ref"},
    {"oversized-length.sxsnap", "oversized-length", "oversized-length"},
    {"trailing-garbage.sxsnap", "truncated", "truncated"},
    // Cut mid-payload: the intact length field now exceeds the bytes
    // that remain, which the bounds check reports as oversized.
    {"truncated.sxsnap", "oversized-length", "oversized-length"},
    // Checksum-valid check snapshots of models::counter({.width = 4})
    // whose reachability state cannot belong to that system: the loader's
    // semantic checks reject them before a resume could install them.
    // reachable = !init:
    {"reachable-misses-init.sxsnap", nullptr, "meta"},
    // a "reachable" frontier with z = rings[0] = !init:
    {"reach-frontier-misses-init.sxsnap", nullptr, "meta"},
    // a "reachable" frontier with two rings:
    {"reach-frontier-two-rings.sxsnap", nullptr, "meta"},
};

/// The corpus files that pass container validation but describe a
/// reachability state the loader rejects.
constexpr const char* kSemanticCorpus[] = {
    "reachable-misses-init.sxsnap",
    "reach-frontier-misses-init.sxsnap",
    "reach-frontier-two-rings.sxsnap",
};

TEST(CorruptCorpus, EveryFileRejectedWithItsTypedError) {
  for (const CorpusEntry& entry : kCorpus) {
    const std::string path =
        std::string(SYMCEX_GOLDEN_DIR) + "/corrupt/" + entry.file;
    {
      std::ifstream probe(path, std::ios::binary);
      ASSERT_TRUE(probe.good()) << "missing corpus file " << path;
    }
    if (entry.container_check != nullptr) {
      try {
        (void)persist::describe_snapshot(path);
        FAIL() << entry.file << ": describe accepted a corrupt file";
      } catch (const persist::SnapshotError& e) {
        EXPECT_EQ(e.check(), entry.container_check) << entry.file;
      }
    } else {
      EXPECT_NO_THROW((void)persist::describe_snapshot(path)) << entry.file;
    }
    try {
      (void)persist::load_check_snapshot(path);
      FAIL() << entry.file << ": loader accepted a corrupt file";
    } catch (const persist::SnapshotError& e) {
      EXPECT_EQ(e.check(), entry.load_check) << entry.file;
    }
  }
}

// The resume path must surface the loader's rejection as a typed error,
// with no handle outliving its manager on the way out.
TEST(CorruptCorpus, ResumeCheckRejectsBadReachabilityState) {
  for (const char* file : kSemanticCorpus) {
    const std::string path =
        std::string(SYMCEX_GOLDEN_DIR) + "/corrupt/" + file;
    try {
      (void)core::resume_check(path);
      FAIL() << file << ": resume_check accepted a corrupt file";
    } catch (const persist::SnapshotError& e) {
      EXPECT_EQ(e.check(), "meta") << file;
    }
  }
}

TEST(CorruptCorpus, MissingFileIsTypedIo) {
  try {
    (void)persist::load_check_snapshot("/nonexistent/no.sxsnap");
    FAIL() << "expected SnapshotError";
  } catch (const persist::SnapshotError& e) {
    EXPECT_EQ(e.check(), "io");
  }
}

// The strict JSON parser shares the corpus discipline: every checked-in
// malformed document must raise the parser's typed error, never crash.
TEST(CorruptCorpus, JsonCorpusRejectedByStrictParser) {
  const char* kJsonCorpus[] = {
      "truncated.json",        "bad-escape.json",  "trailing-garbage.json",
      "bare-nan.json",         "deep-nesting.json", "unterminated-string.json",
      "leading-zero.json",     "control-char.json",
  };
  for (const char* file : kJsonCorpus) {
    const std::string path =
        std::string(SYMCEX_GOLDEN_DIR) + "/corrupt/json/" + file;
    const std::string text = read_file(path);
    ASSERT_FALSE(text.empty() && std::string(file) != "truncated.json")
        << "missing corpus file " << path;
    EXPECT_THROW((void)jsonmini::parse(text), std::runtime_error) << file;
  }
}

// ---------------------------------------------------------------------------
// Injected I/O faults on the disk path itself.

TEST(PersistFaults, ShortWriteIsTypedAndAtomic) {
  const std::string dir = fresh_dir("shortwrite");
  auto ts = models::counter({.width = 3});
  persist::CheckSnapshotInput input;
  input.system = ts.get();
  input.model_name = "counter";
  input.spec = ctl::parse("AG EF zero");

  const std::string path = dir + "/ck.sxsnap";
  // TempDir persists across runs of this binary: start clean.
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  {
    FaultGuard fault("io-short-write@persist-write:1");
    try {
      persist::save_check_snapshot(path, input);
      FAIL() << "expected SnapshotError";
    } catch (const persist::SnapshotError& e) {
      EXPECT_EQ(e.check(), "io");
    }
  }
  // Atomicity: neither the destination nor the temp file survives.
  EXPECT_FALSE(std::ifstream(path, std::ios::binary).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp", std::ios::binary).good());

  // The same call without the fault succeeds and round-trips.
  persist::save_check_snapshot(path, input);
  const persist::CheckSnapshot snap = persist::load_check_snapshot(path);
  EXPECT_EQ(snap.model_name, "counter");
}

TEST(PersistFaults, ReadFaultIsTyped) {
  const std::string dir = fresh_dir("readfault");
  auto ts = models::counter({.width = 3});
  persist::CheckSnapshotInput input;
  input.system = ts.get();
  input.model_name = "counter";
  input.spec = ctl::parse("EF max");
  const std::string path = dir + "/ck.sxsnap";
  persist::save_check_snapshot(path, input);

  FaultGuard fault("io-fail@persist-read:1");
  try {
    (void)persist::load_check_snapshot(path);
    FAIL() << "expected SnapshotError";
  } catch (const persist::SnapshotError& e) {
    EXPECT_EQ(e.check(), "io");
  }
  // The fault disarmed after firing: the retry succeeds.
  EXPECT_EQ(persist::load_check_snapshot(path).model_name, "counter");
}

TEST(PersistFaults, CheckerSwallowsCheckpointWriteFailure) {
  // A checkpoint write failure must never mask the verdict-bearing
  // exhaustion: the outcome is still kUnknown, just without a resume
  // point.
  const std::string dir = fresh_dir("swallow");
  auto ts = models::counter({.width = 4});
  core::CheckOptions opt;
  opt.checkpoint_dir = dir;
  core::Checker ck(*ts, opt);
  FaultGuard fault("deadline@eu:3,io-short-write@persist-write:1");
  const core::CheckOutcome out = ck.check("AG EF zero");
  EXPECT_EQ(out.verdict, core::Verdict::kUnknown);
  EXPECT_TRUE(out.checkpoint_path.empty());
  EXPECT_EQ(ts->manager().audit_check(), "");
}

// ---------------------------------------------------------------------------
// describe_snapshot is the human-facing validator.

TEST(Describe, SummarizesGoldenFiles) {
  const std::string m = persist::describe_snapshot(
      std::string(SYMCEX_GOLDEN_DIR) + "/manager_v1.sxsnap");
  EXPECT_NE(m.find("snapshot v1"), std::string::npos);
  EXPECT_NE(m.find("NODE"), std::string::npos);
  const std::string c = persist::describe_snapshot(
      std::string(SYMCEX_GOLDEN_DIR) + "/check_v1.sxsnap");
  EXPECT_NE(c.find("demo"), std::string::npos);
  EXPECT_NE(c.find("FRNT"), std::string::npos);
}

}  // namespace
}  // namespace symcex
