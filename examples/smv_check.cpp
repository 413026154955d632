// A command-line SMV model checker, the way the SMV system itself was used:
//
//   smv_check [options] model.smv     check every SPEC in the file
//   smv_check [options]               run on the built-in demo model
//
// options:
//   --lint          run the static linter (src/analyze) and exit: findings
//                   print as file:line diagnostics, exit 1 when any exist
//   --shorten       post-process traces with the Section 9 loop cutter
//   --simulate N    print a random N-step execution before checking
//   --seed S        RNG seed for --simulate (default 1)
//   --dot FILE      write the reachable state graph (Graphviz) to FILE
//   --evidence DIR  write an evidence bundle (JSON + annotated DOT + HTML)
//                   per spec into DIR; the SYMCEX_EVIDENCE_DIR environment
//                   variable does the same when the flag is absent.  Each
//                   bundle re-verifies standalone with tools/symcex-verify.
//                   Bundles are only built when a directory is configured;
//                   a model whose relation exceeds the cover cap gets its
//                   verdicts but no bundle ("uncoverable").
//   --resume FILE   continue an interrupted check from a crash-safe
//                   checkpoint (*.sxsnap) instead of compiling a model:
//                   the snapshot's transition system, options, completed
//                   sets, and fixpoint frontiers are restored, and the
//                   resumed verdict / trace / evidence bundle are
//                   byte-identical to an uninterrupted run's.
//
// With SYMCEX_CHECKPOINT_DIR set, a spec whose budget runs out writes a
// checkpoint there (also periodically, shortly before a SYMCEX_DEADLINE_MS
// deadline) and the path is printed; exhaustion exits 3.
//
// For each SPEC the verdict is printed, and when a counterexample or
// witness exists the trace is rendered with SMV-level variable values
// (enums and ranges decoded), printing only the variables that change,
// with the cycle marked "-- loop starts here --" -- the classic SMV trace
// format.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "analyze/analyze.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "core/trace_util.hpp"
#include "evidence/evidence.hpp"
#include "guard/config.hpp"
#include "guard/guard.hpp"
#include "persist/persist.hpp"
#include "serve/serve.hpp"
#include "smv/smv.hpp"
#include "version.hpp"

namespace {

constexpr const char* kDemo = R"(-- Built-in demo: a tiny elevator controller.
MODULE main
VAR
  floor   : 0..3;
  moving  : boolean;
  dir     : {up, down};
  request : 0..3;
ASSIGN
  init(floor)  := 0;
  init(moving) := FALSE;
  next(floor) := case
      moving & dir = up   & floor < 3 : floor + 1;
      moving & dir = down & floor > 0 : floor - 1;
      TRUE                            : floor;
    esac;
  next(moving) := case
      floor = request : FALSE;
      TRUE            : {TRUE, FALSE};
    esac;
  next(dir) := case
      floor < request : up;
      floor > request : down;
      TRUE            : dir;
    esac;
  -- the request button is free to change only when the cab is idle
  next(request) := case
      moving : request;
      TRUE   : {0, 1, 2, 3};
    esac;
DEFINE
  arrived := floor = request;
FAIRNESS moving | arrived
SPEC AG (request = 3 -> AF floor = 3)
SPEC AG (floor = 0 & request = 3 -> !arrived)
SPEC AG EF floor = 0
)";

/// Render a trace with raw boolean state variables (resume mode has no
/// SMV-level model to decode enums with).
void print_raw_trace(const symcex::ts::TransitionSystem& system,
                     const symcex::core::Trace& trace) {
  using symcex::bdd::Bdd;
  Bdd prev;
  std::size_t step = 0;
  const auto print_states = [&](const std::vector<Bdd>& states) {
    for (const Bdd& state : states) {
      std::cout << "  state " << step++ << ": "
                << system.state_string(state, prev) << "\n";
      prev = state;
    }
  };
  print_states(trace.prefix);
  if (!trace.cycle.empty()) {
    std::cout << "  -- loop starts here --\n";
    print_states(trace.cycle);
  }
}

/// Is an evidence directory configured (--evidence or SYMCEX_EVIDENCE_DIR)?
/// Bundles are built only then: building one expands every transition
/// conjunct into a DNF cover, which a large relation cannot afford.
bool bundles_configured() { return !symcex::evidence::default_dir().empty(); }

/// Continue a checkpointed run: restore, re-check the stored spec (the
/// staged frontiers make the fixpoints continue from their saved
/// iterates), print, and emit evidence like a normal run.
int run_resume(const std::string& snapshot_path, bool shorten_traces) {
  using namespace symcex;
  core::ResumedCheck resumed = core::resume_check(snapshot_path);
  auto& system = *resumed.system;
  std::cout << "resumed from " << snapshot_path << ": model '"
            << resumed.model_name << "', "
            << resumed.prior_spent.to_string() << " already spent\n\n";

  core::Explainer explainer(*resumed.checker);
  const core::CheckOutcome outcome = explainer.check(resumed.spec);
  std::cout << "-- specification " << resumed.formula << " is "
            << core::verdict_name(outcome.verdict) << "\n";
  if (outcome.verdict == core::Verdict::kUnknown) {
    std::cerr << "result unknown: " << outcome.reason << "\n";
    if (!outcome.checkpoint_path.empty()) {
      std::cerr << "  checkpoint updated: " << outcome.checkpoint_path << "\n";
    }
    return 3;
  }
  if (outcome.trace.has_value()) {
    core::Trace trace = *outcome.trace;
    if (shorten_traces) trace = core::shorten(trace, system, {});
    std::cout << "-- " << outcome.reason << ":\n";
    print_raw_trace(system, trace);
  }
  if (bundles_configured()) {
    try {
      const evidence::BundleBuilder bundle = evidence::from_outcome(
          system, resumed.model_name, resumed.formula, outcome);
      if (evidence::emit_if_configured(
              bundle, "",
              evidence::sanitize_basename("resumed_" + resumed.formula))) {
        std::cout << "-- evidence bundle written\n";
      }
    } catch (const std::length_error& e) {
      std::cout << "-- evidence bundle uncoverable: " << e.what() << "\n";
    }
  }
  return outcome.verdict == core::Verdict::kTrue ? 0 : 1;
}

/// Build spec `i`'s evidence bundle, annotate it with SMV-level domains and
/// COI provenance, and write it.  Throws std::length_error when a conjunct
/// or predicate exceeds the cover cap (evidence::cover_size).
void emit_bundle(const symcex::smv::SmvModel& model,
                 const symcex::core::Checker& checker, std::size_t i,
                 const symcex::core::Explanation& result) {
  using namespace symcex;
  evidence::BundleBuilder bundle = evidence::from_explanation(
      model.system(), checker.options().model_name, model.spec_texts()[i],
      result);
  // SMV-level decoding hints: the bundle's trace is raw bits, so
  // record each non-boolean variable's domain for consumers.
  for (const auto& var : model.variables()) {
    if (var.is_boolean) continue;
    std::string domain;
    for (const auto& value : var.domain) {
      if (!domain.empty()) domain += ", ";
      domain += value.to_string();
    }
    bundle.add_annotation("domain:" + var.name, domain);
  }
  // COI provenance: when the check ran under a cone-of-influence
  // reduction (SYMCEX_COI=1), record which variables were dropped and
  // the dependency-graph fingerprint the cone was derived from.  The
  // exported trace itself is always the re-inflated full-model trace.
  if (const analyze::Reduction* reduction = checker.reduction()) {
    std::string dropped;
    for (const std::string& name : reduction->dropped_names()) {
      if (!dropped.empty()) dropped += ", ";
      dropped += name;
    }
    bundle.add_annotation("coi:dropped_vars", dropped);
    std::ostringstream fp;
    fp << std::hex << reduction->fingerprint();
    bundle.add_annotation("coi:fingerprint", fp.str());
  }
  if (evidence::emit_if_configured(
          bundle, "",
          evidence::sanitize_basename("spec" + std::to_string(i) + "_" +
                                      model.spec_texts()[i]))) {
    std::cout << "-- evidence bundle written for spec " << i << "\n\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace symcex;
  // --evidence overrides SYMCEX_EVIDENCE_DIR; the configuration is
  // installed once the arguments are read, before any engine use.
  config::Config cfg = config::from_env();

  bool lint_only = false;
  bool hash_only = false;
  bool shorten_traces = false;
  std::size_t simulate_steps = 0;
  std::uint64_t seed = 1;
  std::string dot_path;
  std::string resume_path;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::cout << version::build_info("smv_check") << "\n";
      return 0;
    } else if (arg == "--lint") {
      lint_only = true;
    } else if (arg == "--hash") {
      hash_only = true;
    } else if (arg == "--shorten") {
      shorten_traces = true;
    } else if (arg == "--simulate" && i + 1 < argc) {
      simulate_steps = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (arg == "--evidence" && i + 1 < argc) {
      cfg.evidence_dir = argv[++i];
    } else if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "usage: smv_check [--lint] [--hash] [--shorten] "
                   "[--simulate N] [--seed S] [--dot FILE] [--evidence DIR] "
                   "[--resume FILE.sxsnap] [--version] "
                   "[model.smv]\n";
      return 2;
    } else {
      path = arg;
    }
  }
  config::install(cfg);

  if (!resume_path.empty()) {
    try {
      return run_resume(resume_path, shorten_traces);
    } catch (const persist::SnapshotError& e) {
      std::cerr << "error: cannot resume (" << e.check() << "): " << e.what()
                << "\n";
      return 2;
    }
  }

  std::string source;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "error: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  } else {
    std::cout << "(no input file given; checking the built-in demo model)\n\n";
    source = kDemo;
  }

  if (lint_only) {
    const std::string name = path.empty() ? "<demo>" : path;
    const analyze::LintReport report = analyze::Linter{}.run(source);
    if (report.clean()) {
      std::cout << name << ": clean\n";
      return 0;
    }
    std::cout << report.to_string(name);
    return 1;
  }

  try {
    smv::SmvModel model = smv::compile(source);
    auto& system = model.system();

    if (hash_only) {
      // The serving layer's cache-key ingredients (DESIGN.md §15): the
      // structural checkpoint fingerprint, the semantic model
      // fingerprint, and per spec the canonical formula hash + the
      // verdict-cache key a daemon would use for this (model, spec).
      const std::string name = path.empty() ? "<demo>" : path;
      std::cout << name << "\n"
                << "  ts fingerprint:    "
                << serve::hex16(system.fingerprint()) << "\n";
      std::optional<serve::ModelFingerprint> fp;
      try {
        fp = serve::model_fingerprint(system);
        std::cout << "  model fingerprint: " << fp->hex() << "\n";
      } catch (const std::length_error&) {
        std::cout << "  model fingerprint: (uncacheable: cover cap "
                     "exceeded)\n";
      }
      for (std::size_t i = 0; i < model.specs().size(); ++i) {
        std::cout << "  SPEC " << model.spec_texts()[i] << "\n"
                  << "    formula hash: "
                  << serve::hex16(ctl::formula_hash(model.specs()[i]))
                  << "\n";
        if (fp) {
          std::cout << "    cache key:    "
                    << serve::cache_key(*fp, model.specs()[i]) << "\n";
        }
      }
      return 0;
    }

    std::cout << "model compiled: " << system.num_state_vars()
              << " boolean state variables, "
              << system.count_states(system.reachable())
              << " reachable states, " << system.fairness().size()
              << " fairness constraints\n\n";

    if (!dot_path.empty()) {
      std::ofstream dot(dot_path);
      try {
        system.dump_state_graph(dot, 4096);
        std::cout << "-- state graph written to " << dot_path << "\n\n";
      } catch (const std::length_error& e) {
        std::cout << "-- state graph skipped: " << e.what() << "\n\n";
      }
    }

    if (simulate_steps > 0) {
      const core::Trace walk =
          core::simulate(system, {.steps = simulate_steps, .seed = seed});
      std::cout << "-- random simulation (" << simulate_steps
                << " steps, seed " << seed << "):\n"
                << model.trace_string(walk.prefix, walk.cycle) << "\n";
    }

    const std::string model_name = path.empty() ? "demo" : path;
    core::Checker checker(system, {.model_name = model_name});
    core::Explainer explainer(checker);
    int failures = 0;
    int unknowns = 0;
    for (std::size_t i = 0; i < model.specs().size(); ++i) {
      // With SYMCEX_CHECKPOINT_DIR set, this spec's state is snapshotted
      // shortly before a deadline expires and on exhaustion.
      core::Explanation result;
      const core::CheckOutcome outcome = checker.run_checkpointed(
          model.specs()[i], [&](core::CheckOutcome& out) {
            result = explainer.explain(model.specs()[i]);
            out.verdict =
                result.holds ? core::Verdict::kTrue : core::Verdict::kFalse;
          });
      if (!outcome.known()) {
        ++unknowns;
        std::cout << "-- specification " << model.spec_texts()[i]
                  << " is unknown (out of "
                  << guard::resource_name(*outcome.exhausted) << " budget)\n";
        if (!outcome.checkpoint_path.empty()) {
          std::cout << "-- checkpoint written: " << outcome.checkpoint_path
                    << " (continue with --resume)\n";
        }
        std::cout << "\n";
        continue;
      }
      std::cout << "-- specification " << model.spec_texts()[i] << " is "
                << (result.holds ? "true" : "false") << "\n";
      if (!result.holds) ++failures;
      if (result.trace.has_value()) {
        core::Trace trace = *result.trace;
        if (shorten_traces) {
          trace = core::shorten(trace, system, result.obligations);
        }
        std::cout << "-- " << result.note << ":\n"
                  << model.trace_string(trace.prefix, trace.cycle);
      }
      std::cout << "\n";

      if (bundles_configured()) {
        try {
          emit_bundle(model, checker, i, result);
        } catch (const std::length_error& e) {
          std::cout << "-- evidence bundle for spec " << i
                    << " uncoverable: " << e.what() << "\n\n";
        }
      }
    }
    if (unknowns > 0) return 3;
    return failures == 0 ? 0 : 1;
  } catch (const smv::SmvError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const guard::ResourceExhausted& e) {
    // A SYMCEX_NODE_LIMIT / SYMCEX_DEADLINE_MS / ... budget ran out while
    // compiling or checking: report the unknown result instead of dying.
    std::cerr << "result unknown: out of " << guard::resource_name(e.resource())
              << " budget (" << e.what() << ")\n"
              << "  " << e.spent().to_string() << "\n"
              << "  rerun with a larger budget to decide the remaining specs\n";
    return 3;
  }
}
