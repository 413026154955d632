#include "pipeline.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "evidence/evidence.hpp"
#include "persist/persist.hpp"
#include "smv/smv.hpp"

extern char** environ;

namespace symcex::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// Thrown inside run_job to end it with a classified outcome.
struct JobFailure {
  Outcome outcome;
  std::string detail;
};

void read_manager(const bdd::Manager& mgr, Counters& c, double& gc_pause_ms) {
  const bdd::ManagerStats& s = mgr.stats();
  c.apply_calls = 0;
  for (const std::uint64_t n : s.apply_calls) c.apply_calls += n;
  c.and_exists_calls = s.apply(bdd::ApplyOp::kAndExists);
  c.cache_hits = s.cache_hits;
  c.cache_lookups = s.cache_lookups;
  c.unique_hits = s.unique_hits;
  c.unique_misses = s.unique_misses;
  c.peak_nodes = s.peak_nodes;
  c.gc_runs = s.gc_runs;
  gc_pause_ms = static_cast<double>(s.gc_pause_ns) / 1e6;
}

std::string tail_of(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

}  // namespace

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kWrongVerdict:
      return "wrong-verdict";
    case Outcome::kUnknown:
      return "unknown";
    case Outcome::kUncoverable:
      return "evidence-uncoverable";
    case Outcome::kCertificateFailed:
      return "certificate-failed";
    case Outcome::kVerifyRejected:
      return "verify-rejected";
    case Outcome::kException:
      return "exception";
    case Outcome::kCount:
      break;
  }
  return "?";
}

int spawn_and_wait(const std::string& program,
                   const std::vector<std::string>& args,
                   const std::string& log) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<std::string> owned{program};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, program.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

JobResult run_job(const Job& job, bool evidence, const Paths& paths,
                  Tracer& tracer, std::uint64_t job_id) {
  JobResult r;
  const bool traced = tracer.enabled();
  const auto t0 = Clock::now();
  try {
    Tracer::Span job_span(tracer, "job", job_id);
    std::optional<smv::SmvModel> model;
    {
      Tracer::Span s(tracer, "smv.compile", job_id);
      model.emplace(smv::compile(job.smv_text()));
    }
    ts::TransitionSystem& system = model->system();
    const std::size_t index = job.spec_index < 0 ? 0 : job.spec_index;
    if (index >= model->specs().size()) {
      throw JobFailure{Outcome::kException, "model has no SPEC " +
                                                std::to_string(index)};
    }
    const ctl::Formula::Ptr& spec = model->specs()[index];
    {
      Tracer::Span s(tracer, "ts.reachable", job_id);
      (void)system.reachable();
    }

    core::Checker checker(system, {.model_name = job.model});
    core::CheckOutcome outcome;
    {
      Tracer::Span s(tracer, "core.check", job_id);
      outcome = checker.check(spec);
    }
    r.verdict = core::verdict_name(outcome.verdict);
    if (!outcome.known()) throw JobFailure{Outcome::kUnknown, outcome.reason};
    const bool holds = outcome.verdict == core::Verdict::kTrue;
    if (holds != job.expected) {
      throw JobFailure{Outcome::kWrongVerdict,
                       "expected " + std::string(job.expected ? "true"
                                                              : "false")};
    }

    core::Explainer explainer(checker);
    core::Explanation explanation;
    {
      Tracer::Span s(tracer, "core.explain", job_id);
      explanation = explainer.explain(spec);
    }
    if (explanation.holds != holds) {
      throw JobFailure{Outcome::kWrongVerdict, "explain disagrees with check"};
    }
    if (explanation.trace) {
      Tracer::Span s(tracer, "certify", job_id);
      const certify::TraceCertifier certifier(system);
      const certify::Certificate cert =
          certifier.certify_path(*explanation.trace);
      r.counters.certify_obligations = cert.obligations.size();
      if (!cert.ok()) {
        throw JobFailure{Outcome::kCertificateFailed,
                         cert.first_failure()->name};
      }
    }

    if (traced) {
      Counters& c = r.counters;
      c.state_vars = system.num_state_vars();
      c.conjuncts = system.trans_parts().size();
      c.clusters = system.trans_clusters().size();
      const core::CheckStats& cs = checker.stats();
      c.eu_iterations = cs.eu_iterations;
      c.eg_iterations = cs.eg_iterations;
      c.preimage_calls = cs.preimage_calls;
      c.faireg_reuse_hits = cs.faireg_reuse_hits;
      c.witness_restarts = explainer.witnesses().stats().restarts;
      if (explanation.trace) c.trace_len = explanation.trace->length();
    }

    if (evidence) {
      const std::string spec_text =
          job.spec_index < 0 ? job.spec : model->spec_texts()[index];
      std::string json;
      {
        Tracer::Span s(tracer, "evidence.bundle", job_id);
        try {
          json = evidence::from_explanation(system, job.model, spec_text,
                                            explanation)
                     .to_json();
        } catch (const std::length_error& e) {
          throw JobFailure{Outcome::kUncoverable, e.what()};
        }
      }
      const std::string file =
          paths.run + "/" +
          evidence::sanitize_basename(job.model + " " + spec_text) + ".json";
      {
        Tracer::Span s(tracer, "evidence.write", job_id);
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << json;
        out.close();
        if (!out) throw JobFailure{Outcome::kException, "cannot write " + file};
      }
      if (traced) {
        r.counters.bundle_bytes = json.size();
        r.counters.bundle_fnv = persist::fnv1a64(json.data(), json.size());
      }
      {
        Tracer::Span s(tracer, "verify", job_id);
        const std::string log = paths.run + "/verify.log";
        const int status = spawn_and_wait(paths.verify, {file}, log);
        if (status != 0) {
          throw JobFailure{Outcome::kVerifyRejected,
                           "exit " + std::to_string(status) + ": " +
                               tail_of(log)};
        }
      }
    }
    // Read last, so the counts cover every stage that ran.
    if (traced) read_manager(system.manager(), r.counters, r.gc_pause_ms);
  } catch (const JobFailure& f) {
    r.outcome = f.outcome;
    r.detail = f.detail;
  } catch (const std::exception& e) {
    r.outcome = Outcome::kException;
    r.detail = e.what();
  }
  r.job_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return r;
}

}  // namespace symcex::bench
