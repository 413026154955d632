// E13 driver: one evidence-wide job, split into the stages an evidence
// bundle costs, in a fresh process.
//
//   e13_evidence philosophers|counter_bank N SYMCEX_VERIFY OUT_DIR
//
// Builds the job from the symcex-bench generators (philosophers-N with
// `AG (hungry0 -> AF eat0)`, or counter_bank-N with 4-bit banks and
// `AG (zero0 -> AF max0)`), runs compile -> reachable -> check -> explain,
// then times the bundle's stages and prints one JSON object:
//
//   builder_ms  evidence::BundleBuilder construction (the conjunct covers)
//   bundle_ms   evidence::from_explanation (builder, certificate, duties)
//   to_json_ms  BundleBuilder::to_json
//   verify_ms   the symcex-verify child process on the written bundle
//   job_rss_mb  this process's peak RSS after the bundle is written
//   verify_minflt  the child's minor page faults
//
// It uses only APIs the tree before the flat cover walk also has, so
// bench/e13_evidence.py builds the same file against either tree.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "core/checker.hpp"
#include "core/explain.hpp"
#include "evidence/evidence.hpp"
#include "families.hpp"
#include "smv/smv.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// This process's peak RSS (VmHWM).  getrusage's ru_maxrss would not do:
/// it keeps the high-water mark of the image that exec replaced.
double own_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Minor page faults of the waited-for children.  Their ru_maxrss is no
/// measure of their own memory for the same reason as above: the child
/// starts from this process's high-water mark.
long children_minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return ru.ru_minflt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace symcex;
  if (argc != 5) {
    std::cerr << "usage: e13_evidence philosophers|counter_bank N "
                 "SYMCEX_VERIFY OUT_DIR\n";
    return 2;
  }
  const std::string family = argv[1];
  const unsigned n = static_cast<unsigned>(std::stoul(argv[2]));
  std::string text;
  if (family == "philosophers") {
    text = bench::philosophers_smv(n) + "SPEC AG (hungry0 -> AF eat0)\n";
  } else if (family == "counter_bank") {
    text = bench::counter_bank_smv(n, 4, {0}) + "SPEC AG (zero0 -> AF max0)\n";
  } else {
    std::cerr << "unknown family " << family << "\n";
    return 2;
  }
  const std::string model_name = family + "-" + std::to_string(n);

  smv::SmvModel model = smv::compile(text);
  ts::TransitionSystem& system = model.system();
  (void)system.reachable();
  core::Checker checker(system, {.model_name = model_name});
  core::Explainer explainer(checker);
  const core::Explanation explanation = explainer.explain(model.specs()[0]);

  auto t0 = Clock::now();
  { const evidence::BundleBuilder covers(system, model_name); }
  const double builder_ms = ms_since(t0);

  t0 = Clock::now();
  const evidence::BundleBuilder bundle = evidence::from_explanation(
      system, model_name, model.spec_texts()[0], explanation);
  const double bundle_ms = ms_since(t0);

  t0 = Clock::now();
  const std::string json = bundle.to_json();
  const double to_json_ms = ms_since(t0);

  const std::string file = std::string(argv[4]) + "/" + model_name + ".json";
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << json;
  }
  const double job_rss_mb = own_peak_rss_mb();
  t0 = Clock::now();
  char* child_argv[] = {argv[3], const_cast<char*>(file.c_str()), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  int status = -1;
  if (posix_spawn(&pid, argv[3], &actions, nullptr, child_argv, environ) ==
      0) {
    waitpid(pid, &status, 0);
  }
  posix_spawn_file_actions_destroy(&actions);
  const double verify_ms = ms_since(t0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "symcex-verify rejected " << file << "\n";
    return 1;
  }

  std::printf(
      "{\"model\": \"%s\", \"bundle_bytes\": %zu, \"builder_ms\": %.3f, "
      "\"bundle_ms\": %.3f, \"to_json_ms\": %.3f, \"verify_ms\": %.3f, "
      "\"job_rss_mb\": %.2f, \"verify_minflt\": %ld}\n",
      model_name.c_str(), json.size(), builder_ms, bundle_ms, to_json_ms,
      verify_ms, job_rss_mb, children_minor_faults());
  return 0;
}
