// symcex-lint -- static analysis for SMV models (DESIGN.md §12).
//
//   symcex-lint [--json] model.smv [more.smv ...]
//
// Runs the analyze::Linter over each input: structural AST passes (unused
// variables, uninitialized reads) plus the compiler's semantic findings
// (unreachable case arms, range-dead comparisons, provably constant
// next-state functions, duplicate declarations, DEFINE cycles, shadowed
// enum literals).  Findings print one per line as
//
//   file:line: warning|error: [check] message
//
// or, with --json, as one JSON document per file.  Exit status: 0 when
// every input is clean, 1 when any finding was reported, 2 on usage or
// I/O errors.  CI runs this over examples/models/ -- the bundled models
// must stay clean, and the deliberately defective lint fixture must fail.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "guard/config.hpp"
#include "version.hpp"

int main(int argc, char** argv) {
  symcex::config::install(symcex::config::from_env());
  using namespace symcex;

  bool json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::cout << version::build_info("symcex-lint") << "\n";
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "usage: symcex-lint [--json] model.smv [more.smv ...]\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: symcex-lint [--json] model.smv [more.smv ...]\n";
    return 2;
  }

  const analyze::Linter linter;
  bool any_findings = false;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "symcex-lint: error: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    const analyze::LintReport report = linter.run(buffer.str());
    if (json) {
      report.write_json(std::cout, path);
    } else if (report.clean()) {
      std::cout << path << ": clean\n";
    } else {
      std::cout << report.to_string(path);
    }
    any_findings = any_findings || !report.clean();
  }
  return any_findings ? 1 : 0;
}
