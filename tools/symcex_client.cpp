// symcex-client -- command-line client for the symcex-serve daemon.
//
//   symcex-client --socket PATH ping
//   symcex-client --socket PATH stats
//   symcex-client --socket PATH shutdown
//   symcex-client --socket PATH check --model NAME --spec "CTL"
//                 [--smv FILE] [--node-limit N] [--deadline-ms N]
//                 [--no-cache] [--evidence DIR]
//   symcex-client --socket PATH batch FILE [--evidence DIR]
//   symcex-client --version
//
// Batch files hold one JSON check body per line (the same shape as the
// protocol's batch jobs):
//
//   {"model":"counter","spec":"AG EF zero"}
//   {"model":"peterson","spec":"AG !(crit0 & crit1)"}
//
// With --evidence DIR every returned bundle is written to
// DIR/<sanitized>.json byte-exactly as produced by the daemon, ready for
// symcex-verify -- a served answer and a locally produced one are the
// same kind of artifact.
//
// Exit codes: 0 all responses ok (an "unknown" verdict is still a typed,
// successful response), 1 any per-job error response, 2 usage error or
// connection failure.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "evidence/evidence.hpp"
#include "guard/config.hpp"
#include "serve/serve.hpp"
#include "version.hpp"

namespace {

using symcex::serve::CheckRequest;
using symcex::serve::CheckResult;
using symcex::serve::Client;

int usage() {
  std::cerr
      << "usage: symcex-client --socket PATH ping|stats|shutdown\n"
         "       symcex-client --socket PATH check --model NAME --spec CTL\n"
         "                     [--smv FILE] [--node-limit N]"
         " [--deadline-ms N]\n"
         "                     [--no-cache] [--evidence DIR]\n"
         "       symcex-client --socket PATH batch FILE [--evidence DIR]\n"
         "       symcex-client --version\n";
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Print one result; returns false on an error response.
bool report(const CheckResult& r, const std::string& evidence_dir) {
  if (!r.ok) {
    std::cerr << "symcex-client: " << r.model << " / " << r.spec << ": "
              << r.error_check << ": " << r.error << "\n";
    return false;
  }
  std::cout << r.model << "  " << r.spec << "  => " << r.verdict << "  ("
            << (r.cached ? "cached" : "fresh") << ", " << r.elapsed_ms
            << " ms)";
  if (!r.exhausted.empty()) std::cout << "  exhausted=" << r.exhausted;
  if (!r.reason.empty()) std::cout << "\n    " << r.reason;
  std::cout << "\n";
  if (!evidence_dir.empty() && !r.bundle.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(evidence_dir, ec);
    const std::string basename =
        symcex::evidence::sanitize_basename(r.model + ":" + r.spec);
    const std::string path = evidence_dir + "/" + basename + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(r.bundle.data(), static_cast<std::streamsize>(r.bundle.size()));
    if (!out.good()) {
      std::cerr << "symcex-client: cannot write " << path << "\n";
      return false;
    }
    std::cout << "    bundle: " << path << "\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  symcex::config::install(symcex::config::from_env());
  std::string socket_path;
  std::string command;
  std::string batch_file;
  std::string evidence_dir;
  CheckRequest check;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string text;
    if (arg == "--version") {
      std::cout << symcex::version::build_info("symcex-client") << "\n";
      return 0;
    } else if (arg == "--socket") {
      if (!next(socket_path)) return usage();
    } else if (arg == "--model") {
      if (!next(check.model)) return usage();
    } else if (arg == "--spec") {
      if (!next(check.spec)) return usage();
    } else if (arg == "--smv") {
      if (!next(text)) return usage();
      if (!read_file(text, check.smv)) {
        std::cerr << "symcex-client: cannot read " << text << "\n";
        return 2;
      }
    } else if (arg == "--node-limit") {
      if (!next(text)) return usage();
      check.options.node_limit = std::stoull(text);
    } else if (arg == "--deadline-ms") {
      if (!next(text)) return usage();
      check.options.deadline_ms = std::stoull(text);
    } else if (arg == "--no-cache") {
      check.options.no_cache = true;
    } else if (arg == "--evidence") {
      if (!next(evidence_dir)) return usage();
    } else if (command.empty()) {
      command = arg;
      if (command == "batch" && !next(batch_file)) return usage();
    } else {
      return usage();
    }
  }
  if (socket_path.empty() || command.empty()) return usage();

  try {
    Client client;
    client.connect(socket_path);

    if (command == "ping") {
      if (!client.ping()) {
        std::cerr << "symcex-client: ping failed\n";
        return 1;
      }
      std::cout << client.hello() << "\n";
      return 0;
    }
    if (command == "stats") {
      std::cout << client.stats_json() << "\n";
      return 0;
    }
    if (command == "shutdown") {
      client.shutdown_server();
      std::cout << "shutdown requested\n";
      return 0;
    }
    if (command == "check") {
      if (check.model.empty() || check.spec.empty()) return usage();
      return report(client.check(check), evidence_dir) ? 0 : 1;
    }
    if (command == "batch") {
      std::string text;
      if (!read_file(batch_file, text)) {
        std::cerr << "symcex-client: cannot read " << batch_file << "\n";
        return 2;
      }
      // Wrap the per-line job bodies into one batch request; the protocol
      // parser validates every line.
      std::vector<std::string> lines;
      std::istringstream in(text);
      for (std::string line; std::getline(in, line);) {
        if (!line.empty()) lines.push_back(line);
      }
      std::ostringstream wrapped;
      wrapped << "{\"op\":\"batch\",\"jobs\":[";
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i != 0) wrapped << ",";
        wrapped << lines[i];
      }
      wrapped << "]}";
      const symcex::serve::Request request =
          symcex::serve::parse_request(wrapped.str());
      const std::vector<CheckResult> results = client.batch(request.batch);
      bool all_ok = true;
      for (const CheckResult& r : results) {
        all_ok = report(r, evidence_dir) && all_ok;
      }
      return all_ok ? 0 : 1;
    }
    return usage();
  } catch (const symcex::serve::ProtocolError& e) {
    std::cerr << "symcex-client: " << e.check() << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "symcex-client: " << e.what() << "\n";
    return 2;
  }
}
