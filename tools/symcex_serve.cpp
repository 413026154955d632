// symcex-serve -- the check-serving daemon (src/serve; DESIGN.md §15).
//
//   symcex-serve --socket PATH [options]
//
// Binds a Unix-domain socket, keeps a pool of warm model sessions, and
// answers newline-JSON check requests (see src/serve/serve.hpp for the
// protocol).  Runs in the foreground until a client sends {"op":
// "shutdown"} or the process receives SIGINT/SIGTERM.
//
// Options:
//   --socket PATH        socket path (required)
//   --workers N          job-executing threads            (default 2)
//   --max-queue N        admission bound on queued jobs   (default 32)
//   --max-sessions N     resident warm model sessions     (default 16)
//   --cache-capacity N   in-memory verdict-cache entries  (default 256)
//   --cache-dir DIR      verdict-cache spill directory    (default none)
//   --node-limit N       default per-job live-node budget (default none)
//   --deadline-ms N      default per-job deadline         (default none)
//   --warm FILE.sxsnap   load a check snapshot as a warm session
//                        (repeatable)
//   --version            print build info and exit
//
// Exit codes: 0 clean shutdown, 2 usage error or startup failure.

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "guard/config.hpp"
#include "serve/serve.hpp"
#include "version.hpp"

namespace {

symcex::serve::Server* g_server = nullptr;

void on_signal(int) {
  // Async-signal-safe: request_shutdown is a bare atomic store and the
  // server's wait() polls it.
  if (g_server != nullptr) g_server->request_shutdown();
}

int usage() {
  std::cerr << "usage: symcex-serve --socket PATH [--workers N]"
               " [--max-queue N]\n"
               "                    [--max-sessions N] [--cache-capacity N]"
               " [--cache-dir DIR]\n"
               "                    [--node-limit N] [--deadline-ms N]\n"
               "                    [--warm FILE.sxsnap]...\n"
               "       symcex-serve --version\n";
  return 2;
}

bool parse_count(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  symcex::config::install(symcex::config::from_env());
  symcex::serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    const auto next_count = [&](std::uint64_t& out) {
      std::string text;
      return next(text) && parse_count(text, out);
    };
    std::uint64_t n = 0;
    if (arg == "--version") {
      std::cout << symcex::version::build_info("symcex-serve") << "\n";
      return 0;
    } else if (arg == "--socket") {
      if (!next(options.socket_path)) return usage();
    } else if (arg == "--cache-dir") {
      if (!next(options.cache_dir)) return usage();
    } else if (arg == "--warm") {
      std::string path;
      if (!next(path)) return usage();
      options.warm_snapshots.push_back(path);
    } else if (arg == "--workers") {
      if (!next_count(n)) return usage();
      options.workers = static_cast<std::size_t>(n);
    } else if (arg == "--max-queue") {
      if (!next_count(n)) return usage();
      options.max_queue = static_cast<std::size_t>(n);
    } else if (arg == "--max-sessions") {
      if (!next_count(n)) return usage();
      options.max_sessions = static_cast<std::size_t>(n);
    } else if (arg == "--cache-capacity") {
      if (!next_count(n)) return usage();
      options.cache_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--node-limit") {
      if (!next_count(n)) return usage();
      options.default_node_limit = static_cast<std::size_t>(n);
    } else if (arg == "--deadline-ms") {
      if (!next_count(n)) return usage();
      options.default_deadline_ms = n;
    } else {
      return usage();
    }
  }
  if (options.socket_path.empty()) return usage();

  symcex::serve::Server server(std::move(options));
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "symcex-serve: " << e.what() << "\n";
    return 2;
  }
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::cerr << "symcex-serve: listening on " << server.options().socket_path
            << "\n";
  server.wait();
  server.stop();
  g_server = nullptr;
  std::cerr << "symcex-serve: shut down\n";
  return 0;
}
