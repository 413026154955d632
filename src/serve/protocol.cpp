// SymCeX -- serve: the newline-JSON wire protocol.
//
// One JSON object per line in each direction.  Requests:
//
//   {"op":"ping"}
//   {"op":"stats"}
//   {"op":"shutdown"}
//   {"op":"check","model":"counter","spec":"AG EF zero",
//    "options":{"node_limit":0,"deadline_ms":0,"no_cache":false}}
//   {"op":"check","model":"mine","smv":"MODULE main ...","spec":"..."}
//   {"op":"batch","jobs":[ <check bodies without the op member> ... ]}
//
// Responses echo {"ok":true,"op":...}; a check response carries the
// result fields of CheckResult with the evidence bundle as a JSON string
// member, so the receiving side recovers the producing run's exact bytes
// (a parse/re-serialize round trip would not be byte-faithful, and the
// bundle's whole value is that it replays bit-identically under
// symcex-verify).

#include "serve/serve.hpp"

#include <cmath>
#include <sstream>

#include "diag/json.hpp"
#include "json_mini.hpp"

namespace symcex::serve {

namespace {

[[nodiscard]] std::string get_string(const jsonmini::Value& v,
                                     std::string_view key,
                                     const char* where) {
  const jsonmini::Value* m = v.find(key);
  if (m == nullptr) return "";
  if (!m->is_string()) {
    throw ProtocolError("field", std::string(where) + ": \"" +
                                     std::string(key) + "\" must be a string");
  }
  return m->string;
}

[[nodiscard]] std::uint64_t get_count(const jsonmini::Value& v,
                                      std::string_view key,
                                      const char* where) {
  const jsonmini::Value* m = v.find(key);
  if (m == nullptr) return 0;
  // Above 2^53 a double no longer holds every integer, and from 2^64 on
  // the cast below would be undefined: reject instead of converting.
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!m->is_number() || m->number < 0 || m->number > kMaxExact ||
      std::floor(m->number) != m->number) {
    throw ProtocolError("field", std::string(where) + ": \"" +
                                     std::string(key) +
                                     "\" must be an integer in [0, 2^53]");
  }
  return static_cast<std::uint64_t>(m->number);
}

[[nodiscard]] bool get_bool(const jsonmini::Value& v, std::string_view key,
                            const char* where) {
  const jsonmini::Value* m = v.find(key);
  if (m == nullptr) return false;
  if (!m->is_bool()) {
    throw ProtocolError("field", std::string(where) + ": \"" +
                                     std::string(key) + "\" must be a boolean");
  }
  return m->boolean;
}

[[nodiscard]] CheckRequest parse_check_body(const jsonmini::Value& v,
                                            const char* where) {
  CheckRequest r;
  r.model = get_string(v, "model", where);
  r.smv = get_string(v, "smv", where);
  r.spec = get_string(v, "spec", where);
  if (r.model.empty()) {
    throw ProtocolError("field",
                        std::string(where) + ": \"model\" is required");
  }
  if (r.spec.empty()) {
    throw ProtocolError("field", std::string(where) + ": \"spec\" is required");
  }
  if (const jsonmini::Value* options = v.find("options")) {
    if (!options->is_object()) {
      throw ProtocolError("field", std::string(where) +
                                       ": \"options\" must be an object");
    }
    r.options.node_limit = static_cast<std::size_t>(
        get_count(*options, "node_limit", where));
    r.options.deadline_ms = get_count(*options, "deadline_ms", where);
    r.options.no_cache = get_bool(*options, "no_cache", where);
  }
  return r;
}

void write_check_body(diag::JsonWriter& w, const CheckRequest& r) {
  w.member("model", r.model);
  if (!r.smv.empty()) w.member("smv", r.smv);
  w.member("spec", r.spec);
  w.key("options");
  w.begin_object();
  w.member("node_limit", static_cast<std::uint64_t>(r.options.node_limit));
  w.member("deadline_ms", r.options.deadline_ms);
  w.member("no_cache", r.options.no_cache);
  w.end_object();
}

}  // namespace

Request parse_request(const std::string& line) {
  jsonmini::Value v;
  try {
    v = jsonmini::parse(line);
  } catch (const std::runtime_error& e) {
    throw ProtocolError("json", e.what());
  }
  if (!v.is_object()) {
    throw ProtocolError("json", "request must be a JSON object");
  }
  const jsonmini::Value* op = v.find("op");
  if (op == nullptr || !op->is_string()) {
    throw ProtocolError("op", "missing \"op\" member");
  }
  Request r;
  if (op->string == "ping") {
    r.op = Request::Op::kPing;
  } else if (op->string == "stats") {
    r.op = Request::Op::kStats;
  } else if (op->string == "shutdown") {
    r.op = Request::Op::kShutdown;
  } else if (op->string == "check") {
    r.op = Request::Op::kCheck;
    r.check = parse_check_body(v, "check");
  } else if (op->string == "batch") {
    r.op = Request::Op::kBatch;
    const jsonmini::Value* jobs = v.find("jobs");
    if (jobs == nullptr || !jobs->is_array()) {
      throw ProtocolError("field", "batch: \"jobs\" must be an array");
    }
    r.batch.reserve(jobs->array.size());
    for (const jsonmini::Value& job : jobs->array) {
      if (!job.is_object()) {
        throw ProtocolError("field", "batch: each job must be an object");
      }
      r.batch.push_back(parse_check_body(job, "batch job"));
    }
  } else {
    throw ProtocolError("op", "unknown op: " + op->string);
  }
  return r;
}

std::string format_check_request(const CheckRequest& request) {
  std::ostringstream os;
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("op", "check");
  write_check_body(w, request);
  w.end_object();
  return os.str();
}

std::string format_batch_request(const std::vector<CheckRequest>& requests) {
  std::ostringstream os;
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("op", "batch");
  w.key("jobs");
  w.begin_array();
  for (const CheckRequest& r : requests) {
    w.begin_object();
    write_check_body(w, r);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

void write_check_result(diag::JsonWriter& w, const CheckResult& result) {
  w.begin_object();
  w.member("ok", result.ok);
  if (!result.ok) {
    w.member("error_check", result.error_check);
    w.member("error", result.error);
    w.member("model", result.model);
    w.member("spec", result.spec);
    w.end_object();
    return;
  }
  w.member("model", result.model);
  w.member("spec", result.spec);
  w.member("verdict", result.verdict);
  w.member("reason", result.reason);
  if (!result.exhausted.empty()) w.member("exhausted", result.exhausted);
  w.member("cached", result.cached);
  w.member("cacheable", result.cacheable);
  w.member("elapsed_ms", result.elapsed_ms);
  if (!result.cache_key.empty()) w.member("cache_key", result.cache_key);
  w.member("bundle", result.bundle);
  w.end_object();
}

CheckResult parse_check_result(const jsonmini::Value& v) {
  if (!v.is_object()) {
    throw ProtocolError("json", "check result must be a JSON object");
  }
  CheckResult r;
  const jsonmini::Value* ok = v.find("ok");
  r.ok = ok != nullptr && ok->is_bool() && ok->boolean;
  r.model = get_string(v, "model", "result");
  r.spec = get_string(v, "spec", "result");
  if (!r.ok) {
    r.error_check = get_string(v, "error_check", "result");
    r.error = get_string(v, "error", "result");
    return r;
  }
  r.verdict = get_string(v, "verdict", "result");
  r.reason = get_string(v, "reason", "result");
  r.exhausted = get_string(v, "exhausted", "result");
  r.cached = get_bool(v, "cached", "result");
  const jsonmini::Value* cacheable = v.find("cacheable");
  r.cacheable =
      cacheable == nullptr || !cacheable->is_bool() || cacheable->boolean;
  if (const jsonmini::Value* elapsed = v.find("elapsed_ms");
      elapsed != nullptr && elapsed->is_number()) {
    r.elapsed_ms = elapsed->number;
  }
  r.cache_key = get_string(v, "cache_key", "result");
  r.bundle = get_string(v, "bundle", "result");
  return r;
}

}  // namespace symcex::serve
