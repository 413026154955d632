// symcex-verify -- standalone evidence-bundle checker.
//
// Re-validates a SymCeX evidence bundle (src/evidence) with ZERO
// dependence on the engine: no BDD manager, no transition system, no
// checker -- only this file and the strict std-only JSON parser in
// json_mini.hpp.  That independence is the point: the bundle exports the
// transition relation's raw conjunct list and every duty predicate as
// concrete DNF covers, so the trace can be replayed and every semantic
// duty re-checked by plain cube evaluation.  A verdict from this tool is
// evidence about the *bundle*, not a restatement of the engine's claim.
//
// Checks, each with a stable failure name:
//
//   schema                 versioned shape, types, verdict/kind pairing
//   cover[...]             literal well-formedness (var range, rails, bits)
//   state-domain           trace rows match the variable table, bits 0/1
//   transition[i->j]       every consecutive step satisfies EVERY conjunct
//   cycle-closure          the loop-back edge is itself a transition
//   duty:eg / duty:eu / duty:ex / duty:visits / duty:prefix-invariant
//                          the semantic duties hold on the decoded states
//   certificate[name]      every recorded obligation is discharged (ok)
//
// Exit codes: 0 iff every bundle named on the command line verifies; 1
// when any bundle fails verification (a failure prints "symcex-verify:
// FAIL <name>: <detail>"); 2 on a usage error or an unreadable input
// file.  Verification failure takes precedence over I/O failure.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "json_mini.hpp"
#include "version.hpp"

namespace {

using symcex::jsonmini::Value;

struct VerifyError {
  std::string check;
  std::string detail;
};

[[noreturn]] void fail(std::string check, std::string detail) {
  throw VerifyError{std::move(check), std::move(detail)};
}

const Value& require_member(const Value& obj, const std::string& key,
                            Value::Kind kind, const std::string& where) {
  const Value* v = obj.find(key);
  if (v == nullptr) fail("schema", where + ": missing member \"" + key + "\"");
  if (v->kind != kind) {
    fail("schema", where + ": member \"" + key + "\" has the wrong type");
  }
  return *v;
}

/// Is `x` a non-negative integer that fits 64 bits?
bool is_index(double x) {
  return x >= 0 && x < 0x1p64 && x == std::floor(x);
}

std::size_t as_index(const Value& v, const std::string& where) {
  if (!v.is_number() || !is_index(v.number)) {
    fail("schema", where + ": expected a non-negative integer");
  }
  return static_cast<std::size_t>(v.number);
}

bool as_bit(const Value& v, const std::string& check,
            const std::string& where) {
  if (!v.is_number() || (v.number != 0.0 && v.number != 1.0)) {
    fail(check, where + ": expected a 0/1 bit");
  }
  return v.number == 1.0;
}

/// One cover, read straight from its "cubes" array into one flat literal
/// buffer: cube c is lits[ends[c - 1], ends[c]).  Nothing is checked
/// against the bundle while reading -- the variable count may come later
/// in the document -- so the first shape defect is recorded instead of
/// thrown, and check_cover reports it in the verifier's own check order.
struct Cover {
  struct Lit {
    std::uint32_t var = 0;
    std::uint8_t rail = 0;
    bool value = false;
  };
  enum class Defect {
    kNone,
    kCubeNotArray,  ///< a cube is not an array
    kNotTriple,     ///< a literal is not a 3-element array
    kNotIndex,      ///< var or rail is not a non-negative integer
    kNotBit,        ///< value is not 0 or 1
    kRange,         ///< var >= 2^32 or rail > 1: stored in big_var / big_rail
  };

  std::vector<Lit> lits;
  std::vector<std::size_t> ends;
  // Literals are stored up to the first defect, which sits in cube
  // `defect_cube`; the rest of the array is only parsed.
  Defect defect = Defect::kNone;
  std::size_t defect_cube = 0;
  std::uint64_t big_var = 0;
  std::uint64_t big_rail = 0;
};

/// The MemberReader for "cubes": covers[k] is the k-th array read, and the
/// member's Value is kCaptured with number = k.  A "cubes" value that is
/// not an array is parsed as usual, for the schema check to reject.
symcex::jsonmini::Value read_cubes(symcex::jsonmini::Parser& p,
                                   std::vector<Cover>& covers) {
  if (p.next() != '[') return p.parse_value();
  Cover cover;
  const auto flag = [&](Cover::Defect d) {
    cover.defect = d;
    cover.defect_cube = cover.ends.size();
  };
  p.for_each_element([&] {
    if (cover.defect != Cover::Defect::kNone) {
      (void)p.parse_value();
      return;
    }
    if (p.next() != '[') {
      (void)p.parse_value();
      flag(Cover::Defect::kCubeNotArray);
    } else {
      p.for_each_element([&] {
        if (cover.defect != Cover::Defect::kNone || p.next() != '[') {
          (void)p.parse_value();
          if (cover.defect == Cover::Defect::kNone) {
            flag(Cover::Defect::kNotTriple);
          }
          return;
        }
        double field[3] = {-1, -1, -1};  // -1: not a number
        std::size_t n = 0;
        p.for_each_element([&] {
          if (n < 3 && p.at_number()) {
            field[n] = p.parse_number();
          } else {
            (void)p.parse_value();
          }
          ++n;
        });
        if (n != 3) {
          flag(Cover::Defect::kNotTriple);
        } else if (!is_index(field[0]) || !is_index(field[1])) {
          flag(Cover::Defect::kNotIndex);
        } else if (field[2] != 0.0 && field[2] != 1.0) {
          flag(Cover::Defect::kNotBit);
        } else if (field[0] > 4294967295.0 || field[1] > 1.0) {
          flag(Cover::Defect::kRange);
          cover.big_var = static_cast<std::uint64_t>(field[0]);
          cover.big_rail = static_cast<std::uint64_t>(field[1]);
        } else {
          cover.lits.push_back({static_cast<std::uint32_t>(field[0]),
                                static_cast<std::uint8_t>(field[1]),
                                field[2] == 1.0});
        }
      });
    }
    if (cover.defect == Cover::Defect::kNone ||
        cover.defect_cube == cover.ends.size()) {
      cover.ends.push_back(cover.lits.size());
    }
  });
  symcex::jsonmini::Value v;
  v.kind = Value::Kind::kCaptured;
  v.number = static_cast<double>(covers.size());
  covers.push_back(std::move(cover));
  return v;
}

/// Check the cover of a conjunct or predicate object against the bundle
/// and return it.  Failures name "cover[<where>]", except a missing or
/// non-array "cubes" and a non-integer index, which fail "schema".
const Cover& check_cover(const Value& v, const std::vector<Cover>& covers,
                         std::size_t num_vars, bool allow_next_rail,
                         const std::string& where) {
  const Value* cubes = v.find("cubes");
  if (cubes == nullptr) {
    fail("schema", where + ": missing member \"cubes\"");
  }
  if (cubes->kind != Value::Kind::kCaptured) {
    fail("schema", where + ": member \"cubes\" has the wrong type");
  }
  const Cover& cover = covers[static_cast<std::size_t>(cubes->number)];
  const auto cube_where = [&](std::size_t c) {
    return where + ".cubes[" + std::to_string(c) + "]";
  };
  const auto range_fail = [&](std::size_t c, std::uint64_t var,
                              std::uint64_t rail) {
    if (var >= num_vars) {
      fail("cover[" + where + "]",
           cube_where(c) + ": variable index " + std::to_string(var) +
               " out of range (" + std::to_string(num_vars) + " variables)");
    }
    if (rail > 1 || (rail == 1 && !allow_next_rail)) {
      fail("cover[" + where + "]",
           cube_where(c) + ": invalid rail " + std::to_string(rail));
    }
  };
  std::size_t begin = 0;
  for (std::size_t c = 0; c < cover.ends.size(); ++c) {
    for (std::size_t i = begin; i < cover.ends[c]; ++i) {
      range_fail(c, cover.lits[i].var, cover.lits[i].rail);
    }
    begin = cover.ends[c];
  }
  const std::size_t c = cover.defect_cube;
  switch (cover.defect) {
    case Cover::Defect::kNone:
      break;
    case Cover::Defect::kCubeNotArray:
      fail("cover[" + where + "]", cube_where(c) + ": not an array");
    case Cover::Defect::kNotTriple:
      fail("cover[" + where + "]",
           cube_where(c) + ": literal is not a [var, rail, value] triple");
    case Cover::Defect::kNotIndex:
      fail("schema", cube_where(c) + ": expected a non-negative integer");
    case Cover::Defect::kNotBit:
      fail("cover[" + where + "]", cube_where(c) + ": expected a 0/1 bit");
    case Cover::Defect::kRange:
      range_fail(c, cover.big_var, cover.big_rail);
      break;
  }
  return cover;
}

/// Evaluate a cover on a (current, next) assignment pair; `next` may be
/// null for current-rail-only covers (predicates).
bool eval_cover(const Cover& cover, const std::vector<bool>& cur,
                const std::vector<bool>* next) {
  std::size_t begin = 0;
  for (const std::size_t end : cover.ends) {
    bool sat = true;
    for (std::size_t i = begin; i < end && sat; ++i) {
      const Cover::Lit& l = cover.lits[i];
      sat = (l.rail == 0 ? cur[l.var] : (*next)[l.var]) == l.value;
    }
    if (sat) return true;
    begin = end;
  }
  return false;
}

std::vector<std::vector<bool>> parse_states(const Value& rows,
                                            std::size_t num_vars,
                                            const std::string& where) {
  std::vector<std::vector<bool>> out;
  out.reserve(rows.array.size());
  for (std::size_t i = 0; i < rows.array.size(); ++i) {
    const Value& row = rows.array[i];
    const std::string row_where = where + "[" + std::to_string(i) + "]";
    if (!row.is_array()) fail("state-domain", row_where + ": not an array");
    if (row.array.size() != num_vars) {
      fail("state-domain",
           row_where + ": " + std::to_string(row.array.size()) +
               " bits for " + std::to_string(num_vars) + " variables");
    }
    std::vector<bool> state;
    state.reserve(num_vars);
    for (const Value& bit : row.array) {
      state.push_back(as_bit(bit, "state-domain", row_where));
    }
    out.push_back(std::move(state));
  }
  return out;
}

struct Duty {
  std::string kind;
  std::string label;
  int invariant = -1;
  int target = -1;
  std::vector<int> fairness;
};

struct Summary {
  std::string verdict;
  std::string kind;
  std::size_t steps = 0;
  std::size_t conjuncts = 0;
  std::size_t duties = 0;
  std::size_t certificates = 0;
};

Summary verify_bundle(const Value& root, const std::vector<Cover>& covers) {
  // -- schema -----------------------------------------------------------------
  if (!root.is_object()) fail("schema", "top level is not an object");
  const Value& version = require_member(root, "symcex_evidence_version",
                                        Value::Kind::kNumber, "bundle");
  if (version.number != 1.0) {
    fail("schema", "unsupported symcex_evidence_version " +
                       std::to_string(version.number));
  }

  const Value& model =
      require_member(root, "model", Value::Kind::kObject, "bundle");
  require_member(model, "name", Value::Kind::kString, "model");
  const Value& variables =
      require_member(model, "variables", Value::Kind::kArray, "model");
  for (const Value& name : variables.array) {
    if (!name.is_string()) fail("schema", "model.variables: non-string name");
  }
  const std::size_t num_vars = variables.array.size();
  require_member(model, "fairness_count", Value::Kind::kNumber, "model");
  const Value& schedule = require_member(model, "cluster_schedule",
                                         Value::Kind::kObject, "model");
  require_member(schedule, "threshold", Value::Kind::kNumber,
                 "cluster_schedule");
  require_member(schedule, "clusters", Value::Kind::kNumber,
                 "cluster_schedule");
  require_member(schedule, "hash", Value::Kind::kString, "cluster_schedule");
  require_member(model, "annotations", Value::Kind::kObject, "model");

  const Value& check =
      require_member(root, "check", Value::Kind::kObject, "bundle");
  require_member(check, "spec", Value::Kind::kString, "check");
  const std::string verdict =
      require_member(check, "verdict", Value::Kind::kString, "check").string;
  const std::string kind =
      require_member(check, "evidence_kind", Value::Kind::kString, "check")
          .string;
  require_member(check, "note", Value::Kind::kString, "check");
  if (verdict != "true" && verdict != "false" && verdict != "unknown") {
    fail("schema", "check.verdict \"" + verdict + "\" is not a verdict");
  }
  if (kind != "witness" && kind != "counterexample" && kind != "partial" &&
      kind != "none") {
    fail("schema", "check.evidence_kind \"" + kind + "\" is unknown");
  }
  if (kind == "witness" && verdict != "true") {
    fail("schema", "a witness requires verdict \"true\", got \"" + verdict +
                       "\"");
  }
  if (kind == "counterexample" && verdict != "false") {
    fail("schema", "a counterexample requires verdict \"false\", got \"" +
                       verdict + "\"");
  }
  if (kind == "partial" && verdict != "unknown") {
    fail("schema", "partial evidence requires verdict \"unknown\", got \"" +
                       verdict + "\"");
  }

  // -- trace ------------------------------------------------------------------
  const Value& trace =
      require_member(root, "trace", Value::Kind::kObject, "bundle");
  const auto prefix = parse_states(
      require_member(trace, "prefix", Value::Kind::kArray, "trace"), num_vars,
      "trace.prefix");
  const auto cycle = parse_states(
      require_member(trace, "cycle", Value::Kind::kArray, "trace"), num_vars,
      "trace.cycle");
  std::vector<std::vector<bool>> states = prefix;
  states.insert(states.end(), cycle.begin(), cycle.end());
  const std::size_t cycle_start = prefix.size();
  if (kind == "none" && !states.empty()) {
    fail("state-domain", "evidence_kind \"none\" with a non-empty trace");
  }
  if (kind != "none" && states.empty()) {
    fail("state-domain",
         "evidence_kind \"" + kind + "\" requires a non-empty trace");
  }
  if (kind == "partial" && !cycle.empty()) {
    fail("state-domain", "partial evidence must not claim a cycle");
  }

  // -- covers -----------------------------------------------------------------
  const Value& relation = require_member(root, "transition_relation",
                                         Value::Kind::kObject, "bundle");
  const Value& conjuncts_json =
      require_member(relation, "conjuncts", Value::Kind::kArray,
                     "transition_relation");
  std::vector<const Cover*> conjuncts;
  conjuncts.reserve(conjuncts_json.array.size());
  for (std::size_t i = 0; i < conjuncts_json.array.size(); ++i) {
    conjuncts.push_back(&check_cover(conjuncts_json.array[i], covers,
                                     num_vars, true,
                                     "conjunct " + std::to_string(i)));
  }

  const Value& predicates_json =
      require_member(root, "predicates", Value::Kind::kArray, "bundle");
  std::vector<const Cover*> predicates;
  predicates.reserve(predicates_json.array.size());
  for (std::size_t i = 0; i < predicates_json.array.size(); ++i) {
    predicates.push_back(&check_cover(predicates_json.array[i], covers,
                                      num_vars, false,
                                      "predicate " + std::to_string(i)));
  }

  // -- transitions ------------------------------------------------------------
  const auto check_edge = [&](std::size_t from, std::size_t to,
                              const std::string& check_name) {
    for (std::size_t c = 0; c < conjuncts.size(); ++c) {
      if (!eval_cover(*conjuncts[c], states[from], &states[to])) {
        fail(check_name, "step " + std::to_string(from) + " -> " +
                             std::to_string(to) +
                             " violates transition conjunct " +
                             std::to_string(c));
      }
    }
  };
  for (std::size_t i = 0; i + 1 < states.size(); ++i) {
    check_edge(i, i + 1,
               "transition[" + std::to_string(i) + "->" +
                   std::to_string(i + 1) + "]");
  }
  if (!cycle.empty()) {
    check_edge(states.size() - 1, cycle_start, "cycle-closure");
  }

  // -- duties -----------------------------------------------------------------
  const Value& duties_json =
      require_member(root, "duties", Value::Kind::kArray, "bundle");
  std::vector<Duty> duties;
  const auto predicate_at = [&](const Value& v,
                                const std::string& where) -> const Cover& {
    const std::size_t index = as_index(v, where);
    if (index >= predicates.size()) {
      fail("schema", where + ": predicate index " + std::to_string(index) +
                         " out of range");
    }
    return *predicates[index];
  };
  const auto satisfies = [&](std::size_t state, const Cover& predicate) {
    return eval_cover(predicate, states[state], nullptr);
  };
  for (std::size_t d = 0; d < duties_json.array.size(); ++d) {
    const Value& duty = duties_json.array[d];
    const std::string where = "duties[" + std::to_string(d) + "]";
    const std::string duty_kind =
        require_member(duty, "kind", Value::Kind::kString, where).string;

    if (duty_kind == "eg") {
      const Cover& invariant = predicate_at(
          require_member(duty, "invariant", Value::Kind::kNumber, where),
          where);
      const Value& fairness =
          require_member(duty, "fairness", Value::Kind::kArray, where);
      for (std::size_t i = 0; i < states.size(); ++i) {
        if (!satisfies(i, invariant)) {
          fail("duty:eg",
               "EG invariant fails at step " + std::to_string(i));
        }
      }
      if (cycle.empty()) fail("duty:eg", "EG evidence requires a cycle");
      for (std::size_t k = 0; k < fairness.array.size(); ++k) {
        const Cover& constraint = predicate_at(fairness.array[k], where);
        bool visited = false;
        for (std::size_t i = cycle_start; i < states.size() && !visited; ++i) {
          visited = satisfies(i, constraint);
        }
        if (!visited) {
          fail("duty:eg", "fairness constraint " + std::to_string(k) +
                              " is never visited on the cycle");
        }
      }
    } else if (duty_kind == "eu") {
      const Cover& invariant = predicate_at(
          require_member(duty, "invariant", Value::Kind::kNumber, where),
          where);
      const Cover& target = predicate_at(
          require_member(duty, "target", Value::Kind::kNumber, where), where);
      std::size_t hit = states.size();
      for (std::size_t i = 0; i < states.size(); ++i) {
        if (satisfies(i, target)) {
          hit = i;
          break;
        }
      }
      if (hit == states.size()) {
        fail("duty:eu", "EU target is never reached");
      }
      for (std::size_t i = 0; i < hit; ++i) {
        if (!satisfies(i, invariant)) {
          fail("duty:eu", "EU invariant fails at step " + std::to_string(i) +
                              " before the target");
        }
      }
    } else if (duty_kind == "ex") {
      const Cover& target = predicate_at(
          require_member(duty, "target", Value::Kind::kNumber, where), where);
      if (states.size() < 2 || !satisfies(1, target)) {
        fail("duty:ex", "the second state does not satisfy the EX target");
      }
    } else if (duty_kind == "visits") {
      const std::string label =
          require_member(duty, "label", Value::Kind::kString, where).string;
      const Cover& predicate = predicate_at(
          require_member(duty, "predicate", Value::Kind::kNumber, where),
          where);
      bool visited = false;
      for (std::size_t i = 0; i < states.size() && !visited; ++i) {
        visited = satisfies(i, predicate);
      }
      if (!visited) {
        fail("duty:visits", "no trace state satisfies \"" + label + "\"");
      }
    } else if (duty_kind == "prefix-invariant") {
      const Cover& invariant = predicate_at(
          require_member(duty, "invariant", Value::Kind::kNumber, where),
          where);
      for (std::size_t i = 0; i < cycle_start; ++i) {
        if (!satisfies(i, invariant)) {
          fail("duty:prefix-invariant",
               "prefix invariant fails at step " + std::to_string(i));
        }
      }
    } else {
      fail("schema", where + ": unknown duty kind \"" + duty_kind + "\"");
    }
  }

  // -- certificates -----------------------------------------------------------
  const Value& certificates =
      require_member(root, "certificates", Value::Kind::kArray, "bundle");
  for (const Value& cert : certificates.array) {
    if (!cert.is_object()) fail("schema", "certificates: entry not an object");
    const std::string name =
        require_member(cert, "name", Value::Kind::kString, "certificate")
            .string;
    const Value& obligations = require_member(
        cert, "obligations", Value::Kind::kArray, "certificate " + name);
    for (const Value& o : obligations.array) {
      if (!o.is_object()) {
        fail("schema", "certificate " + name + ": obligation not an object");
      }
      const std::string oname =
          require_member(o, "name", Value::Kind::kString, "obligation").string;
      const Value& ok =
          require_member(o, "ok", Value::Kind::kBool, "obligation " + oname);
      const std::string detail =
          require_member(o, "detail", Value::Kind::kString,
                         "obligation " + oname)
              .string;
      if (!ok.boolean) {
        fail("certificate[" + name + "]",
             "recorded obligation \"" + oname + "\" failed" +
                 (detail.empty() ? "" : ": " + detail));
      }
    }
  }

  Summary s;
  s.verdict = verdict;
  s.kind = kind;
  s.steps = states.size();
  s.conjuncts = conjuncts.size();
  s.duties = duties_json.array.size();
  s.certificates = certificates.array.size();
  return s;
}

// Exit codes (see --help): 0 every bundle verified, 1 at least one bundle
// failed verification, 2 usage error or unreadable input.  A verification
// failure takes precedence over an I/O failure when both occur, so CI can
// distinguish "the evidence is wrong" from "the file went missing".
enum : int { kExitOk = 0, kExitFailed = 1, kExitUsageOrIo = 2 };

int verify_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "symcex-verify: cannot read " << path << "\n";
    return kExitUsageOrIo;
  }
  std::string text;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (size > 0) {
    text.resize(static_cast<std::size_t>(size));
    in.read(text.data(), size);
  }
  if (!in) {
    std::cerr << "symcex-verify: cannot read " << path << "\n";
    return kExitUsageOrIo;
  }
  try {
    std::vector<Cover> covers;
    const symcex::jsonmini::MemberReader cubes_reader{
        "cubes", [&](symcex::jsonmini::Parser& p) {
          return read_cubes(p, covers);
        }};
    const Value root = symcex::jsonmini::parse(text, cubes_reader);
    const Summary s = verify_bundle(root, covers);
    std::cout << "OK " << path << ": " << s.verdict << " (" << s.kind << "), "
              << s.steps << " steps, " << s.conjuncts << " conjuncts, "
              << s.duties << " duties, " << s.certificates
              << " certificates\n";
    return kExitOk;
  } catch (const VerifyError& e) {
    std::cerr << "symcex-verify: FAIL " << e.check << ": " << e.detail
              << " (" << path << ")\n";
    return kExitFailed;
  } catch (const std::exception& e) {
    // Unparseable JSON is a failed bundle, not an I/O problem: the file
    // was readable, its content did not verify.
    std::cerr << "symcex-verify: FAIL json: " << e.what() << " (" << path
              << ")\n";
    return kExitFailed;
  }
}

void print_help() {
  std::cout <<
      "usage: symcex-verify BUNDLE.json [BUNDLE.json ...]\n"
      "\n"
      "Re-verify SymCeX evidence bundles from their engine-independent\n"
      "JSON encoding alone (no BDD library is linked; see the trust\n"
      "argument at the top of tools/symcex_verify.cpp).\n"
      "\n"
      "exit codes:\n"
      "  0  every bundle verified\n"
      "  1  at least one bundle failed verification (bad certificate,\n"
      "     broken trace, malformed JSON)\n"
      "  2  usage error, or an input file could not be read\n"
      "\n"
      "When both kinds of problem occur across multiple bundles, the\n"
      "verification failure wins: exit 1.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: symcex-verify BUNDLE.json [BUNDLE.json ...]\n"
                 "       symcex-verify --help\n";
    return kExitUsageOrIo;
  }
  const std::string first = argv[1];
  if (first == "--help" || first == "-h") {
    print_help();
    return kExitOk;
  }
  if (first == "--version") {
    std::cout << symcex::version::build_info("symcex-verify") << "\n";
    return kExitOk;
  }
  bool any_failed = false;
  bool any_io = false;
  for (int i = 1; i < argc; ++i) {
    switch (verify_file(argv[i])) {
      case kExitFailed:
        any_failed = true;
        break;
      case kExitUsageOrIo:
        any_io = true;
        break;
      default:
        break;
    }
  }
  if (any_failed) return kExitFailed;
  if (any_io) return kExitUsageOrIo;
  return kExitOk;
}
