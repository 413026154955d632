// SymCeX -- a mini-SMV front end.
//
// A small model-description language in the style of the SMV system the
// paper's algorithms were built into [11]: boolean / enumerated / ranged
// state variables, parallel assignments with nondeterministic choice,
// direct TRANS/INIT/INVAR constraints, DEFINE macros, FAIRNESS constraints
// and CTL SPECs, compiled onto the symbolic TransitionSystem layer.
//
//   MODULE main
//   VAR
//     st   : {idle, busy, done};
//     req  : boolean;
//     cnt  : 0..7;
//   ASSIGN
//     init(st)  := idle;
//     next(st)  := case
//         st = idle & req : busy;
//         st = busy       : {busy, done};   -- nondeterministic choice
//         TRUE            : idle;
//       esac;
//     next(cnt) := (cnt + 1) mod 8;
//   DEFINE
//     active := st != idle;
//   INVAR  !(st = done & req)
//   FAIRNESS  st = idle
//   SPEC AG (req -> AF st = done)
//
// Scope notes (documented substitutions vs full SMV): a single MODULE main
// (no module hierarchy / process keyword), integer arithmetic + - * / mod
// over bounded domains, and CTL specs.  Unassigned variables evolve
// nondeterministically within their domain.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctl/formula.hpp"
#include "ts/transition_system.hpp"

namespace symcex::smv {

/// Parse or type error, with a 1-based source line.
class SmvError : public std::runtime_error {
 public:
  SmvError(const std::string& message, std::size_t line)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// One value of an SMV variable, for trace decoding.
struct SmvValue {
  enum class Tag { kBool, kInt, kSymbol };
  Tag tag = Tag::kBool;
  bool b = false;
  std::int64_t i = 0;
  std::string symbol;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const SmvValue& a, const SmvValue& b) {
    if (a.tag != b.tag) return false;
    switch (a.tag) {
      case Tag::kBool:
        return a.b == b.b;
      case Tag::kInt:
        return a.i == b.i;
      case Tag::kSymbol:
        return a.symbol == b.symbol;
    }
    return false;
  }
  friend bool operator!=(const SmvValue& a, const SmvValue& b) {
    return !(a == b);
  }
};

/// A compiled model: the symbolic transition system plus everything needed
/// to check its SPECs and print traces with SMV-level values.
class SmvModel {
 public:
  /// The underlying transition system (labels include every DEFINE and a
  /// synthesized label per atomic spec predicate).
  [[nodiscard]] ts::TransitionSystem& system() { return *system_; }
  [[nodiscard]] const ts::TransitionSystem& system() const { return *system_; }

  /// The SPECs in declaration order (atoms refer to synthesized labels).
  [[nodiscard]] const std::vector<ctl::Formula::Ptr>& specs() const {
    return specs_;
  }
  /// The original source text of each SPEC.
  [[nodiscard]] const std::vector<std::string>& spec_texts() const {
    return spec_texts_;
  }

  [[nodiscard]] const std::vector<std::string>& variable_names() const {
    return var_names_;
  }
  /// Value of SMV variable `index` in a concrete state.
  [[nodiscard]] SmvValue value_of(std::size_t index,
                                  const bdd::Bdd& state) const;
  /// SMV-style state rendering; with `diff_from`, only changed variables.
  [[nodiscard]] std::string state_string(
      const bdd::Bdd& state, const bdd::Bdd& diff_from = bdd::Bdd()) const;
  /// Render a whole trace (prefix + "-- loop starts here --" + cycle).
  [[nodiscard]] std::string trace_string(
      const std::vector<bdd::Bdd>& prefix,
      const std::vector<bdd::Bdd>& cycle) const;

  /// Per-variable decoding info (exposed for tools that render traces
  /// themselves; populated by compile()).
  struct VarInfo {
    std::string name;
    std::vector<SmvValue> domain;      // domain values in encoding order
    std::vector<ts::VarId> bits;       // boolean: single bit
    bool is_boolean = false;
  };
  [[nodiscard]] const std::vector<VarInfo>& variables() const { return vars_; }

 private:
  friend class SmvModelBuilder;
  std::unique_ptr<ts::TransitionSystem> system_;
  std::vector<ctl::Formula::Ptr> specs_;
  std::vector<std::string> spec_texts_;
  std::vector<std::string> var_names_;
  std::vector<VarInfo> vars_;
};

/// One static-analysis diagnostic about an SMV source (see analyze::Linter).
struct LintFinding {
  std::string check;    ///< stable kebab-case check name, e.g. "unused-variable"
  std::string message;  ///< human-readable description
  std::size_t line = 0; ///< 1-based source line (0 when not attributable)
  bool error = false;   ///< true for parse/compile failures, false for lints
};

/// Knobs for compile().  Default-constructed options reproduce the plain
/// compile() behaviour exactly.
struct CompileOptions {
  /// Fold provably constant variables: a variable whose initial value is a
  /// constant and whose next-state function provably re-produces it is
  /// pinned by a two-literal rail predicate instead of its full assignment
  /// relation (dead-assignment elimination; shrinks conjunct supports so
  /// the cone-of-influence pass can sever it).  nullopt reads
  /// config::current().fold_constants (SYMCEX_FOLD_CONST).
  std::optional<bool> fold_constants;
  /// When non-null, semantic lint findings discovered during elaboration
  /// (unreachable case arms, range-dead comparisons, constant next-state
  /// functions) are appended here instead of being discarded.
  std::vector<LintFinding>* findings = nullptr;
};

/// Compile SMV source text into a ready-to-check model.  Throws SmvError.
[[nodiscard]] SmvModel compile(const std::string& source);
[[nodiscard]] SmvModel compile(const std::string& source,
                               const CompileOptions& options);

}  // namespace symcex::smv
