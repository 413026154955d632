// Elaboration of a parsed mini-SMV program onto the symbolic layer.

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "diag/metrics.hpp"
#include "guard/config.hpp"
#include "smv/ast.hpp"
#include "smv/smv.hpp"

namespace symcex::smv {

/// Friend of SmvModel granting the compiler write access to its internals.
class SmvModelBuilder {
 public:
  explicit SmvModelBuilder(SmvModel& m) : m_(m) {}
  std::unique_ptr<ts::TransitionSystem>& system() { return m_.system_; }
  std::vector<ctl::Formula::Ptr>& specs() { return m_.specs_; }
  std::vector<std::string>& spec_texts() { return m_.spec_texts_; }
  std::vector<std::string>& var_names() { return m_.var_names_; }
  std::vector<SmvModel::VarInfo>& vars() { return m_.vars_; }

 private:
  SmvModel& m_;
};

namespace {

using detail::Assign;
using detail::EK;
using detail::Expr;
using detail::ExprP;
using detail::Module;
using detail::VarDecl;

bool value_eq(const SmvValue& a, const SmvValue& b) {
  if (a.tag != b.tag) return false;
  switch (a.tag) {
    case SmvValue::Tag::kBool:
      return a.b == b.b;
    case SmvValue::Tag::kInt:
      return a.i == b.i;
    case SmvValue::Tag::kSymbol:
      return a.symbol == b.symbol;
  }
  return false;
}

/// A symbolic value: a list of (value, guard) alternatives.  Guards of a
/// deterministic expression partition the state space; overlapping guards
/// model nondeterministic choice (set expressions).
struct SymValue {
  std::vector<std::pair<SmvValue, bdd::Bdd>> alts;

  void add(const SmvValue& v, const bdd::Bdd& guard) {
    if (guard.is_false()) return;
    for (auto& [val, g] : alts) {
      if (value_eq(val, v)) {
        g |= guard;
        return;
      }
    }
    alts.emplace_back(v, guard);
  }
};

SmvValue bool_value(bool b) {
  SmvValue v;
  v.tag = SmvValue::Tag::kBool;
  v.b = b;
  return v;
}

SmvValue int_value(std::int64_t i) {
  SmvValue v;
  v.tag = SmvValue::Tag::kInt;
  v.i = i;
  return v;
}

bool contains_temporal(const ExprP& e) {
  switch (e->kind) {
    case EK::kEX:
    case EK::kEF:
    case EK::kEG:
    case EK::kAX:
    case EK::kAF:
    case EK::kAG:
    case EK::kEU:
    case EK::kAU:
      return true;
    default:
      for (const auto& k : e->kids) {
        if (contains_temporal(k)) return true;
      }
      return false;
  }
}

/// Walk every identifier occurrence in an expression tree.
template <typename Fn>
void walk_idents(const ExprP& e, Fn&& fn) {
  if (e->kind == EK::kIdent) fn(*e);
  for (const auto& k : e->kids) walk_idents(k, fn);
}

struct VarSlot {
  std::string name;
  bool is_boolean = false;
  std::vector<SmvValue> domain;   // encoding order (index = encoded value)
  std::vector<ts::VarId> bits;    // boolean: one bit
};

class Compiler {
 public:
  Compiler(const Module& prog, const CompileOptions& options)
      : prog_(prog),
        findings_(options.findings),
        fold_(options.fold_constants.value_or(
            config::current().fold_constants)) {}

  SmvModel run() {
    builder_.system() = std::make_unique<ts::TransitionSystem>();
    init_ = mgr().one();
    declare_vars();
    collect_defines();
    propagate_constants();
    process_assigns();
    process_sections();
    process_specs();
    finish();
    return std::move(model_);
  }

 private:
  ts::TransitionSystem& sys() { return *builder_.system(); }
  bdd::Manager& mgr() { return sys().manager(); }

  // -- declarations -----------------------------------------------------------

  void declare_vars() {
    for (const auto& d : prog_.vars) {
      if (slots_.contains(d.name)) {
        throw SmvError("duplicate variable '" + d.name + "'", d.line);
      }
      VarSlot slot;
      slot.name = d.name;
      if (d.type == VarDecl::Type::kInstance) {
        throw std::logic_error(
            "Compiler: instance declaration survived flattening");
      }
      if (d.type == VarDecl::Type::kBoolean) {
        slot.is_boolean = true;
        slot.bits = {sys().add_var(d.name)};
      } else {
        if (d.domain.size() < 2) {
          throw SmvError("variable '" + d.name + "' needs at least 2 values",
                         d.line);
        }
        for (std::size_t i = 0; i < d.domain.size(); ++i) {
          for (std::size_t j = i + 1; j < d.domain.size(); ++j) {
            if (value_eq(d.domain[i], d.domain[j])) {
              throw SmvError("duplicate domain value in '" + d.name + "'",
                             d.line);
            }
          }
        }
        slot.domain = d.domain;
        std::uint32_t bits = 1;
        while ((1u << bits) < slot.domain.size()) ++bits;
        slot.bits = sys().add_vector(d.name, bits);
      }
      order_.push_back(d.name);
      slots_.emplace(d.name, std::move(slot));
    }
    if (order_.empty()) {
      throw SmvError("model declares no variables", 1);
    }
    // A variable named like an enum literal would win every identifier
    // lookup and silently shadow the literal; reject the ambiguity.
    for (const auto& d : prog_.vars) {
      if (is_enum_literal(d.name)) {
        throw SmvError("variable '" + d.name +
                           "' shadows an enum literal of the same name",
                       d.line);
      }
    }
    // Precompute the valid-encoding predicate (both rails); case
    // exhaustiveness is judged relative to it, since the unused encodings
    // of non-power-of-two domains are unreachable by construction.
    valid_all_ = mgr().one();
    for (const auto& name : order_) {
      const VarSlot& slot = slots_.at(name);
      valid_all_ &= valid(slot, false) & valid(slot, true);
    }
  }

  void collect_defines() {
    for (const auto& d : prog_.defines) {
      if (slots_.contains(d.name) || defines_.contains(d.name)) {
        throw SmvError("DEFINE '" + d.name + "' clashes with another symbol",
                       d.line);
      }
      if (is_enum_literal(d.name)) {
        throw SmvError("DEFINE '" + d.name +
                           "' shadows an enum literal of the same name",
                       d.line);
      }
      defines_.emplace(d.name, d.rhs);
    }
    check_define_cycles();
  }

  /// Reject DEFINE reference cycles up front.  The lazy cycle guard in
  /// eval_ident only fires when a cyclic macro is actually used; an unused
  /// cycle would otherwise compile silently and blow up later callers.
  void check_define_cycles() {
    enum class Mark { kVisiting, kDone };
    std::unordered_map<std::string, Mark> marks;
    // Iterative DFS (explicit stack) so adversarially deep chains cannot
    // overflow the call stack.
    for (const auto& d : prog_.defines) {
      if (marks.contains(d.name)) continue;
      std::vector<std::pair<std::string, std::size_t>> stack;
      stack.emplace_back(d.name, d.line);
      marks.emplace(d.name, Mark::kVisiting);
      std::vector<std::vector<std::pair<std::string, std::size_t>>> pending;
      pending.emplace_back();
      walk_idents(defines_.at(d.name), [&](const Expr& id) {
        if (defines_.contains(id.name)) {
          pending.back().emplace_back(id.name, id.line);
        }
      });
      while (!stack.empty()) {
        if (pending.back().empty()) {
          marks[stack.back().first] = Mark::kDone;
          stack.pop_back();
          pending.pop_back();
          continue;
        }
        const auto [name, line] = pending.back().back();
        pending.back().pop_back();
        const auto it = marks.find(name);
        if (it != marks.end()) {
          if (it->second == Mark::kVisiting) {
            throw SmvError("cyclic DEFINE '" + name + "'", line);
          }
          continue;
        }
        marks.emplace(name, Mark::kVisiting);
        stack.emplace_back(name, line);
        pending.emplace_back();
        walk_idents(defines_.at(name), [&](const Expr& id) {
          if (defines_.contains(id.name)) {
            pending.back().emplace_back(id.name, id.line);
          }
        });
      }
    }
  }

  [[nodiscard]] bool is_enum_literal(const std::string& name) const {
    for (const auto& [slot_name, slot] : slots_) {
      (void)slot_name;
      for (const auto& val : slot.domain) {
        if (val.tag == SmvValue::Tag::kSymbol && val.symbol == name) {
          return true;
        }
      }
    }
    return false;
  }

  void report(const char* check, const std::string& message,
              std::size_t line) {
    if (findings_ == nullptr) return;
    findings_->push_back(LintFinding{check, message, line, false});
  }

  // -- constant propagation ----------------------------------------------------

  /// Evaluate an expression to a constant under `env` (known-constant
  /// variable values), or nullopt when the value depends on state.  Purely
  /// syntactic-plus-env: no BDDs are built.  DEFINE cycles were rejected
  /// up front, so macro expansion terminates.
  std::optional<SmvValue> const_eval(
      const ExprP& e, const std::map<std::string, SmvValue>& env) {
    switch (e->kind) {
      case EK::kTrue:
        return bool_value(true);
      case EK::kFalse:
        return bool_value(false);
      case EK::kInt:
        return int_value(e->ival);
      case EK::kIdent: {
        if (slots_.contains(e->name)) {
          const auto it = env.find(e->name);
          if (it != env.end()) return it->second;
          return std::nullopt;
        }
        if (const auto it = defines_.find(e->name); it != defines_.end()) {
          return const_eval(it->second, env);
        }
        if (is_enum_literal(e->name)) {
          SmvValue v;
          v.tag = SmvValue::Tag::kSymbol;
          v.symbol = e->name;
          return v;
        }
        return std::nullopt;  // unknown identifier: let eval() diagnose it
      }
      case EK::kNext:
        // next(x) under a constant env: x holds the same value on both rails.
        return const_eval(e->kids[0], env);
      case EK::kNot: {
        const auto a = const_eval(e->kids[0], env);
        if (!a || a->tag != SmvValue::Tag::kBool) return std::nullopt;
        return bool_value(!a->b);
      }
      case EK::kNeg: {
        const auto a = const_eval(e->kids[0], env);
        if (!a || a->tag != SmvValue::Tag::kInt) return std::nullopt;
        return int_value(-a->i);
      }
      case EK::kAnd:
      case EK::kOr:
      case EK::kXor:
      case EK::kImplies:
      case EK::kIff: {
        const auto a = const_eval(e->kids[0], env);
        const auto b = const_eval(e->kids[1], env);
        const auto known_bool = [](const std::optional<SmvValue>& v) {
          return v && v->tag == SmvValue::Tag::kBool;
        };
        // Short-circuit: one dominating operand decides AND/OR/IMPLIES even
        // when the other side is state-dependent.
        if (e->kind == EK::kAnd &&
            ((known_bool(a) && !a->b) || (known_bool(b) && !b->b))) {
          return bool_value(false);
        }
        if (e->kind == EK::kOr &&
            ((known_bool(a) && a->b) || (known_bool(b) && b->b))) {
          return bool_value(true);
        }
        if (e->kind == EK::kImplies &&
            ((known_bool(a) && !a->b) || (known_bool(b) && b->b))) {
          return bool_value(true);
        }
        if (!known_bool(a) || !known_bool(b)) return std::nullopt;
        switch (e->kind) {
          case EK::kAnd:
            return bool_value(a->b && b->b);
          case EK::kOr:
            return bool_value(a->b || b->b);
          case EK::kXor:
            return bool_value(a->b != b->b);
          case EK::kImplies:
            return bool_value(!a->b || b->b);
          default:
            return bool_value(a->b == b->b);
        }
      }
      case EK::kEq:
      case EK::kNe: {
        const auto a = const_eval(e->kids[0], env);
        const auto b = const_eval(e->kids[1], env);
        if (!a || !b || a->tag != b->tag) return std::nullopt;
        const bool eq = value_eq(*a, *b);
        return bool_value(e->kind == EK::kEq ? eq : !eq);
      }
      case EK::kLt:
      case EK::kLe:
      case EK::kGt:
      case EK::kGe: {
        const auto a = const_eval(e->kids[0], env);
        const auto b = const_eval(e->kids[1], env);
        if (!a || !b || a->tag != SmvValue::Tag::kInt ||
            b->tag != SmvValue::Tag::kInt) {
          return std::nullopt;
        }
        switch (e->kind) {
          case EK::kLt:
            return bool_value(a->i < b->i);
          case EK::kLe:
            return bool_value(a->i <= b->i);
          case EK::kGt:
            return bool_value(a->i > b->i);
          default:
            return bool_value(a->i >= b->i);
        }
      }
      case EK::kAdd:
      case EK::kSub:
      case EK::kMul:
      case EK::kDiv:
      case EK::kMod: {
        const auto a = const_eval(e->kids[0], env);
        const auto b = const_eval(e->kids[1], env);
        if (!a || !b || a->tag != SmvValue::Tag::kInt ||
            b->tag != SmvValue::Tag::kInt) {
          return std::nullopt;
        }
        switch (e->kind) {
          case EK::kAdd:
            return int_value(a->i + b->i);
          case EK::kSub:
            return int_value(a->i - b->i);
          case EK::kMul:
            return int_value(a->i * b->i);
          case EK::kDiv:
            if (b->i == 0) return std::nullopt;  // eval() raises the error
            return int_value(a->i / b->i);
          default:
            if (b->i == 0) return std::nullopt;
            return int_value(((a->i % b->i) + b->i) % b->i);
        }
      }
      case EK::kSet: {
        // A set is constant only when it collapses to one value.
        std::optional<SmvValue> single;
        for (const auto& k : e->kids) {
          const auto v = const_eval(k, env);
          if (!v) return std::nullopt;
          if (!single) {
            single = v;
          } else if (!value_eq(*single, *v)) {
            return std::nullopt;
          }
        }
        return single;
      }
      case EK::kCase: {
        for (std::size_t i = 0; i + 1 < e->kids.size(); i += 2) {
          const auto g = const_eval(e->kids[i], env);
          if (!g || g->tag != SmvValue::Tag::kBool) return std::nullopt;
          if (g->b) return const_eval(e->kids[i + 1], env);
        }
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
  }

  /// Least-fixpoint constant discovery: a variable is constant when its
  /// initial value is a constant c and its next-state function provably
  /// re-produces c given the constants already established (including,
  /// inductively, its own).  Combinational assignments with constant
  /// right-hand sides join the constant pool directly.
  void propagate_constants() {
    if (!fold_ && findings_ == nullptr) return;
    std::map<std::string, const Assign*> init_of;
    std::map<std::string, const Assign*> next_of;
    std::map<std::string, const Assign*> cur_of;
    for (const auto& a : prog_.assigns) {
      if (!slots_.contains(a.var)) continue;  // process_assigns diagnoses
      auto& m = a.kind == Assign::Kind::kInit
                    ? init_of
                    : a.kind == Assign::Kind::kNext ? next_of : cur_of;
      m.emplace(a.var, &a);  // duplicates rejected by process_assigns
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [name, a] : cur_of) {
        if (consts_.contains(name)) continue;
        if (const auto c = const_eval(a->rhs, consts_)) {
          consts_.emplace(name, *c);
          const_lines_[name] = a->line;
          changed = true;
        }
      }
      for (const auto& [name, a] : next_of) {
        if (consts_.contains(name)) continue;
        const auto ai = init_of.find(name);
        if (ai == init_of.end()) continue;
        const auto c0 = const_eval(ai->second->rhs, consts_);
        if (!c0) continue;
        auto env = consts_;
        env.emplace(name, *c0);
        const auto cn = const_eval(a->rhs, env);
        if (cn && value_eq(*cn, *c0)) {
          consts_.emplace(name, *c0);
          const_lines_[name] = a->line;
          foldable_.insert(name);
          changed = true;
        }
      }
    }
    for (const auto& [name, val] : consts_) {
      report("constant-next-state",
             "variable '" + name + "' is provably constant (always " +
                 val.to_string() + ")",
             const_lines_[name]);
    }
  }

  // -- encodings ---------------------------------------------------------------

  bdd::Bdd encode(const VarSlot& slot, std::size_t index, bool next_rail) {
    bdd::Bdd out = mgr().one();
    for (std::size_t b = 0; b < slot.bits.size(); ++b) {
      const bdd::Bdd lit =
          next_rail ? sys().next(slot.bits[b]) : sys().cur(slot.bits[b]);
      out &= ((index >> b) & 1u) != 0 ? lit : !lit;
    }
    return out;
  }

  bdd::Bdd valid(const VarSlot& slot, bool next_rail) {
    if (slot.is_boolean ||
        (slot.domain.size() & (slot.domain.size() - 1)) == 0) {
      return mgr().one();
    }
    bdd::Bdd out = mgr().zero();
    for (std::size_t i = 0; i < slot.domain.size(); ++i) {
      out |= encode(slot, i, next_rail);
    }
    return out;
  }

  // -- evaluation ---------------------------------------------------------------

  SymValue eval(const ExprP& e, bool next_rail) {
    switch (e->kind) {
      case EK::kTrue: {
        SymValue v;
        v.add(bool_value(true), mgr().one());
        return v;
      }
      case EK::kFalse: {
        SymValue v;
        v.add(bool_value(false), mgr().one());
        return v;
      }
      case EK::kInt: {
        SymValue v;
        v.add(int_value(e->ival), mgr().one());
        return v;
      }
      case EK::kIdent:
        return eval_ident(e, next_rail);
      case EK::kNext:
        if (next_rail) {
          throw SmvError("nested next()", e->line);
        }
        return eval(e->kids[0], /*next_rail=*/true);
      case EK::kNot: {
        const bdd::Bdd b = to_bdd(eval(e->kids[0], next_rail), e->line);
        SymValue v;
        v.add(bool_value(true), !b);
        v.add(bool_value(false), b);
        return v;
      }
      case EK::kNeg: {
        const SymValue a = eval(e->kids[0], next_rail);
        SymValue v;
        for (const auto& [val, g] : a.alts) {
          v.add(int_value(-as_int(val, e->line)), g);
        }
        return v;
      }
      case EK::kAnd:
      case EK::kOr:
      case EK::kXor:
      case EK::kImplies:
      case EK::kIff: {
        const bdd::Bdd a = to_bdd(eval(e->kids[0], next_rail), e->line);
        const bdd::Bdd b = to_bdd(eval(e->kids[1], next_rail), e->line);
        bdd::Bdd r;
        switch (e->kind) {
          case EK::kAnd:
            r = a & b;
            break;
          case EK::kOr:
            r = a | b;
            break;
          case EK::kXor:
            r = a ^ b;
            break;
          case EK::kImplies:
            r = !a | b;
            break;
          default:
            r = !(a ^ b);
            break;
        }
        SymValue v;
        v.add(bool_value(true), r);
        v.add(bool_value(false), !r);
        return v;
      }
      case EK::kEq:
      case EK::kNe:
      case EK::kLt:
      case EK::kLe:
      case EK::kGt:
      case EK::kGe:
        return eval_compare(e, next_rail);
      case EK::kAdd:
      case EK::kSub:
      case EK::kMul:
      case EK::kDiv:
      case EK::kMod:
        return eval_arith(e, next_rail);
      case EK::kSet: {
        SymValue v;
        for (const auto& k : e->kids) {
          const SymValue m = eval(k, next_rail);
          for (const auto& [val, g] : m.alts) v.add(val, g);
        }
        return v;
      }
      case EK::kCase:
        return eval_case(e, next_rail);
      default:
        throw SmvError("temporal operator outside SPEC", e->line);
    }
  }

  SymValue eval_ident(const ExprP& e, bool next_rail) {
    if (const auto it = slots_.find(e->name); it != slots_.end()) {
      const VarSlot& slot = it->second;
      SymValue v;
      if (slot.is_boolean) {
        const bdd::Bdd lit = next_rail ? sys().next(slot.bits[0])
                                       : sys().cur(slot.bits[0]);
        v.add(bool_value(true), lit);
        v.add(bool_value(false), !lit);
      } else {
        for (std::size_t i = 0; i < slot.domain.size(); ++i) {
          v.add(slot.domain[i], encode(slot, i, next_rail));
        }
      }
      return v;
    }
    if (const auto it = defines_.find(e->name); it != defines_.end()) {
      if (!expanding_.insert(e->name).second) {
        throw SmvError("cyclic DEFINE '" + e->name + "'", e->line);
      }
      SymValue v = eval(it->second, next_rail);
      expanding_.erase(e->name);
      return v;
    }
    // A bare symbol is an enum literal (it must appear in some domain).
    for (const auto& [name, slot] : slots_) {
      (void)name;
      for (const auto& val : slot.domain) {
        if (val.tag == SmvValue::Tag::kSymbol && val.symbol == e->name) {
          SymValue v;
          SmvValue lit;
          lit.tag = SmvValue::Tag::kSymbol;
          lit.symbol = e->name;
          v.add(lit, mgr().one());
          return v;
        }
      }
    }
    throw SmvError("unknown identifier '" + e->name + "'", e->line);
  }

  SymValue eval_compare(const ExprP& e, bool next_rail) {
    const SymValue a = eval(e->kids[0], next_rail);
    const SymValue b = eval(e->kids[1], next_rail);
    bdd::Bdd truth = mgr().zero();
    for (const auto& [va, ga] : a.alts) {
      for (const auto& [vb, gb] : b.alts) {
        bool r;
        if (e->kind == EK::kEq || e->kind == EK::kNe) {
          if (va.tag != vb.tag) {
            throw SmvError("comparison between incompatible types", e->line);
          }
          r = value_eq(va, vb);
          if (e->kind == EK::kNe) r = !r;
        } else {
          const std::int64_t ia = as_int(va, e->line);
          const std::int64_t ib = as_int(vb, e->line);
          switch (e->kind) {
            case EK::kLt:
              r = ia < ib;
              break;
            case EK::kLe:
              r = ia <= ib;
              break;
            case EK::kGt:
              r = ia > ib;
              break;
            default:
              r = ia >= ib;
              break;
          }
        }
        if (r) truth |= ga & gb;
      }
    }
    // Lint: a comparison decided by the domains alone (relative to the
    // valid encodings -- unused encodings of non-power-of-two domains do
    // not count) indicates a range-dead condition, e.g. `cnt >= 0` over
    // 0..7 or `cnt > 9` over 0..7.
    if (findings_ != nullptr) {
      if ((truth & valid_all_).is_false()) {
        report("range-dead-comparison",
               "comparison is always false over the declared ranges",
               e->line);
      } else if (valid_all_.implies(truth)) {
        report("range-dead-comparison",
               "comparison is always true over the declared ranges", e->line);
      }
    }
    SymValue v;
    v.add(bool_value(true), truth);
    v.add(bool_value(false), !truth);
    return v;
  }

  SymValue eval_arith(const ExprP& e, bool next_rail) {
    const SymValue a = eval(e->kids[0], next_rail);
    const SymValue b = eval(e->kids[1], next_rail);
    SymValue v;
    for (const auto& [va, ga] : a.alts) {
      for (const auto& [vb, gb] : b.alts) {
        const bdd::Bdd g = ga & gb;
        if (g.is_false()) continue;
        const std::int64_t ia = as_int(va, e->line);
        const std::int64_t ib = as_int(vb, e->line);
        std::int64_t r;
        switch (e->kind) {
          case EK::kAdd:
            r = ia + ib;
            break;
          case EK::kSub:
            r = ia - ib;
            break;
          case EK::kMul:
            r = ia * ib;
            break;
          case EK::kDiv:
            if (ib == 0) throw SmvError("division by zero", e->line);
            r = ia / ib;
            break;
          default:
            if (ib == 0) throw SmvError("mod by zero", e->line);
            r = ((ia % ib) + ib) % ib;  // mathematical modulus
            break;
        }
        v.add(int_value(r), g);
      }
    }
    return v;
  }

  SymValue eval_case(const ExprP& e, bool next_rail) {
    SymValue v;
    bdd::Bdd remaining = mgr().one();
    for (std::size_t i = 0; i + 1 < e->kids.size(); i += 2) {
      const bdd::Bdd cond =
          to_bdd(eval(e->kids[i], next_rail), e->kids[i]->line);
      const bdd::Bdd guard = cond & remaining;
      // Lint: an arm no valid state selects is dead weight -- either its
      // condition is unsatisfiable or earlier arms already cover it.  A
      // literal TRUE default is exempt: defensive defaults after an
      // exhaustive enumeration are idiomatic, not defects.
      if (findings_ != nullptr && e->kids[i]->kind != EK::kTrue &&
          (guard & valid_all_).is_false()) {
        report("unreachable-case-arm",
               "case arm is unreachable (condition never selects a state)",
               e->kids[i]->line);
      }
      remaining -= cond;
      if (guard.is_false()) continue;
      const SymValue branch = eval(e->kids[i + 1], next_rail);
      for (const auto& [val, g] : branch.alts) v.add(val, g & guard);
    }
    if (!(remaining & valid_all_).is_false()) {
      throw SmvError(
          "case is not exhaustive (add a 'TRUE : ...' default branch)",
          e->line);
    }
    return v;
  }

  bdd::Bdd to_bdd(const SymValue& v, std::size_t line) {
    bdd::Bdd out = mgr().zero();
    for (const auto& [val, g] : v.alts) {
      if (val.tag != SmvValue::Tag::kBool) {
        throw SmvError("expected a boolean expression", line);
      }
      if (val.b) out |= g;
    }
    return out;
  }

  std::int64_t as_int(const SmvValue& v, std::size_t line) {
    if (v.tag != SmvValue::Tag::kInt) {
      throw SmvError("expected an integer operand", line);
    }
    return v.i;
  }

  // -- sections ---------------------------------------------------------------

  void process_assigns() {
    std::unordered_set<std::string> has_init;
    std::unordered_set<std::string> has_next;
    std::unordered_set<std::string> has_current;
    std::unordered_set<std::string> pinned;
    for (const auto& a : prog_.assigns) {
      const auto it = slots_.find(a.var);
      if (it == slots_.end()) {
        throw SmvError("assignment to unknown variable '" + a.var + "'",
                       a.line);
      }
      auto& used = a.kind == Assign::Kind::kInit
                       ? has_init
                       : a.kind == Assign::Kind::kNext ? has_next
                                                       : has_current;
      if (!used.insert(a.var).second) {
        throw SmvError("duplicate assignment to '" + a.var + "'", a.line);
      }
      if (has_current.contains(a.var) &&
          (has_init.contains(a.var) || has_next.contains(a.var))) {
        throw SmvError("variable '" + a.var +
                           "' has both a combinational and an init/next "
                           "assignment",
                       a.line);
      }
      const VarSlot& slot = it->second;
      if (fold_ && foldable_.contains(a.var) &&
          a.kind != Assign::Kind::kCurrent) {
        // Dead-assignment elimination: the variable is provably constant,
        // so its init/next assignment relations collapse to rail pins
        // cur=c & next=c.  The pin reads nothing, which severs the
        // variable from every other conjunct's support (the whole point:
        // the cone-of-influence pass can now drop it independently).
        if (pinned.insert(a.var).second) {
          const SmvValue& c = consts_.at(a.var);
          const bdd::Bdd cur_pin = encode_value(slot, c, false, a.line);
          const bdd::Bdd next_pin = encode_value(slot, c, true, a.line);
          init_ &= cur_pin;
          sys().add_trans(cur_pin & next_pin);
          if (diag::enabled()) {
            diag::Registry::global().add_in("analyze", "const_folded", 1);
          }
        }
        continue;
      }
      if (a.kind == Assign::Kind::kCurrent) {
        // v := e  means v equals e in every state: constrain the initial
        // states and both rails of the transition relation.
        const bdd::Bdd eq_cur = assignment_relation(slot, a, false, false);
        const bdd::Bdd eq_next = assignment_relation(slot, a, true, true);
        init_ &= eq_cur;
        sys().add_trans(eq_cur & eq_next);
        continue;
      }
      const bool next_target = a.kind == Assign::Kind::kNext;
      const bdd::Bdd rel = assignment_relation(slot, a, false, next_target);
      if (next_target) {
        sys().add_trans(rel);
      } else {
        init_ &= rel;
      }
    }
  }

  /// Relation "slot-on-target-rail equals rhs-evaluated-on-eval-rail".
  bdd::Bdd assignment_relation(const VarSlot& slot, const Assign& a,
                               bool eval_rail, bool target_rail) {
    const SymValue rhs = eval(a.rhs, eval_rail);
    bdd::Bdd rel = mgr().zero();
    for (const auto& [val, g] : rhs.alts) {
      rel |= g & encode_value(slot, val, target_rail, a.line);
    }
    return rel;
  }

  bdd::Bdd encode_value(const VarSlot& slot, const SmvValue& val,
                        bool next_rail, std::size_t line) {
    if (slot.is_boolean) {
      if (val.tag != SmvValue::Tag::kBool) {
        throw SmvError("assigning non-boolean to boolean '" + slot.name + "'",
                       line);
      }
      const bdd::Bdd lit =
          next_rail ? sys().next(slot.bits[0]) : sys().cur(slot.bits[0]);
      return val.b ? lit : !lit;
    }
    for (std::size_t i = 0; i < slot.domain.size(); ++i) {
      if (value_eq(slot.domain[i], val)) return encode(slot, i, next_rail);
    }
    throw SmvError("value " + val.to_string() + " is not in the domain of '" +
                       slot.name + "'",
                   line);
  }

  void process_sections() {
    for (const auto& e : prog_.init) {
      init_ &= to_bdd(eval(e, false), e->line);
    }
    for (const auto& e : prog_.trans) {
      sys().add_trans(to_bdd(eval(e, false), e->line));
    }
    for (const auto& e : prog_.invar) {
      if (contains_temporal(e)) {
        throw SmvError("temporal operator in INVAR", e->line);
      }
      const bdd::Bdd cur = to_bdd(eval(e, false), e->line);
      const bdd::Bdd next = to_bdd(eval(e, true), e->line);
      init_ &= cur;
      sys().add_trans(cur & next);
    }
    for (const auto& e : prog_.fairness) {
      sys().add_fairness(to_bdd(eval(e, false), e->line));
    }
    // Boolean DEFINEs double as labels usable in CTL atoms.
    for (const auto& d : prog_.defines) {
      if (contains_temporal(d.rhs)) continue;
      const SymValue v = eval(d.rhs, false);
      const bool all_bool =
          std::all_of(v.alts.begin(), v.alts.end(), [](const auto& a) {
            return a.first.tag == SmvValue::Tag::kBool;
          });
      if (all_bool) sys().add_label(d.name, to_bdd(v, d.line));
    }
  }

  void process_specs() {
    for (std::size_t i = 0; i < prog_.specs.size(); ++i) {
      builder_.specs().push_back(lower_spec(prog_.specs[i]));
      builder_.spec_texts().push_back(prog_.spec_texts[i]);
    }
  }

  /// Lower a SPEC expression to a CTL formula whose atoms are synthesized
  /// labels bound to the maximal non-temporal subexpressions.
  ctl::Formula::Ptr lower_spec(const ExprP& e) {
    using F = ctl::Formula;
    if (!contains_temporal(e)) {
      const bdd::Bdd set = to_bdd(eval(e, false), e->line);
      const std::string name = "@spec" + std::to_string(next_atom_++);
      sys().add_label(name, set);
      return F::atom(name);
    }
    switch (e->kind) {
      case EK::kNot:
        return F::negate(lower_spec(e->kids[0]));
      case EK::kAnd:
        return F::conj(lower_spec(e->kids[0]), lower_spec(e->kids[1]));
      case EK::kOr:
        return F::disj(lower_spec(e->kids[0]), lower_spec(e->kids[1]));
      case EK::kXor:
        return F::exclusive_or(lower_spec(e->kids[0]), lower_spec(e->kids[1]));
      case EK::kImplies:
        return F::implies(lower_spec(e->kids[0]), lower_spec(e->kids[1]));
      case EK::kIff:
        return F::iff(lower_spec(e->kids[0]), lower_spec(e->kids[1]));
      case EK::kEX:
        return F::EX(lower_spec(e->kids[0]));
      case EK::kEF:
        return F::EF(lower_spec(e->kids[0]));
      case EK::kEG:
        return F::EG(lower_spec(e->kids[0]));
      case EK::kAX:
        return F::AX(lower_spec(e->kids[0]));
      case EK::kAF:
        return F::AF(lower_spec(e->kids[0]));
      case EK::kAG:
        return F::AG(lower_spec(e->kids[0]));
      case EK::kEU:
        return F::EU(lower_spec(e->kids[0]), lower_spec(e->kids[1]));
      case EK::kAU:
        return F::AU(lower_spec(e->kids[0]), lower_spec(e->kids[1]));
      default:
        throw SmvError("operator not allowed around temporal subformulas",
                       e->line);
    }
  }

  void finish() {
    // Domain validity: initial states valid, transitions preserve validity.
    // The next-rail constraint is emitted per variable (not as one merged
    // conjunct): a merged predicate's support would tie every
    // non-power-of-two variable together and glue otherwise independent
    // variables into one cone of influence.
    bdd::Bdd valid_cur = mgr().one();
    for (const auto& name : order_) {
      const VarSlot& slot = slots_.at(name);
      valid_cur &= valid(slot, false);
      const bdd::Bdd valid_next = valid(slot, true);
      if (!valid_next.is_true()) sys().add_trans(valid_next);
    }
    init_ &= valid_cur;
    if (sys().trans_parts().empty()) {
      // A model with no constraints at all: anything can happen.
      sys().add_trans(mgr().one());
    }
    sys().set_init(init_);
    sys().finalize();

    for (const auto& name : order_) {
      const VarSlot& slot = slots_.at(name);
      builder_.var_names().push_back(name);
      SmvModel::VarInfo info;
      info.name = name;
      info.domain = slot.domain;
      info.bits = slot.bits;
      info.is_boolean = slot.is_boolean;
      builder_.vars().push_back(std::move(info));
    }
  }

  const Module& prog_;
  std::vector<LintFinding>* findings_;
  bool fold_;
  SmvModel model_;
  SmvModelBuilder builder_{model_};
  std::map<std::string, VarSlot> slots_;
  std::vector<std::string> order_;
  std::unordered_map<std::string, ExprP> defines_;
  std::unordered_set<std::string> expanding_;
  std::map<std::string, SmvValue> consts_;        // propagate_constants()
  std::map<std::string, std::size_t> const_lines_;
  std::unordered_set<std::string> foldable_;      // init+next provably const
  bdd::Bdd init_;
  bdd::Bdd valid_all_;
  std::size_t next_atom_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// SmvValue / SmvModel
// ---------------------------------------------------------------------------

std::string SmvValue::to_string() const {
  switch (tag) {
    case Tag::kBool:
      return b ? "TRUE" : "FALSE";
    case Tag::kInt:
      return std::to_string(i);
    case Tag::kSymbol:
      return symbol;
  }
  return "?";
}

SmvValue SmvModel::value_of(std::size_t index, const bdd::Bdd& state) const {
  const VarInfo& info = vars_.at(index);
  if (info.is_boolean) {
    SmvValue v;
    v.tag = SmvValue::Tag::kBool;
    v.b = state.intersects(system_->cur(info.bits[0]));
    return v;
  }
  std::size_t encoded = 0;
  for (std::size_t b = 0; b < info.bits.size(); ++b) {
    if (state.intersects(system_->cur(info.bits[b]))) encoded |= 1u << b;
  }
  if (encoded >= info.domain.size()) {
    SmvValue v;
    v.tag = SmvValue::Tag::kSymbol;
    v.symbol = "<invalid>";
    return v;
  }
  return info.domain[encoded];
}

std::string SmvModel::state_string(const bdd::Bdd& state,
                                   const bdd::Bdd& diff_from) const {
  std::string out;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const SmvValue v = value_of(i, state);
    if (!diff_from.is_null() && v == value_of(i, diff_from)) continue;
    if (!out.empty()) out += ' ';
    out += vars_[i].name + '=' + v.to_string();
  }
  if (out.empty()) out = "(unchanged)";
  return out;
}

std::string SmvModel::trace_string(const std::vector<bdd::Bdd>& prefix,
                                   const std::vector<bdd::Bdd>& cycle) const {
  std::string out;
  bdd::Bdd prev;
  std::size_t step = 0;
  auto emit = [&](const bdd::Bdd& s) {
    out += "  state " + std::to_string(step++) + ": " + state_string(s, prev) +
           "\n";
    prev = s;
  };
  for (const auto& s : prefix) emit(s);
  if (!cycle.empty()) {
    out += "  -- loop starts here --\n";
    for (const auto& s : cycle) emit(s);
  }
  return out;
}

SmvModel compile(const std::string& source) { return compile(source, {}); }

SmvModel compile(const std::string& source, const CompileOptions& options) {
  const detail::Program prog = detail::parse_program(source);
  const detail::Module flat = detail::flatten_program(prog);
  Compiler compiler(flat, options);
  return compiler.run();
}

}  // namespace symcex::smv
