#include "ctl/formula.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "fnv1a.hpp"

namespace symcex::ctl {

Formula::Ptr Formula::node(Kind kind, Ptr lhs, Ptr rhs) {
  return Ptr(new Formula(kind, "", std::move(lhs), std::move(rhs)));
}

Formula::Ptr Formula::make_true() { return node(Kind::kTrue); }
Formula::Ptr Formula::make_false() { return node(Kind::kFalse); }

Formula::Ptr Formula::atom(std::string name) {
  return Ptr(new Formula(Kind::kAtom, std::move(name), nullptr, nullptr));
}

Formula::Ptr Formula::negate(Ptr f) { return node(Kind::kNot, std::move(f)); }
Formula::Ptr Formula::conj(Ptr f, Ptr g) {
  return node(Kind::kAnd, std::move(f), std::move(g));
}
Formula::Ptr Formula::disj(Ptr f, Ptr g) {
  return node(Kind::kOr, std::move(f), std::move(g));
}
Formula::Ptr Formula::exclusive_or(Ptr f, Ptr g) {
  return node(Kind::kXor, std::move(f), std::move(g));
}
Formula::Ptr Formula::implies(Ptr f, Ptr g) {
  return node(Kind::kImplies, std::move(f), std::move(g));
}
Formula::Ptr Formula::iff(Ptr f, Ptr g) {
  return node(Kind::kIff, std::move(f), std::move(g));
}

Formula::Ptr Formula::EX(Ptr f) { return node(Kind::kEX, std::move(f)); }
Formula::Ptr Formula::EF(Ptr f) { return node(Kind::kEF, std::move(f)); }
Formula::Ptr Formula::EG(Ptr f) { return node(Kind::kEG, std::move(f)); }
Formula::Ptr Formula::EU(Ptr f, Ptr g) {
  return node(Kind::kEU, std::move(f), std::move(g));
}
Formula::Ptr Formula::AX(Ptr f) { return node(Kind::kAX, std::move(f)); }
Formula::Ptr Formula::AF(Ptr f) { return node(Kind::kAF, std::move(f)); }
Formula::Ptr Formula::AG(Ptr f) { return node(Kind::kAG, std::move(f)); }
Formula::Ptr Formula::AU(Ptr f, Ptr g) {
  return node(Kind::kAU, std::move(f), std::move(g));
}

Formula::Ptr Formula::E(Ptr path) { return node(Kind::kE, std::move(path)); }
Formula::Ptr Formula::A(Ptr path) { return node(Kind::kA, std::move(path)); }
Formula::Ptr Formula::X(Ptr f) { return node(Kind::kX, std::move(f)); }
Formula::Ptr Formula::F(Ptr f) { return node(Kind::kF, std::move(f)); }
Formula::Ptr Formula::G(Ptr f) { return node(Kind::kG, std::move(f)); }
Formula::Ptr Formula::U(Ptr f, Ptr g) {
  return node(Kind::kU, std::move(f), std::move(g));
}

Formula::Ptr Formula::rebuild(Kind kind, Ptr lhs, Ptr rhs) {
  switch (kind) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
      throw std::invalid_argument("Formula::rebuild: cannot rebuild a leaf");
    default:
      return node(kind, std::move(lhs), std::move(rhs));
  }
}

namespace {

/// Binding strength for printing: higher binds tighter.
int precedence(Kind k) {
  switch (k) {
    case Kind::kIff:
      return 1;
    case Kind::kImplies:
      return 2;
    case Kind::kOr:
      return 3;
    case Kind::kXor:
      return 4;
    case Kind::kAnd:
      return 5;
    case Kind::kU:
      return 6;
    default:
      return 7;  // unary operators and leaves
  }
}

void print(const Formula::Ptr& f, std::string& out, int parent_prec) {
  const int prec = precedence(f->kind());
  const bool parens = prec < parent_prec;
  if (parens) out += '(';
  auto unary = [&](const char* op) {
    out += op;
    out += ' ';
    print(f->lhs(), out, 7);
  };
  auto binary = [&](const char* op, int lhs_prec, int rhs_prec) {
    print(f->lhs(), out, lhs_prec);
    out += ' ';
    out += op;
    out += ' ';
    print(f->rhs(), out, rhs_prec);
  };
  auto bracket_until = [&](const char* q) {
    out += q;
    out += " [";
    print(f->lhs(), out, 0);
    out += " U ";
    print(f->rhs(), out, 0);
    out += ']';
  };
  switch (f->kind()) {
    case Kind::kTrue:
      out += "true";
      break;
    case Kind::kFalse:
      out += "false";
      break;
    case Kind::kAtom:
      out += f->name();
      break;
    case Kind::kNot:
      out += '!';
      print(f->lhs(), out, 7);
      break;
    // Left-associative binaries print their right child one level tighter
    // so right-nested trees keep their parentheses and reparse identically.
    case Kind::kAnd:
      binary("&", 5, 6);
      break;
    case Kind::kOr:
      binary("|", 3, 4);
      break;
    case Kind::kXor:
      binary("xor", 4, 5);
      break;
    case Kind::kImplies:
      binary("->", 3, 2);  // right-associative
      break;
    case Kind::kIff:
      binary("<->", 1, 2);
      break;
    case Kind::kEX:
      unary("EX");
      break;
    case Kind::kEF:
      unary("EF");
      break;
    case Kind::kEG:
      unary("EG");
      break;
    case Kind::kEU:
      bracket_until("E");
      break;
    case Kind::kAX:
      unary("AX");
      break;
    case Kind::kAF:
      unary("AF");
      break;
    case Kind::kAG:
      unary("AG");
      break;
    case Kind::kAU:
      bracket_until("A");
      break;
    case Kind::kE:
      unary("E");
      break;
    case Kind::kA:
      unary("A");
      break;
    case Kind::kX:
      unary("X");
      break;
    case Kind::kF:
      unary("F");
      break;
    case Kind::kG:
      unary("G");
      break;
    case Kind::kU:
      binary("U", 7, 6);  // right-associative
      break;
  }
  if (parens) out += ')';
}

}  // namespace

std::string to_string(const Formula::Ptr& f) {
  std::string out;
  print(f, out, 0);
  return out;
}

bool is_propositional(const Formula::Ptr& f) {
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
      return true;
    case Kind::kNot:
      return is_propositional(f->lhs());
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kXor:
    case Kind::kImplies:
    case Kind::kIff:
      return is_propositional(f->lhs()) && is_propositional(f->rhs());
    default:
      return false;
  }
}

bool is_ctl(const Formula::Ptr& f) {
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
      return true;
    case Kind::kNot:
    case Kind::kEX:
    case Kind::kEF:
    case Kind::kEG:
    case Kind::kAX:
    case Kind::kAF:
    case Kind::kAG:
      return is_ctl(f->lhs());
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kXor:
    case Kind::kImplies:
    case Kind::kIff:
    case Kind::kEU:
    case Kind::kAU:
      return is_ctl(f->lhs()) && is_ctl(f->rhs());
    case Kind::kE:
    case Kind::kA:
    case Kind::kX:
    case Kind::kF:
    case Kind::kG:
    case Kind::kU:
      return false;
  }
  return false;
}

Formula::Ptr to_existential_normal_form(const Formula::Ptr& f) {
  using F = Formula;
  auto rec = [](const Formula::Ptr& g) { return to_existential_normal_form(g); };
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
      return f;
    case Kind::kNot:
      return F::negate(rec(f->lhs()));
    case Kind::kAnd:
      return F::conj(rec(f->lhs()), rec(f->rhs()));
    case Kind::kOr:
      return F::disj(rec(f->lhs()), rec(f->rhs()));
    case Kind::kXor:
      return F::exclusive_or(rec(f->lhs()), rec(f->rhs()));
    case Kind::kImplies:
      return F::disj(F::negate(rec(f->lhs())), rec(f->rhs()));
    case Kind::kIff: {
      const auto a = rec(f->lhs());
      const auto b = rec(f->rhs());
      return F::disj(F::conj(a, b), F::conj(F::negate(a), F::negate(b)));
    }
    case Kind::kEX:
      return F::EX(rec(f->lhs()));
    case Kind::kEG:
      return F::EG(rec(f->lhs()));
    case Kind::kEU:
      return F::EU(rec(f->lhs()), rec(f->rhs()));
    case Kind::kEF:  // EF f == E[true U f]
      return F::EU(F::make_true(), rec(f->lhs()));
    case Kind::kAX:  // AX f == !EX !f
      return F::negate(F::EX(F::negate(rec(f->lhs()))));
    case Kind::kAF:  // AF f == !EG !f
      return F::negate(F::EG(F::negate(rec(f->lhs()))));
    case Kind::kAG:  // AG f == !E[true U !f]
      return F::negate(F::EU(F::make_true(), F::negate(rec(f->lhs()))));
    case Kind::kAU: {  // A[f U g] == !E[!g U (!f & !g)] & !EG !g
      const auto a = rec(f->lhs());
      const auto b = rec(f->rhs());
      const auto nb = F::negate(b);
      return F::conj(F::negate(F::EU(nb, F::conj(F::negate(a), nb))),
                     F::negate(F::EG(nb)));
    }
    case Kind::kE:
    case Kind::kA:
    case Kind::kX:
    case Kind::kF:
    case Kind::kG:
    case Kind::kU:
      throw std::invalid_argument(
          "to_existential_normal_form: not a CTL formula: " + to_string(f));
  }
  throw std::logic_error("to_existential_normal_form: unreachable");
}

namespace {

void collect_atoms(const Formula::Ptr& f, std::vector<std::string>& out) {
  if (f == nullptr) return;
  if (f->kind() == Kind::kAtom) out.push_back(f->name());
  collect_atoms(f->lhs(), out);
  collect_atoms(f->rhs(), out);
}

bool is_temporal_kind(Kind k) {
  switch (k) {
    case Kind::kEX:
    case Kind::kEF:
    case Kind::kEG:
    case Kind::kEU:
    case Kind::kAX:
    case Kind::kAF:
    case Kind::kAG:
    case Kind::kAU:
    case Kind::kE:
    case Kind::kA:
    case Kind::kX:
    case Kind::kF:
    case Kind::kG:
    case Kind::kU:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<std::string> atoms(const Formula::Ptr& f) {
  std::vector<std::string> out;
  collect_atoms(f, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t size(const Formula::Ptr& f) {
  if (f == nullptr) return 0;
  return 1 + size(f->lhs()) + size(f->rhs());
}

std::size_t temporal_depth(const Formula::Ptr& f) {
  if (f == nullptr) return 0;
  const std::size_t below =
      std::max(temporal_depth(f->lhs()), temporal_depth(f->rhs()));
  return below + (is_temporal_kind(f->kind()) ? 1 : 0);
}

Formula::Ptr substitute(const Formula::Ptr& f, const std::string& name,
                        const Formula::Ptr& g) {
  if (f->kind() == Kind::kAtom) return f->name() == name ? g : f;
  if (f->lhs() == nullptr) return f;
  const Formula::Ptr lhs = substitute(f->lhs(), name, g);
  const Formula::Ptr rhs =
      f->rhs() != nullptr ? substitute(f->rhs(), name, g) : nullptr;
  if (lhs == f->lhs() && rhs == f->rhs()) return f;
  return Formula::rebuild(f->kind(), lhs, rhs);
}

Formula::Ptr simplify(const Formula::Ptr& f) {
  using F = Formula;
  if (f->lhs() == nullptr) return f;  // leaves
  const F::Ptr a = simplify(f->lhs());
  const F::Ptr b = f->rhs() != nullptr ? simplify(f->rhs()) : nullptr;
  auto is_true = [](const F::Ptr& x) {
    return x != nullptr && x->kind() == Kind::kTrue;
  };
  auto is_false = [](const F::Ptr& x) {
    return x != nullptr && x->kind() == Kind::kFalse;
  };
  switch (f->kind()) {
    case Kind::kNot:
      if (a->kind() == Kind::kNot) return a->lhs();  // involution
      if (is_true(a)) return F::make_false();
      if (is_false(a)) return F::make_true();
      break;
    case Kind::kAnd:
      if (is_false(a) || is_false(b)) return F::make_false();
      if (is_true(a)) return b;
      if (is_true(b)) return a;
      if (equal(a, b)) return a;
      break;
    case Kind::kOr:
      if (is_true(a) || is_true(b)) return F::make_true();
      if (is_false(a)) return b;
      if (is_false(b)) return a;
      if (equal(a, b)) return a;
      break;
    case Kind::kImplies:
      if (is_false(a) || is_true(b)) return F::make_true();
      if (is_true(a)) return b;
      break;
    case Kind::kEX:
    case Kind::kAX:
    case Kind::kEF:
    case Kind::kAF:
      // X/F of a constant is that constant (paths are infinite).
      if (is_true(a) || is_false(a)) return a;
      break;
    case Kind::kEG:
    case Kind::kAG:
      if (is_true(a) || is_false(a)) return a;
      break;
    case Kind::kEU:
    case Kind::kAU:
      if (is_true(b)) return F::make_true();   // [f U true] holds now
      if (is_false(b)) return F::make_false();  // target unreachable
      break;
    default:
      break;
  }
  if (a == f->lhs() && b == f->rhs()) return f;
  return F::rebuild(f->kind(), a, b);
}

bool equal(const Formula::Ptr& a, const Formula::Ptr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind() != b->kind() || a->name() != b->name()) return false;
  if ((a->lhs() == nullptr) != (b->lhs() == nullptr)) return false;
  if ((a->rhs() == nullptr) != (b->rhs() == nullptr)) return false;
  if (a->lhs() != nullptr && !equal(a->lhs(), b->lhs())) return false;
  if (a->rhs() != nullptr && !equal(a->rhs(), b->rhs())) return false;
  return true;
}

namespace {

// The hash walks the AST exactly like the snapshot FORM section
// (src/persist): a shared postorder traversal (lhs, rhs, node) numbering
// each distinct node once, hashing per node the kind byte, the
// length-prefixed name, and the children's postorder ids.  Keeping the
// two encodings in lockstep means a cache key derived offline from a
// formula always matches the one a loaded snapshot's spec produces.
constexpr std::uint32_t kNoChild = 0xffffffffu;

void hash_node(const Formula::Ptr& f,
               std::unordered_map<const Formula*, std::uint32_t>& ids,
               Fnv1a& h, std::uint32_t& count) {
  if (f == nullptr || ids.contains(f.get())) return;
  hash_node(f->lhs(), ids, h, count);
  hash_node(f->rhs(), ids, h, count);
  h.byte(static_cast<unsigned char>(f->kind()));
  h.le(f->name().size(), 4);
  h.bytes(f->name());
  h.le(f->lhs() ? ids.at(f->lhs().get()) : kNoChild, 4);
  h.le(f->rhs() ? ids.at(f->rhs().get()) : kNoChild, 4);
  ids.emplace(f.get(), count++);
}

}  // namespace

std::uint64_t formula_hash(const Formula::Ptr& f) {
  Fnv1a h;
  std::unordered_map<const Formula*, std::uint32_t> ids;
  std::uint32_t count = 0;
  hash_node(f, ids, h, count);
  h.le(count, 4);
  return h.value();
}

}  // namespace symcex::ctl
