// Generic language-containment engine (Section 8).
//
// All public check_containment overloads share one pipeline:
//   1. build the product structure M(K, K') symbolically, keeping the read
//      symbol in the state so the counterexample word can be decoded;
//   2. compile the system's acceptance phi and the negated specification
//      acceptance !phi' into DNFs of restricted-fragment conjuncts
//      (GF p | FG q) over product-state predicates;
//   3. for each disjunct of phi & !phi', run the Section 7 check; the
//      first satisfiable disjunct yields the witness lasso, decoded into
//      an ultimately periodic word.

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "automata/omega.hpp"
#include "automata/streett.hpp"
#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "ctlstar/star_checker.hpp"
#include "diag/metrics.hpp"
#include "ts/field.hpp"
#include "ts/transition_system.hpp"

namespace symcex::automata {

namespace {

using Dnf = std::vector<std::vector<ctlstar::Conjunct>>;

/// Conjunction of two DNFs (cross product of disjuncts).  An empty DNF is
/// "false"; a DNF with one empty disjunct is "true".
Dnf cross(const Dnf& a, const Dnf& b) {
  Dnf out;
  for (const auto& da : a) {
    for (const auto& db : b) {
      std::vector<ctlstar::Conjunct> merged = da;
      merged.insert(merged.end(), db.begin(), db.end());
      out.push_back(std::move(merged));
    }
  }
  return out;
}

/// The symbolic product of two transition structures plus the predicate
/// encoders both acceptance compilers need.
class ProductCtx {
 public:
  ProductCtx(const TransitionStructure& sys, const TransitionStructure& spec)
      : fsys_(m_, "sys", std::max(2u, sys.num_states)),
        fspec_(m_, "spec", std::max(2u, spec.num_states)),
        fsym_(m_, "sym", std::max(2u, sys.num_symbols)) {
    bdd::Bdd t_sys = m_.manager().zero();
    for (AState s = 0; s < sys.num_states; ++s) {
      for (const auto& [a, t] : sys.transitions[s]) {
        t_sys |= fsys_.eq(s) & fsym_.eq(a) & fsys_.eq(t, true);
      }
    }
    bdd::Bdd t_spec = m_.manager().zero();
    for (AState s = 0; s < spec.num_states; ++s) {
      for (const auto& [a, t] : spec.transitions[s]) {
        t_spec |= fspec_.eq(s) & fsym_.eq(a) & fspec_.eq(t, true);
      }
    }
    m_.add_trans(t_sys);
    m_.add_trans(t_spec);
    // Restrict the symbol rail to the system's real alphabet.
    sym_valid_ = m_.manager().zero();
    bdd::Bdd sym_valid_next = m_.manager().zero();
    for (Symbol a = 0; a < sys.num_symbols; ++a) {
      sym_valid_ |= fsym_.eq(a);
      sym_valid_next |= fsym_.eq(a, true);
    }
    m_.add_trans(sym_valid_next);
    m_.set_init(fsys_.eq(sys.initial) & fspec_.eq(spec.initial) & sym_valid_);
    m_.finalize();
    sys_valid_ = m_.manager().zero();
    for (AState s = 0; s < sys.num_states; ++s) sys_valid_ |= fsys_.eq(s);
    spec_valid_ = m_.manager().zero();
    for (AState s = 0; s < spec.num_states; ++s) spec_valid_ |= fspec_.eq(s);
  }

  [[nodiscard]] bdd::Bdd sys_among(const std::vector<AState>& states) {
    bdd::Bdd out = m_.manager().zero();
    for (const AState s : states) out |= fsys_.eq(s);
    return out;
  }
  [[nodiscard]] bdd::Bdd sys_not_among(const std::vector<AState>& states) {
    return sys_valid_ & !sys_among(states);
  }
  [[nodiscard]] bdd::Bdd spec_among(const std::vector<AState>& states) {
    bdd::Bdd out = m_.manager().zero();
    for (const AState s : states) out |= fspec_.eq(s);
    return out;
  }
  [[nodiscard]] bdd::Bdd spec_not_among(const std::vector<AState>& states) {
    return spec_valid_ & !spec_among(states);
  }
  [[nodiscard]] bdd::Bdd zero() { return m_.manager().zero(); }

  /// Run the fragment check over the combined DNF and decode a witness.
  ContainmentResult check(const Dnf& total,
                          const core::WitnessOptions& options) {
    const diag::PhaseScope phase("containment");
    const bool diag_on = diag::enabled();
    // The product structure gets its own Checker and hence its own
    // core::EvalContext: under SYMCEX_CARE_SET=1 the care set is the
    // product's reachable states (computed for product_states below
    // anyway), so the fragment fixpoints run care-simplified sweeps while
    // certify_result still replays the lasso on the exact automata.
    core::Checker checker(m_);
    ctlstar::StarChecker star(checker, options);
    ContainmentResult out;
    out.product_states = m_.count_states(m_.reachable());
    for (const auto& conjuncts : total) {
      if (diag_on) {
        diag::Registry::global().add("containment.disjuncts_checked");
      }
      const bdd::Bdd sat = star.check_conjunction(conjuncts);
      if (!m_.init().intersects(sat)) continue;
      const core::Trace trace =
          star.conjunction_witness(conjuncts, m_.init());
      WordLasso lasso;
      auto decode = [&](const bdd::Bdd& state) {
        const std::vector<bool> values = m_.state_values(state);
        return std::make_tuple(fsys_.decode(values), fspec_.decode(values),
                               fsym_.decode(values));
      };
      for (const auto& st : trace.prefix) {
        const auto [qs, qp, a] = decode(st);
        lasso.run_prefix.emplace_back(qs, qp);
        lasso.word_prefix.push_back(a);
      }
      for (const auto& st : trace.cycle) {
        const auto [qs, qp, a] = decode(st);
        lasso.run_cycle.emplace_back(qs, qp);
        lasso.word_cycle.push_back(a);
      }
      out.contained = false;
      out.verdict = core::Verdict::kFalse;
      out.counterexample = std::move(lasso);
      out.fixpoint_evaluations = star.fixpoint_evaluations();
      return out;
    }
    out.contained = true;
    out.verdict = core::Verdict::kTrue;
    out.fixpoint_evaluations = star.fixpoint_evaluations();
    return out;
  }

 private:
  ts::TransitionSystem m_;
  ts::Field fsys_;
  ts::Field fspec_;
  ts::Field fsym_;
  bdd::Bdd sys_valid_;
  bdd::Bdd spec_valid_;
  bdd::Bdd sym_valid_;
};

// ---- acceptance compilers (system side: phi; spec side: !phi), overloaded on
// the acceptance type so one template serves every automaton pairing --------

Dnf phi(ProductCtx& ctx, const std::vector<StreettPair>& pairs) {
  std::vector<ctlstar::Conjunct> conjuncts;
  for (const auto& pr : pairs) {
    // FG U | GF V
    conjuncts.push_back(
        ctlstar::Conjunct{ctx.sys_among(pr.v), ctx.sys_among(pr.u)});
  }
  return Dnf{std::move(conjuncts)};
}

Dnf neg_phi(ProductCtx& ctx, const std::vector<StreettPair>& pairs) {
  Dnf out;
  for (const auto& pr : pairs) {
    // GF !U & FG !V
    out.push_back(
        {ctlstar::Conjunct{ctx.spec_not_among(pr.u), ctx.zero()},
         ctlstar::Conjunct{ctx.zero(), ctx.spec_not_among(pr.v)}});
  }
  return out;
}

Dnf phi(ProductCtx& ctx, const std::vector<RabinPair>& pairs) {
  Dnf out;
  for (const auto& pr : pairs) {
    // FG !E & GF F
    out.push_back({ctlstar::Conjunct{ctx.zero(), ctx.sys_not_among(pr.e)},
                   ctlstar::Conjunct{ctx.sys_among(pr.f), ctx.zero()}});
  }
  return out;
}

Dnf neg_phi(ProductCtx& ctx, const std::vector<RabinPair>& pairs) {
  std::vector<ctlstar::Conjunct> conjuncts;
  for (const auto& pr : pairs) {
    // GF E | FG !F
    conjuncts.push_back(ctlstar::Conjunct{ctx.spec_among(pr.e),
                                          ctx.spec_not_among(pr.f)});
  }
  return Dnf{std::move(conjuncts)};
}

Dnf phi(ProductCtx& ctx, const std::vector<std::vector<AState>>& table) {
  Dnf out;
  for (const auto& m : table) {
    // FG in(M) & AND_{s in M} GF s
    std::vector<ctlstar::Conjunct> conjuncts;
    conjuncts.push_back(ctlstar::Conjunct{ctx.zero(), ctx.sys_among(m)});
    for (const AState s : m) {
      conjuncts.push_back(ctlstar::Conjunct{ctx.sys_among({s}), ctx.zero()});
    }
    out.push_back(std::move(conjuncts));
  }
  return out;
}

Dnf neg_phi(ProductCtx& ctx,
            const std::vector<std::vector<AState>>& table) {
  // AND_M ( GF !in(M)  |  OR_{s in M} FG !s ): expand to DNF.
  Dnf out{{}};  // true
  for (const auto& m : table) {
    Dnf factor;
    factor.push_back(
        {ctlstar::Conjunct{ctx.spec_not_among(m), ctx.zero()}});
    for (const AState s : m) {
      factor.push_back(
          {ctlstar::Conjunct{ctx.zero(), ctx.spec_not_among({s})}});
    }
    out = cross(out, factor);
  }
  return out;
}

/// When certification is on, re-check a non-containment verdict with the
/// automata's own exact lasso acceptance (independent of the symbolic
/// product): the word must be accepted by the system and rejected by the
/// specification.
template <typename Sys, typename Spec>
void certify_result(const ContainmentResult& result, const Sys& sys,
                    const Spec& spec) {
  if (!certify::enabled() || result.contained) return;
  const WordLasso& w = *result.counterexample;
  certify::Certificate cert;
  cert.require("sys-accepts",
               sys.accepts_lasso(w.word_prefix, w.word_cycle),
               "the counterexample word must be accepted by the system "
               "automaton");
  cert.require("spec-rejects",
               !spec.accepts_lasso(w.word_prefix, w.word_cycle),
               "the counterexample word must be rejected by the "
               "specification automaton");
  certify::require_certified(cert, "check_containment");
}

/// Run one containment pipeline under the ambient resource budget: a
/// guard::ResourceExhausted abort anywhere (product construction included
/// -- the private product manager installs guard::ScopedBudget::current()
/// on creation) is reported as verdict == kUnknown rather than escaping.
/// Rerun inside a larger ScopedBudget for a definite answer.
template <typename Body>
ContainmentResult guarded_containment(Body&& body) {
  try {
    return body();
  } catch (const guard::ResourceExhausted& e) {
    ContainmentResult out;
    out.contained = false;
    out.verdict = core::Verdict::kUnknown;
    out.unknown_reason = e.what();
    out.spent = e.spent();
    if (diag::enabled()) {
      diag::Registry::global().add_in(
          "guard", std::string("containment.unknown.") +
                       guard::resource_name(e.resource()),
          1);
    }
    return out;
  }
}

void require_spec(const TransitionStructure& spec, const char* what) {
  if (!spec.is_deterministic()) {
    throw std::invalid_argument(
        std::string("check_containment: the ") + what +
        " specification automaton must be deterministic (containment "
        "against a nondeterministic specification is PSPACE-hard)");
  }
  if (!spec.is_complete()) {
    throw std::invalid_argument(std::string("check_containment: the ") +
                                what +
                                " specification automaton must be complete "
                                "(call complete())");
  }
}

const char* kind_name(const StreettAutomaton&) { return "Streett"; }
const char* kind_name(const RabinAutomaton&) { return "Rabin"; }
const char* kind_name(const MullerAutomaton&) { return "Muller"; }

/// The one containment body: L(sys) is contained in L(spec) iff no fair
/// path of the product satisfies phi(sys) & !phi(spec).
template <typename Sys, typename Spec>
ContainmentResult contain(const Sys& sys, const Spec& spec,
                          const core::WitnessOptions& options) {
  require_spec(spec, kind_name(spec));
  return guarded_containment([&] {
    ProductCtx ctx(sys, spec);
    ContainmentResult out = ctx.check(
        cross(phi(ctx, sys.acceptance), neg_phi(ctx, spec.acceptance)),
        options);
    certify_result(out, sys, spec);
    return out;
  });
}

}  // namespace

ContainmentResult check_containment(const StreettAutomaton& sys,
                                    const StreettAutomaton& spec,
                                    const core::WitnessOptions& options) {
  return contain(sys, spec, options);
}

ContainmentResult check_containment(const StreettAutomaton& sys,
                                    const RabinAutomaton& spec,
                                    const core::WitnessOptions& options) {
  return contain(sys, spec, options);
}

ContainmentResult check_containment(const RabinAutomaton& sys,
                                    const StreettAutomaton& spec,
                                    const core::WitnessOptions& options) {
  return contain(sys, spec, options);
}

ContainmentResult check_containment(const RabinAutomaton& sys,
                                    const RabinAutomaton& spec,
                                    const core::WitnessOptions& options) {
  return contain(sys, spec, options);
}

ContainmentResult check_containment(const StreettAutomaton& sys,
                                    const MullerAutomaton& spec,
                                    const core::WitnessOptions& options) {
  return contain(sys, spec, options);
}

ContainmentResult check_containment(const MullerAutomaton& sys,
                                    const StreettAutomaton& spec,
                                    const core::WitnessOptions& options) {
  return contain(sys, spec, options);
}

}  // namespace symcex::automata
