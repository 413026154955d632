#include "certify/certify.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "diag/json.hpp"
#include "diag/metrics.hpp"
#include "guard/config.hpp"

namespace symcex::certify {

namespace {

/// Human position of combined-list index k in a prefix+cycle trace.
std::string position(std::size_t k, std::size_t prefix_len) {
  if (k < prefix_len) return "prefix[" + std::to_string(k) + "]";
  return "cycle[" + std::to_string(k - prefix_len) + "]";
}

/// Fold the certificate totals into the diag registry (no-op when
/// diagnostics are disabled).
void count_certificate(const Certificate& cert) {
  auto& reg = diag::Registry::global();
  reg.add_in("certify", "certificates", 1);
  reg.add_in("certify", "obligations", cert.obligations.size());
  std::size_t failed = 0;
  for (const auto& o : cert.obligations) {
    if (!o.ok) ++failed;
  }
  if (failed != 0) {
    reg.add_in("certify", "obligations_failed", failed);
    reg.add_in("certify", "certificates_failed", 1);
  }
}

}  // namespace

bool enabled() { return config::current().certify; }

// ---------------------------------------------------------------------------
// Certificate
// ---------------------------------------------------------------------------

bool Certificate::ok() const {
  return std::all_of(obligations.begin(), obligations.end(),
                     [](const Obligation& o) { return o.ok; });
}

const Obligation* Certificate::first_failure() const {
  for (const auto& o : obligations) {
    if (!o.ok) return &o;
  }
  return nullptr;
}

std::string Certificate::to_string() const {
  std::ostringstream os;
  for (const auto& o : obligations) {
    os << (o.ok ? "PASS " : "FAIL ") << o.name;
    if (!o.detail.empty()) os << ": " << o.detail;
    os << '\n';
  }
  return os.str();
}

void Certificate::write_json(std::ostream& os) const {
  diag::JsonWriter w(os);
  w.begin_array();
  for (const auto& o : obligations) {
    w.begin_object();
    w.member("name", o.name);
    w.member("ok", o.ok);
    w.member("detail", o.detail);
    w.end_object();
  }
  w.end_array();
}

void Certificate::require(std::string name, bool ok, std::string detail) {
  obligations.push_back({std::move(name), ok, std::move(detail)});
}

CertificationError::CertificationError(const std::string& context,
                                       Certificate certificate)
    : std::logic_error([&] {
        const Obligation* f = certificate.first_failure();
        std::string msg = context + ": trace certification failed";
        if (f != nullptr) {
          msg += " at obligation '" + f->name + "'";
          if (!f->detail.empty()) msg += " (" + f->detail + ")";
        }
        return msg;
      }()),
      cert_(std::move(certificate)) {}

void require_certified(const Certificate& certificate,
                       const std::string& context) {
  if (certificate.ok()) return;
  diag::Registry::global().add_in("certify", "failures", 1);
  throw CertificationError(context, certificate);
}

// ---------------------------------------------------------------------------
// TraceCertifier
// ---------------------------------------------------------------------------

TraceCertifier::TraceCertifier(const ts::TransitionSystem& ts) : ts_(ts) {}

bool TraceCertifier::decode_state(const bdd::Bdd& state,
                                  std::vector<bool>& values,
                                  std::string& why) const {
  if (state.is_null()) {
    why = "null state handle";
    return false;
  }
  if (state.is_false()) {
    why = "empty (false) state set";
    return false;
  }
  bdd::Manager* mgr = state.manager();
  const std::size_t n = ts_.num_state_vars();
  std::vector<std::uint32_t> curs(n);
  for (std::size_t i = 0; i < n; ++i) {
    curs[i] = static_cast<std::uint32_t>(2 * i);
  }
  try {
    values = mgr->pick_one_assignment(state, curs);
  } catch (const std::exception& e) {
    // Support outside the current rail (e.g. a next-rail variable leaked
    // into the trace) makes the pick reject the variable list.
    why = std::string("not a current-rail state: ") + e.what();
    return false;
  }
  // Canonicity does the counting for us: the handle denotes exactly one
  // state iff re-encoding the picked assignment reproduces it.
  if (mgr->minterm(curs, values) != state) {
    why = "denotes more than one state";
    return false;
  }
  return true;
}

bool TraceCertifier::eval_on_state(const bdd::Bdd& predicate,
                                   const std::vector<bool>& state) const {
  bdd::Manager* mgr = predicate.manager();
  std::vector<bool> assignment(mgr->num_vars(), false);
  for (std::size_t i = 0; i < state.size(); ++i) {
    assignment[2 * i] = state[i];
  }
  return predicate.eval(assignment);
}

bool TraceCertifier::has_transition(const std::vector<bool>& from,
                                    const std::vector<bool>& to) const {
  // Evaluate every conjunct of the (partitioned) relation on the combined
  // (current, next) assignment -- a plain top-down eval per part, fully
  // independent of the relational-product kernels the generators used.
  const std::vector<bdd::Bdd>& parts = ts_.trans_parts();
  if (parts.empty()) return true;  // empty conjunction: the total relation
  bdd::Manager* mgr = parts.front().manager();
  std::vector<bool> assignment(mgr->num_vars(), false);
  for (std::size_t i = 0; i < from.size(); ++i) {
    assignment[2 * i] = from[i];
    assignment[2 * i + 1] = to[i];
  }
  return std::all_of(parts.begin(), parts.end(), [&](const bdd::Bdd& part) {
    return part.eval(assignment);
  });
}

void TraceCertifier::check_structure(
    const core::Trace& trace, Certificate& cert,
    std::vector<std::vector<bool>>& decoded) const {
  const std::size_t prefix_len = trace.prefix.size();
  const std::size_t total = trace.length();
  cert.require("trace-nonempty", total > 0);
  if (total == 0) return;

  // Combined state list: prefix then one unrolling of the cycle.  (Built
  // from the fields directly; Trace::states() lives in a layer above us.)
  std::vector<bdd::Bdd> states;
  states.reserve(total);
  states.insert(states.end(), trace.prefix.begin(), trace.prefix.end());
  states.insert(states.end(), trace.cycle.begin(), trace.cycle.end());

  // Every entry must denote exactly one concrete state.  An empty decoded
  // entry marks a failure; edges touching it are not evaluable.
  decoded.assign(total, {});
  for (std::size_t k = 0; k < total; ++k) {
    std::vector<bool> values;
    std::string why;
    const bool ok = decode_state(states[k], values, why);
    cert.require("single-state[" + std::to_string(k) + "]", ok,
                 ok ? position(k, prefix_len) : position(k, prefix_len) + ": " + why);
    if (ok) decoded[k] = std::move(values);
  }

  // Every consecutive pair must be a transition.
  for (std::size_t k = 0; k + 1 < total; ++k) {
    if (decoded[k].empty() || decoded[k + 1].empty()) continue;
    cert.require("edge[" + std::to_string(k) + "]",
                 has_transition(decoded[k], decoded[k + 1]),
                 position(k, prefix_len) + " -> " + position(k + 1, prefix_len));
  }

  // The wrap-around edge closing the cycle.
  if (trace.is_lasso() && !decoded[total - 1].empty() &&
      !decoded[prefix_len].empty()) {
    cert.require("cycle-closed",
                 has_transition(decoded[total - 1], decoded[prefix_len]),
                 position(total - 1, prefix_len) + " -> cycle[0]");
  }

  // Cross-engine pass: the image of the source state, computed by the
  // rel_next image sweep, must meet the target.  The explicit engine
  // builds each successor list from exactly this image, so this is its
  // "target is a successor" predicate -- without enumerating the model.
  // decode_state proved each entry is the single minterm it decoded to.
  const auto xcheck = [&](std::size_t k, std::size_t from, std::size_t to) {
    if (decoded[from].empty() || decoded[to].empty()) return;
    cert.require("xcheck-edge[" + std::to_string(k) + "]",
                 ts_.image(states[from]).intersects(states[to]),
                 "image of " + position(from, prefix_len) + " meets " +
                     position(to, prefix_len));
  };
  for (std::size_t k = 0; k + 1 < total; ++k) xcheck(k, k, k + 1);
  if (trace.is_lasso()) xcheck(total - 1, total - 1, prefix_len);
}

Certificate TraceCertifier::certify_path(const core::Trace& trace) const {
  Certificate cert;
  std::vector<std::vector<bool>> decoded;
  check_structure(trace, cert, decoded);
  count_certificate(cert);
  return cert;
}

Certificate TraceCertifier::certify_eg(
    const core::Trace& trace, const bdd::Bdd& f,
    const std::vector<bdd::Bdd>& constraints) const {
  Certificate cert;
  std::vector<std::vector<bool>> decoded;
  check_structure(trace, cert, decoded);
  cert.require("lasso", trace.is_lasso(),
               "EG witnesses must end in a repeating cycle");

  const std::size_t prefix_len = trace.prefix.size();
  for (std::size_t k = 0; k < decoded.size(); ++k) {
    if (decoded[k].empty()) continue;
    cert.require("eg-invariant[" + std::to_string(k) + "]",
                 eval_on_state(f, decoded[k]),
                 position(k, prefix_len) + " must satisfy f");
  }
  for (std::size_t j = 0; j < constraints.size(); ++j) {
    bool visited = false;
    for (std::size_t k = prefix_len; k < decoded.size(); ++k) {
      if (!decoded[k].empty() && eval_on_state(constraints[j], decoded[k])) {
        visited = true;
        break;
      }
    }
    cert.require("fairness[" + std::to_string(j) + "]", visited,
                 "constraint " + std::to_string(j) +
                     " must be visited on the cycle");
  }
  count_certificate(cert);
  return cert;
}

Certificate TraceCertifier::certify_eu(const core::Trace& trace,
                                       const bdd::Bdd& f,
                                       const bdd::Bdd& g) const {
  Certificate cert;
  std::vector<std::vector<bool>> decoded;
  check_structure(trace, cert, decoded);

  const std::size_t prefix_len = trace.prefix.size();
  std::size_t target = decoded.size();
  for (std::size_t k = 0; k < decoded.size(); ++k) {
    if (!decoded[k].empty() && eval_on_state(g, decoded[k])) {
      target = k;
      break;
    }
  }
  cert.require("eu-target", target < decoded.size(),
               "some state must satisfy g");
  for (std::size_t k = 0; k < target && k < decoded.size(); ++k) {
    if (decoded[k].empty()) continue;
    cert.require("eu-invariant[" + std::to_string(k) + "]",
                 eval_on_state(f, decoded[k]),
                 position(k, prefix_len) + " must satisfy f before the g-state");
  }
  count_certificate(cert);
  return cert;
}

Certificate TraceCertifier::certify_prefix(const core::Trace& trace,
                                           const bdd::Bdd& f) const {
  Certificate cert;
  std::vector<std::vector<bool>> decoded;
  check_structure(trace, cert, decoded);
  cert.require("prefix-only", trace.cycle.empty(),
               "a salvaged partial witness is a finite path, not a lasso");
  cert.require("prefix-nonempty", !trace.prefix.empty(),
               "a salvaged partial witness must contain at least one state");
  const std::size_t prefix_len = trace.prefix.size();
  for (std::size_t k = 0; k < decoded.size(); ++k) {
    if (decoded[k].empty()) continue;
    cert.require("prefix-invariant[" + std::to_string(k) + "]",
                 eval_on_state(f, decoded[k]),
                 position(k, prefix_len) + " must satisfy f");
  }
  count_certificate(cert);
  return cert;
}

Certificate TraceCertifier::certify_ex(const core::Trace& trace,
                                       const bdd::Bdd& f) const {
  Certificate cert;
  std::vector<std::vector<bool>> decoded;
  check_structure(trace, cert, decoded);
  cert.require("ex-length", trace.length() >= 2,
               "an EX witness needs a successor state");
  if (decoded.size() >= 2 && !decoded[1].empty()) {
    cert.require("ex-target", eval_on_state(f, decoded[1]),
                 "the second state must satisfy f");
  }
  count_certificate(cert);
  return cert;
}

Certificate TraceCertifier::certify_fragment(
    const core::Trace& trace, const std::vector<FragmentDuty>& duties) const {
  Certificate cert;
  std::vector<std::vector<bool>> decoded;
  check_structure(trace, cert, decoded);
  cert.require("lasso", trace.is_lasso(),
               "fragment witnesses must end in a repeating cycle");

  const std::size_t prefix_len = trace.prefix.size();
  for (std::size_t j = 0; j < duties.size(); ++j) {
    const FragmentDuty& duty = duties[j];
    // GF side: the target is hit somewhere on the cycle.
    bool gf_ok = false;
    if (!duty.gf.is_null()) {
      for (std::size_t k = prefix_len; k < decoded.size(); ++k) {
        if (!decoded[k].empty() && eval_on_state(duty.gf, decoded[k])) {
          gf_ok = true;
          break;
        }
      }
    }
    // FG side: the predicate is invariant on the cycle (nonempty cycle,
    // which the "lasso" obligation enforces separately).
    bool fg_ok = !duty.fg.is_null() && prefix_len < decoded.size();
    if (fg_ok) {
      for (std::size_t k = prefix_len; k < decoded.size(); ++k) {
        if (decoded[k].empty() || !eval_on_state(duty.fg, decoded[k])) {
          fg_ok = false;
          break;
        }
      }
    }
    cert.require("fragment[" + std::to_string(j) + "]", gf_ok || fg_ok,
                 "conjunct " + std::to_string(j) +
                     " needs its GF target on the cycle or its FG predicate "
                     "invariant there");
  }
  count_certificate(cert);
  return cert;
}

// ---------------------------------------------------------------------------
// Explicit-engine witnesses
// ---------------------------------------------------------------------------

namespace {

/// Shared structure pass over an explicit graph; returns the combined
/// state list (prefix then cycle) for the semantic passes.
std::vector<enumerative::StateId> check_explicit_structure(
    const enumerative::Graph& graph, const enumerative::FiniteWitness& w,
    Certificate& cert) {
  const std::size_t prefix_len = w.prefix.size();
  const std::size_t total = w.length();
  cert.require("trace-nonempty", total > 0);

  std::vector<enumerative::StateId> states;
  states.reserve(total);
  states.insert(states.end(), w.prefix.begin(), w.prefix.end());
  states.insert(states.end(), w.cycle.begin(), w.cycle.end());

  bool ids_ok = true;
  for (std::size_t k = 0; k < total; ++k) {
    if (states[k] >= graph.num_states()) ids_ok = false;
  }
  cert.require("state-ids", ids_ok, "every id must name a graph state");
  if (!ids_ok) return {};

  const auto has_edge = [&](enumerative::StateId a, enumerative::StateId b) {
    const auto& succ = graph.succ[a];
    return std::find(succ.begin(), succ.end(), b) != succ.end();
  };
  for (std::size_t k = 0; k + 1 < total; ++k) {
    cert.require("edge[" + std::to_string(k) + "]",
                 has_edge(states[k], states[k + 1]),
                 position(k, prefix_len) + " -> " + position(k + 1, prefix_len));
  }
  if (!w.cycle.empty()) {
    cert.require("cycle-closed", has_edge(states[total - 1], states[prefix_len]),
                 position(total - 1, prefix_len) + " -> cycle[0]");
  }
  return states;
}

bool in_set(const enumerative::StateSet& set, enumerative::StateId s) {
  return s < set.size() && set[s];
}

}  // namespace

Certificate certify_order_independence(ts::TransitionSystem& ts,
                                       const core::Trace& trace) {
  TraceCertifier certifier(ts);
  Certificate cert;
  const Certificate before = certifier.certify_path(trace);
  cert.require("path-before-reorder", before.ok(),
               before.ok() ? "" : before.first_failure()->name + ": " +
                                      before.first_failure()->detail);
  const std::string rendering = trace.to_string(ts);
  // Force a full sifting pass (not just the growth trigger): the point is
  // to observe the trace under a genuinely different level permutation.
  const bool reordered = ts.manager().reorder();
  cert.require("reorder-ran", reordered,
               reordered ? "" : "Manager::reorder() declined to run");
  const Certificate after = certifier.certify_path(trace);
  cert.require("path-after-reorder", after.ok(),
               after.ok() ? "" : after.first_failure()->name + ": " +
                                     after.first_failure()->detail);
  cert.require("rendering-stable", trace.to_string(ts) == rendering,
               "SMV-style rendering changed across the reorder");
  count_certificate(cert);
  return cert;
}

Certificate certify_explicit_path(const enumerative::Graph& graph,
                                  const enumerative::FiniteWitness& w) {
  Certificate cert;
  check_explicit_structure(graph, w, cert);
  count_certificate(cert);
  return cert;
}

Certificate certify_explicit_eg(const enumerative::Graph& graph,
                                const enumerative::FiniteWitness& w,
                                const enumerative::StateSet& f) {
  Certificate cert;
  const auto states = check_explicit_structure(graph, w, cert);
  cert.require("lasso", !w.cycle.empty(),
               "EG witnesses must end in a repeating cycle");
  const std::size_t prefix_len = w.prefix.size();
  for (std::size_t k = 0; k < states.size(); ++k) {
    cert.require("eg-invariant[" + std::to_string(k) + "]",
                 in_set(f, states[k]),
                 position(k, prefix_len) + " must satisfy f");
  }
  for (std::size_t j = 0; j < graph.fairness.size(); ++j) {
    bool visited = false;
    for (std::size_t k = prefix_len; k < states.size(); ++k) {
      if (in_set(graph.fairness[j], states[k])) {
        visited = true;
        break;
      }
    }
    cert.require("fairness[" + std::to_string(j) + "]", visited,
                 "fairness set " + std::to_string(j) +
                     " must be visited on the cycle");
  }
  count_certificate(cert);
  return cert;
}

Certificate certify_explicit_eu(const enumerative::Graph& graph,
                                const enumerative::FiniteWitness& w,
                                const enumerative::StateSet& f,
                                const enumerative::StateSet& g) {
  Certificate cert;
  const auto states = check_explicit_structure(graph, w, cert);
  const std::size_t prefix_len = w.prefix.size();
  std::size_t target = states.size();
  for (std::size_t k = 0; k < states.size(); ++k) {
    if (in_set(g, states[k])) {
      target = k;
      break;
    }
  }
  cert.require("eu-target", target < states.size(),
               "some state must satisfy g");
  for (std::size_t k = 0; k < target; ++k) {
    cert.require("eu-invariant[" + std::to_string(k) + "]",
                 in_set(f, states[k]),
                 position(k, prefix_len) + " must satisfy f before the g-state");
  }
  count_certificate(cert);
  return cert;
}

}  // namespace symcex::certify
