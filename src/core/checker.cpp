#include "core/checker.hpp"

#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "diag/metrics.hpp"

namespace symcex::core {

Checker::Checker(ts::TransitionSystem& ts, const CheckOptions& options)
    : ts_(ts),
      options_(options),
      context_(ts, options.image_method, options.use_care_set),
      coi_requested_(options.coi.value_or(diag::env_flag("SYMCEX_COI"))) {
  if (!ts.finalized()) {
    throw std::invalid_argument("Checker: transition system not finalized");
  }
  if (options.reorder.has_value()) {
    ts.manager().set_auto_reorder(*options.reorder);
  }
}

// ---------------------------------------------------------------------------
// Cone of influence (DESIGN.md §12)
// ---------------------------------------------------------------------------

namespace {

/// Resolve every atom of `f` to its state set (the cone seeds).  Unknown
/// atoms are skipped here: states_enf reports them with its own error.
void collect_atom_seeds(const Checker& checker, const ctl::Formula::Ptr& f,
                        std::vector<bdd::Bdd>* out) {
  if (f == nullptr) return;
  if (f->kind() == ctl::Kind::kAtom) {
    try {
      out->push_back(checker.resolve_atom(f->name()));
    } catch (const std::invalid_argument&) {
      // fall through to the checker's own diagnostics
    }
    return;
  }
  collect_atom_seeds(checker, f->lhs(), out);
  collect_atom_seeds(checker, f->rhs(), out);
}

}  // namespace

void Checker::prepare(const ctl::Formula::Ptr& f) {
  if (!coi_requested_) return;
  std::vector<bdd::Bdd> seeds;
  collect_atom_seeds(*this, f, &seeds);
  prepare(seeds);
}

void Checker::prepare(const std::vector<bdd::Bdd>& seeds) {
  if (!coi_requested_) return;
  if (coi_seed_vars_.empty()) {
    coi_seed_vars_.assign(ts_.num_state_vars(), false);
  }
  bool grew = false;
  for (const bdd::Bdd& s : seeds) {
    if (s.is_null()) continue;
    bool adds = false;
    for (const std::uint32_t b : s.support()) {
      const ts::VarId v = b / 2;
      if (v < coi_seed_vars_.size() && !coi_seed_vars_[v]) {
        coi_seed_vars_[v] = true;
        adds = true;
      }
    }
    // Keep only seeds that widened the variable set: the cone closure
    // reads supports, so a support-subsumed predicate adds nothing.
    if (adds) coi_seeds_.push_back(s);
    grew = grew || adds;
  }
  if (coi_prepared_ && !grew) return;  // cone unchanged since last install
  coi_prepared_ = true;

  if (depgraph_ == nullptr) {
    depgraph_ =
        std::make_unique<analyze::DepGraph>(analyze::build_dep_graph(ts_));
  }
  analyze::Cone cone = analyze::cone_of_influence(ts_, *depgraph_, coi_seeds_);
  if (reduction_ != nullptr && cone.dropped == reduction_->cone().dropped) {
    return;  // the grown seeds landed inside the existing cone
  }
  const bool had_reduction = reduction_ != nullptr;
  if (!cone.reduces()) {
    reduction_.reset();
    context_.set_reduction(nullptr);
  } else {
    const std::size_t full_clusters = ts_.trans_clusters().size();
    reduction_ =
        std::make_unique<analyze::Reduction>(ts_, std::move(cone), *depgraph_);
    context_.set_reduction(reduction_.get());
    if (diag::enabled()) {
      auto& r = diag::Registry::global();
      const auto& c = reduction_->cone();
      r.add_in("analyze", "coi_installs", 1);
      r.add_in("analyze", "coi_vars_dropped", c.dropped.size());
      const std::size_t reduced = reduction_->clusters().size();
      r.add_in("analyze", "coi_clusters_dropped",
               full_clusters > reduced ? full_clusters - reduced : 0);
    }
  }
  if (had_reduction || reduction_ != nullptr) {
    // Results memoized under a different relation view are not reusable:
    // each check must run entirely under one reduction.
    memo_.clear();
    faireg_memo_.clear();
    fair_ = bdd::Bdd();
  }
}

// ---------------------------------------------------------------------------
// Formula level
// ---------------------------------------------------------------------------

bdd::Bdd Checker::resolve_atom(const std::string& name) const {
  if (const auto label = ts_.label(name)) return *label;
  if (const auto v = ts_.find_var(name)) return ts_.cur(*v);
  throw std::invalid_argument("Checker: unknown atomic proposition '" + name +
                              "'");
}

bdd::Bdd Checker::states(const ctl::Formula::Ptr& f) {
  if (!ctl::is_ctl(f)) {
    throw std::invalid_argument(
        "Checker::states: not a CTL formula (use ctlstar::Checker for the "
        "restricted CTL* fragment): " +
        ctl::to_string(f));
  }
  prepare(f);
  const diag::PhaseScope phase("check");
  return states_enf(ctl::to_existential_normal_form(f));
}

bdd::Bdd Checker::states_enf(const ctl::Formula::Ptr& f) {
  using ctl::Kind;
  if (const auto it = memo_.find(f); it != memo_.end()) return it->second;
  bdd::Bdd result;
  switch (f->kind()) {
    case Kind::kTrue:
      result = ts_.manager().one();
      break;
    case Kind::kFalse:
      result = ts_.manager().zero();
      break;
    case Kind::kAtom:
      result = resolve_atom(f->name());
      break;
    case Kind::kNot:
      result = !states_enf(f->lhs());
      break;
    case Kind::kAnd:
      result = states_enf(f->lhs()) & states_enf(f->rhs());
      break;
    case Kind::kOr:
      result = states_enf(f->lhs()) | states_enf(f->rhs());
      break;
    case Kind::kXor:
      result = states_enf(f->lhs()) ^ states_enf(f->rhs());
      break;
    case Kind::kEX: {
      const bdd::Bdd arg = states_enf(f->lhs());
      const diag::PhaseScope op_phase("ex");
      result = ex(arg);
      break;
    }
    case Kind::kEU: {
      const bdd::Bdd lhs = states_enf(f->lhs());
      const bdd::Bdd rhs = states_enf(f->rhs());
      const diag::PhaseScope op_phase("eu");
      result = eu(lhs, rhs);
      break;
    }
    case Kind::kEG: {
      const bdd::Bdd arg = states_enf(f->lhs());
      const diag::PhaseScope op_phase("eg");
      result = eg(arg);
      break;
    }
    default:
      // to_existential_normal_form eliminates every other kind.
      throw std::logic_error("Checker::states_enf: unexpected node kind");
  }
  memo_.emplace(f, result);
  return result;
}

bool Checker::holds(const ctl::Formula::Ptr& f) {
  return ts_.init().implies(states(f));
}

bool Checker::holds(const std::string& formula_text) {
  return holds(ctl::parse(formula_text));
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kTrue:
      return "true";
    case Verdict::kFalse:
      return "false";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "?";
}

CheckOutcome Checker::check(const ctl::Formula::Ptr& f) {
  return run_checkpointed(f, [this, &f](CheckOutcome& out) {
    out.verdict = holds(f) ? Verdict::kTrue : Verdict::kFalse;
  });
}

CheckOutcome Checker::check(const std::string& formula_text) {
  return check(ctl::parse(formula_text));
}

// ---------------------------------------------------------------------------
// Crash-safe checkpoints (DESIGN.md §13)
// ---------------------------------------------------------------------------

CheckOutcome Checker::run_checkpointed(
    const ctl::Formula::Ptr& spec,
    const std::function<void(CheckOutcome&)>& body) {
  bdd::Manager& mgr = ts_.manager();
  const std::string dir = options_.checkpoint_dir.empty()
                              ? persist::default_checkpoint_dir()
                              : options_.checkpoint_dir;
  CheckOutcome out;
  mgr.clear_salvaged_frontiers();
  // With a deadline installed, snapshot once shortly before it expires:
  // the hook fires from Manager::checkpoint() mid-fixpoint, while the
  // running loops' guards hold their live frontiers.
  std::string margin_path;
  std::optional<guard::ScopedCheckpointHook> margin_hook;
  if (!dir.empty()) {
    margin_hook.emplace([&] {
      margin_path = write_checkpoint(dir, spec, mgr.budget_spent(),
                                     /*include_live=*/true);
    });
  }
  try {
    body(out);
    // A known verdict needs no resume point.
    if (!margin_path.empty()) std::remove(margin_path.c_str());
  } catch (const guard::ResourceExhausted& e) {
    // The bdd layer already unwound to an audit-clean state; report the
    // abort as a three-valued unknown.  fair_ and the memo only ever hold
    // completed results, so a rerun under a raised budget is correct.
    out.verdict = Verdict::kUnknown;
    out.exhausted = e.resource();
    out.reason = e.what();
    out.spent = e.spent();
    // Durable form of the recoverable abort: the salvaged frontiers (and
    // any completed sets) go to disk.  If this write fails, fall back to
    // whatever the margin hook saved.
    if (!dir.empty()) {
      out.checkpoint_path =
          write_checkpoint(dir, spec, e.spent(), /*include_live=*/false);
    }
    if (out.checkpoint_path.empty()) out.checkpoint_path = margin_path;
    diag::Registry::global().add_in("guard",
                                    std::string("unknown.") +
                                        guard::resource_name(e.resource()),
                                    1);
  }
  mgr.clear_salvaged_frontiers();
  return out;
}

std::string Checker::write_checkpoint(const std::string& dir,
                                      const ctl::Formula::Ptr& spec,
                                      const guard::BudgetSpent& spent,
                                      bool include_live) {
  const bdd::Manager& mgr = ts_.manager();
  persist::CheckSnapshotInput input;
  input.system = &ts_;
  input.model_name = options_.model_name;
  input.spec = spec;
  input.image_method = static_cast<std::uint8_t>(context_.method());
  input.use_care_set = context_.care_requested();
  input.coi = coi_requested_;
  input.reorder = mgr.auto_reorder();
  input.spent = spent;
  if (ts_.reachable_computed()) input.reachable = ts_.reachable();
  input.fair = fair_;
  input.frontiers = mgr.salvaged_frontiers();
  if (include_live) {
    for (bdd::Frontier& f : mgr.live_frontiers()) {
      input.frontiers.push_back(std::move(f));
    }
  }
  const std::string path =
      dir + "/" +
      persist::checkpoint_basename(options_.model_name, ctl::to_string(spec),
                                   ts_.fingerprint());
  try {
    persist::save_check_snapshot(path, input);
  } catch (const std::exception&) {
    // A failed checkpoint (disk full, injected io fault) must not mask
    // the check verdict; the caller simply gets no resume point.
    return {};
  }
  return path;
}

void Checker::seed_fair(const bdd::Bdd& fair) { fair_ = fair; }

// ---------------------------------------------------------------------------
// Plain CTL primitives
// ---------------------------------------------------------------------------

bdd::Bdd Checker::ex_raw(const bdd::Bdd& f) {
  ++stats_.preimage_calls;
  return context_.preimage(f);
}

bdd::Bdd Checker::eu_raw(const bdd::Bdd& f, const bdd::Bdd& g) {
  const bool diag_on = diag::enabled();
  bdd::FixpointGuard fixpoint_guard(ts_.manager(), "eu", {f, g});
  bdd::Bdd z = g;
  if (const bdd::Frontier* seed = fixpoint_guard.resumed()) z = seed->z;
  for (;;) {
    fixpoint_guard.tick(z);
    ++stats_.eu_iterations;
    if (diag_on) diag::Registry::global().add("fixpoint.eu_iterations");
    const bdd::Bdd znew = g | (f & ex_raw(z));
    if (znew == z) return z;
    z = znew;
  }
}

std::vector<bdd::Bdd> Checker::eu_rings(const bdd::Bdd& f, const bdd::Bdd& g) {
  const bool diag_on = diag::enabled();
  std::vector<bdd::Bdd> rings{g};
  bdd::FixpointGuard fixpoint_guard(ts_.manager(), "eu_rings", {f, g},
                                    &rings);
  if (bdd::Frontier* seed = fixpoint_guard.resumed()) {
    rings = std::move(seed->rings);
  }
  for (;;) {
    fixpoint_guard.tick(rings.back());
    ++stats_.eu_iterations;
    if (diag_on) diag::Registry::global().add("fixpoint.eu_iterations");
    const bdd::Bdd znew = g | (f & ex_raw(rings.back()));
    if (znew == rings.back()) return rings;
    rings.push_back(znew);
  }
}

bdd::Bdd Checker::eg_raw(const bdd::Bdd& f) {
  const bool diag_on = diag::enabled();
  bdd::FixpointGuard fixpoint_guard(ts_.manager(), "eg", {f});
  bdd::Bdd z = f;
  if (const bdd::Frontier* seed = fixpoint_guard.resumed()) z = seed->z;
  for (;;) {
    fixpoint_guard.tick(z);
    ++stats_.eg_iterations;
    if (diag_on) diag::Registry::global().add("fixpoint.eg_iterations");
    const bdd::Bdd znew = f & ex_raw(z);
    if (znew == z) return z;
    z = znew;
  }
}

// ---------------------------------------------------------------------------
// Fairness-aware primitives
// ---------------------------------------------------------------------------

const bdd::Bdd& Checker::fair_states() {
  if (fair_.is_null()) {
    const diag::PhaseScope phase("fair");
    if (ts_.fairness().empty()) {
      fair_ = eg_raw(ts_.manager().one());
    } else {
      fair_ = eg(ts_.manager().one());
    }
  }
  return fair_;
}

bdd::Bdd Checker::ex(const bdd::Bdd& f) {
  // Intersecting with fair even when no constraints are declared keeps the
  // "paths are infinite" CTL semantics on systems with deadlocked states
  // (fair is then simply EG true) and keeps verdicts aligned with the
  // witness generator.
  return ex_raw(f & fair_states());
}

bdd::Bdd Checker::eu(const bdd::Bdd& f, const bdd::Bdd& g) {
  return eu_raw(f, g & fair_states());
}

bdd::Bdd Checker::eg(const bdd::Bdd& f) {
  if (ts_.fairness().empty()) return eg_raw(f);
  // Route through eg_with_rings: the FairEG memo then serves a later
  // witness request (check-then-explain) from this one fair-EG fixpoint
  // instead of recomputing it.
  return eg_with_rings(f).states;
}

FairEG Checker::eg_with_rings(const bdd::Bdd& f) {
  std::vector<bdd::Bdd> constraints = ts_.fairness();
  return eg_with_rings(f, std::move(constraints));
}

FairEG Checker::eg_with_rings(const bdd::Bdd& f,
                              std::vector<bdd::Bdd> constraints) {
  if (constraints.empty()) {
    // Section 6's construction needs at least one ring family; with no
    // fairness the single constraint "true" makes EG f the special case.
    constraints.push_back(ts_.manager().one());
  }
  for (const FairEGEntry& entry : faireg_memo_) {
    if (entry.f == f && entry.constraints == constraints) {
      ++stats_.faireg_reuse_hits;
      if (diag::enabled()) {
        diag::Registry::global().add("checker.faireg_reuse");
      }
      return entry.result;
    }
  }
  // Outer greatest fixpoint.
  const bool diag_on = diag::enabled();
  std::vector<bdd::Bdd> outer_ops{f};
  outer_ops.insert(outer_ops.end(), constraints.begin(), constraints.end());
  bdd::FixpointGuard fixpoint_guard(ts_.manager(), "fair_eg_rings",
                                    std::move(outer_ops));
  bdd::Bdd z = f;
  if (const bdd::Frontier* seed = fixpoint_guard.resumed()) z = seed->z;
  for (;;) {
    fixpoint_guard.tick(z);
    ++stats_.eg_iterations;
    if (diag_on) diag::Registry::global().add("fixpoint.eg_iterations");
    bdd::Bdd znew = f;
    for (const auto& h : constraints) {
      znew &= ex_raw(eu_raw(f, z & h));
      if (znew.is_false()) break;
    }
    if (znew == z) break;
    z = znew;
  }
  // Final pass with Z fixed: save the approximation sequences Q_i^h.
  const diag::PhaseScope rings_phase("rings");
  FairEG out;
  out.states = z;
  out.constraints = std::move(constraints);
  out.rings.reserve(out.constraints.size());
  for (const auto& h : out.constraints) {
    out.rings.push_back(eu_rings(f, z & h));
  }
  faireg_memo_.push_back(FairEGEntry{f, out.constraints, out});
  return out;
}

// ---------------------------------------------------------------------------
// Resume (DESIGN.md §13)
// ---------------------------------------------------------------------------

ResumedCheck resume_check(const std::string& path, const CheckOptions& extra) {
  // `out` is declared first so it is destroyed last: once it owns the
  // system, `snap`'s handles must die before their manager on every path.
  ResumedCheck out;
  persist::CheckSnapshot snap = persist::load_check_snapshot(path);
  if (snap.image_method >
      static_cast<std::uint8_t>(ts::ImageMethod::kPartitioned)) {
    throw persist::SnapshotError(
        "meta", "unknown image method " + std::to_string(snap.image_method));
  }
  out.system = std::move(snap.system);
  out.spec = snap.spec;
  out.formula = snap.formula;
  out.model_name = snap.model_name;
  out.prior_spent = snap.spent;

  // Completed sets install before anything runs; every interrupted
  // frontier stages on the manager for the loop whose guard matches it.
  if (!snap.reachable.is_null()) out.system->install_reachable(snap.reachable);
  out.system->manager().stage_frontiers(std::move(snap.frontiers));

  CheckOptions opts = extra;
  opts.image_method = static_cast<ts::ImageMethod>(snap.image_method);
  opts.use_care_set = snap.use_care_set;
  opts.coi = snap.coi;
  opts.reorder = snap.reorder;
  opts.model_name = snap.model_name;
  out.checker = std::make_unique<Checker>(*out.system, opts);
  if (!snap.fair.is_null()) out.checker->seed_fair(snap.fair);
  return out;
}

}  // namespace symcex::core
