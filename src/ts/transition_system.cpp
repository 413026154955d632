#include "ts/transition_system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

#include "diag/metrics.hpp"
#include "fnv1a.hpp"

namespace symcex::ts {

namespace {

/// SYMCEX_CLUSTER_THRESHOLD, or 4096 DAG nodes when unset/unparseable.
std::size_t default_cluster_threshold() {
  constexpr std::size_t kDefault = 4096;
  const char* env = std::getenv("SYMCEX_CLUSTER_THRESHOLD");
  if (env == nullptr || *env == '\0') return kDefault;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return kDefault;
  return static_cast<std::size_t>(value);
}

}  // namespace

TransitionSystem::TransitionSystem() : TransitionSystem(bdd::ManagerOptions{}) {}

TransitionSystem::TransitionSystem(const bdd::ManagerOptions& options)
    : mgr_(std::make_unique<bdd::Manager>(0, options)),
      cluster_threshold_(default_cluster_threshold()) {
  init_ = mgr_->one();
}

void TransitionSystem::set_cluster_threshold(std::size_t max_dag_nodes) {
  require_open("set_cluster_threshold");
  cluster_threshold_ = max_dag_nodes;
}

void TransitionSystem::require_open(const char* what) const {
  if (finalized_) {
    throw std::logic_error(std::string("TransitionSystem::") + what +
                           ": structure already finalized");
  }
}

void TransitionSystem::require_finalized(const char* what) const {
  if (!finalized_) {
    throw std::logic_error(std::string("TransitionSystem::") + what +
                           ": finalize() has not been called");
  }
}

VarId TransitionSystem::add_var(const std::string& name) {
  require_open("add_var");
  if (name.empty()) {
    throw std::invalid_argument("TransitionSystem::add_var: empty name");
  }
  if (by_name_.contains(name)) {
    throw std::invalid_argument("TransitionSystem::add_var: duplicate name '" +
                                name + "'");
  }
  const auto v = static_cast<VarId>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, v);
  // Interleaved rails: BDD var 2v is current, 2v+1 is next.  The pair is
  // registered as a reorder group, so dynamic reordering moves it as a
  // block and the rails stay interleaved (the image/preimage kernels
  // Manager::rel_next / rel_prev rely on this).
  const std::uint32_t c = mgr_->new_var();
  const std::uint32_t n = mgr_->new_var();
  mgr_->group_vars({c, n});
  return v;
}

std::vector<VarId> TransitionSystem::add_vector(const std::string& name,
                                                std::uint32_t width) {
  std::vector<VarId> out;
  out.reserve(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    out.push_back(add_var(name + "." + std::to_string(i)));
  }
  return out;
}

void TransitionSystem::set_init(const bdd::Bdd& init) {
  require_open("set_init");
  init_ = init;
}

void TransitionSystem::add_trans(const bdd::Bdd& part) {
  require_open("add_trans");
  parts_.push_back(part);
}

void TransitionSystem::add_fairness(const bdd::Bdd& constraint) {
  require_open("add_fairness");
  fairness_.push_back(constraint);
}

void TransitionSystem::add_label(const std::string& name,
                                 const bdd::Bdd& states) {
  require_open("add_label");
  if (!labels_.emplace(name, states).second) {
    throw std::invalid_argument(
        "TransitionSystem::add_label: duplicate label '" + name + "'");
  }
}

const std::string& TransitionSystem::var_name(VarId v) const {
  if (v >= names_.size()) {
    throw std::invalid_argument("TransitionSystem::var_name: bad VarId");
  }
  return names_[v];
}

std::optional<VarId> TransitionSystem::find_var(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

bdd::Bdd TransitionSystem::cur(VarId v) const {
  if (v >= names_.size()) {
    throw std::invalid_argument("TransitionSystem::cur: bad VarId");
  }
  return mgr_->var(2 * v);
}

bdd::Bdd TransitionSystem::next(VarId v) const {
  if (v >= names_.size()) {
    throw std::invalid_argument("TransitionSystem::next: bad VarId");
  }
  return mgr_->var(2 * v + 1);
}

void TransitionSystem::finalize() {
  if (finalized_) return;
  if (parts_.empty()) {
    throw std::logic_error(
        "TransitionSystem::finalize: no transition relation");
  }
  // Every image and preimage runs on Manager::rel_next / rel_prev, which
  // emit a variable at its twin's level: each (2v, 2v+1) pair must be one
  // reorder group at adjacent levels.  add_var guarantees it; check once.
  std::vector<std::uint32_t> curs;
  std::vector<std::uint32_t> nexts;
  for (VarId v = 0; v < names_.size(); ++v) {
    const std::uint32_t c = 2 * v;
    const std::uint32_t lc = mgr_->level_of_var(c);
    const std::uint32_t ln = mgr_->level_of_var(c + 1);
    if (mgr_->var_group(c) != mgr_->var_group(c + 1) ||
        (lc + 1 != ln && ln + 1 != lc)) {
      throw std::logic_error("TransitionSystem::finalize: rails of '" +
                             names_[v] + "' are not an adjacent pair group");
    }
    curs.push_back(c);
    nexts.push_back(c + 1);
  }
  finalized_ = true;
  cur_cube_ = mgr_->cube(curs);
  next_cube_ = mgr_->cube(nexts);

  // Merge the conjunctive partition into size-thresholded clusters: walk
  // the parts in insertion order and conjoin into the current cluster while
  // the product stays under the threshold.  Insertion order is kept (model
  // builders emit related conjuncts adjacently), so the early-quantification
  // schedule recomputed over clusters stays as tight as the per-part one.
  clusters_.clear();
  std::size_t max_cluster_dag = 0;
  for (const auto& p : parts_) {
    if (!clusters_.empty() && cluster_threshold_ > 0) {
      const bdd::Bdd merged = clusters_.back() & p;
      if (merged.dag_size() <= cluster_threshold_) {
        clusters_.back() = merged;
        max_cluster_dag = std::max(max_cluster_dag, merged.dag_size());
        continue;
      }
    }
    clusters_.push_back(p);
    max_cluster_dag = std::max(max_cluster_dag, p.dag_size());
  }
  build_schedules();
  // With reordering enabled, sift once over the fully built structure:
  // cluster merging just produced the session's big relations, so this is
  // the cheapest point to shrink them before the fixpoints begin.
  if (mgr_->auto_reorder()) (void)mgr_->reorder();
  if (diag::enabled()) {
    auto& r = diag::Registry::global();
    r.gauge_set_in("ts", "parts", static_cast<double>(parts_.size()));
    r.gauge_set_in("ts", "clusters", static_cast<double>(clusters_.size()));
    r.gauge_set_in("ts", "cluster_threshold",
                   static_cast<double>(cluster_threshold_));
    r.gauge_set_in("ts", "cluster_max_dag",
                   static_cast<double>(max_cluster_dag));
  }
  if (bdd::audits_enabled()) audit();
}

std::uint64_t TransitionSystem::fingerprint() const {
  require_finalized("fingerprint");
  Fnv1a h;
  const auto mix_str = [&](const std::string& s) {
    h.le(s.size());
    h.bytes(s);
  };
  const auto mix_support = [&](const bdd::Bdd& f) {
    if (f.is_null()) {
      h.le(0xffffffffffffffffull);
      return;
    }
    const std::vector<std::uint32_t> support = f.support();
    h.le(support.size());
    for (const std::uint32_t v : support) h.le(v);
    h.le(f.is_false() ? 1 : (f.is_true() ? 2 : 3));
  };
  h.le(names_.size());
  for (const std::string& name : names_) mix_str(name);
  h.le(cluster_threshold_);
  mix_support(init_);
  h.le(parts_.size());
  for (const bdd::Bdd& part : parts_) mix_support(part);
  h.le(fairness_.size());
  for (const bdd::Bdd& constraint : fairness_) mix_support(constraint);
  std::vector<std::string> label_names;
  label_names.reserve(labels_.size());
  for (const auto& [name, unused] : labels_) label_names.push_back(name);
  std::sort(label_names.begin(), label_names.end());
  h.le(label_names.size());
  for (const std::string& name : label_names) {
    mix_str(name);
    mix_support(labels_.at(name));
  }
  return h.value();
}

void TransitionSystem::audit() const {
  diag::Registry::global().add_in("ts", "audit_runs", 1);
  const std::string report = audit_check();
  if (!report.empty()) {
    diag::Registry::global().add_in("ts", "audit_failures", 1);
    throw std::logic_error(report);
  }
}

std::string TransitionSystem::audit_check() const {
  const auto fail = [](const std::string& what) {
    return "TransitionSystem::audit: " + what;
  };
  if (!finalized_) return fail("finalize() has not been called");
  const std::size_t n = names_.size();

  // -- rail discipline -------------------------------------------------------
  if (cur_cube_.support().size() != n || !on_rail(cur_cube_, 0)) {
    return fail("current-rail cube is not exactly the even variables");
  }
  if (next_cube_.support().size() != n || !on_rail(next_cube_, 1)) {
    return fail("next-rail cube is not exactly the odd variables");
  }
  // Dynamic reordering may permute pairs against each other, but each
  // current/next pair must stay adjacent (current on top) and grouped, or
  // the rel_next / rel_prev kernels would emit misordered nodes.
  for (VarId v = 0; v < n; ++v) {
    const std::uint32_t c = 2 * static_cast<std::uint32_t>(v);
    if (mgr_->level_of_var(c) + 1 != mgr_->level_of_var(c + 1)) {
      return fail("state variable " + std::to_string(v) +
                  ": current/next rails are not at adjacent levels");
    }
    if (mgr_->var_group(c) != mgr_->var_group(c + 1)) {
      return fail("state variable " + std::to_string(v) +
                  ": current/next rails are not in one reorder group");
    }
  }

  // -- support containment ---------------------------------------------------
  if (!init_.is_null() && !on_rail(init_, 0)) {
    return fail("initial states depend on non-current-rail variables");
  }
  for (const auto& [name, set] : labels_) {
    if (!on_rail(set, 0)) {
      return fail("label '" + name + "' depends on non-current-rail variables");
    }
  }
  for (std::size_t k = 0; k < fairness_.size(); ++k) {
    if (!on_rail(fairness_[k], 0)) {
      return fail("fairness constraint " + std::to_string(k) +
                  " depends on non-current-rail variables");
    }
  }
  for (std::size_t k = 0; k < parts_.size(); ++k) {
    const auto support = parts_[k].support();
    if (!std::all_of(support.begin(), support.end(),
                     [&](std::uint32_t v) { return v < 2 * n; })) {
      return fail("transition part " + std::to_string(k) +
                  " depends on variables outside both rails");
    }
  }

  // -- rail-move round-trip --------------------------------------------------
  if (!init_.is_null() && unprime(prime(init_)) != init_) {
    return fail("prime/unprime round-trip changes the initial states");
  }

  // -- partitioned/monolithic agreement --------------------------------------
  {
    bdd::Bdd product = mgr_->one();
    for (const auto& p : parts_) product &= p;
    if (product != trans()) {
      return fail("cached monolithic relation disagrees with the partition");
    }
    bdd::Bdd cluster_product = mgr_->one();
    for (const auto& c : clusters_) cluster_product &= c;
    if (cluster_product != product) {
      return fail("clustered relation disagrees with the raw partition");
    }
  }
  if (clusters_.empty() || clusters_.size() > parts_.size()) {
    return fail("cluster count out of range");
  }
  if (img_sched_.size() != clusters_.size() ||
      pre_sched_.size() != clusters_.size()) {
    return fail("quantification schedule length disagrees with the clusters");
  }
  if (!init_.is_null()) {
    // Probe with the initial states and their one-step image (not the full
    // reachable fixpoint, so finalize-time audits stay cheap).
    const bdd::Bdd step = image(init_, ImageMethod::kMonolithic);
    for (const bdd::Bdd& probe : {init_, step}) {
      if (image(probe, ImageMethod::kMonolithic) !=
          image(probe, ImageMethod::kPartitioned)) {
        return fail("monolithic and partitioned image disagree");
      }
      if (preimage(probe, ImageMethod::kMonolithic) !=
          preimage(probe, ImageMethod::kPartitioned)) {
        return fail("monolithic and partitioned preimage disagree");
      }
    }
  }
  return "";
}

void TransitionSystem::build_schedules() {
  // For the image sweep over clusters_ in order, current-rail variable x may
  // be quantified at step i if no cluster j > i depends on it.  Variables in
  // no cluster at all go into the step-0 cube.  Symmetric for preimage/next
  // rail.
  const std::size_t k = clusters_.size();
  std::vector<std::vector<std::uint32_t>> img_vars(k);
  std::vector<std::vector<std::uint32_t>> pre_vars(k);
  std::vector<std::size_t> last_cur(2 * names_.size(), 0);
  std::vector<std::size_t> last_next(2 * names_.size(), 0);
  std::vector<bool> seen_cur(2 * names_.size(), false);
  std::vector<bool> seen_next(2 * names_.size(), false);
  for (std::size_t i = 0; i < k; ++i) {
    for (const std::uint32_t x : clusters_[i].support()) {
      if (x % 2 == 0) {
        last_cur[x] = i;
        seen_cur[x] = true;
      } else {
        last_next[x] = i;
        seen_next[x] = true;
      }
    }
  }
  for (VarId v = 0; v < names_.size(); ++v) {
    const std::uint32_t c = 2 * v;
    const std::uint32_t n = 2 * v + 1;
    img_vars[seen_cur[c] ? last_cur[c] : 0].push_back(c);
    pre_vars[seen_next[n] ? last_next[n] : 0].push_back(n);
  }
  img_sched_.clear();
  pre_sched_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    img_sched_.push_back(mgr_->cube(img_vars[i]));
    pre_sched_.push_back(mgr_->cube(pre_vars[i]));
  }
}

std::optional<bdd::Bdd> TransitionSystem::label(const std::string& name) const {
  const auto it = labels_.find(name);
  if (it == labels_.end()) return std::nullopt;
  return it->second;
}

const bdd::Bdd& TransitionSystem::trans() const {
  require_finalized("trans");
  if (trans_.is_null()) {
    bdd::Bdd acc = mgr_->one();
    for (const auto& p : parts_) acc &= p;
    trans_ = acc;
  }
  return trans_;
}

const bdd::Bdd& TransitionSystem::cur_cube() const {
  require_finalized("cur_cube");
  return cur_cube_;
}

const bdd::Bdd& TransitionSystem::next_cube() const {
  require_finalized("next_cube");
  return next_cube_;
}

bool TransitionSystem::on_rail(const bdd::Bdd& f, std::uint32_t parity) const {
  const std::size_t n = names_.size();
  const std::vector<std::uint32_t> support = f.support();
  return std::all_of(support.begin(), support.end(), [&](std::uint32_t v) {
    return v < 2 * n && v % 2 == parity;
  });
}

bdd::Bdd TransitionSystem::prime(const bdd::Bdd& f) const {
  require_finalized("prime");
  if (!on_rail(f, 0)) {
    throw std::invalid_argument(
        "TransitionSystem::prime: operand leaves the current rail");
  }
  return mgr_->rel_prev(f, mgr_->one(), mgr_->one());
}

bdd::Bdd TransitionSystem::unprime(const bdd::Bdd& f) const {
  require_finalized("unprime");
  if (!on_rail(f, 1)) {
    throw std::invalid_argument(
        "TransitionSystem::unprime: operand leaves the next rail");
  }
  return mgr_->rel_next(f, mgr_->one(), mgr_->one());
}

bdd::Bdd TransitionSystem::image(const bdd::Bdd& states, ImageMethod method,
                                 const DontCare* care) const {
  require_finalized("image");
  const bool diag_on = diag::enabled();
  diag::TimerScope timer("image.time");
  // The image operand is never simplified: a care-restricted relation can
  // invent successors only for non-care current states, which the contract
  // (states implies care->set) excludes, but junk inside the operand would
  // land inside the care set.  See DESIGN.md §9.
  if (method == ImageMethod::kMonolithic ||
      (clusters_.size() == 1 && care == nullptr)) {
    const bdd::Bdd& rel = care != nullptr ? care->trans : trans();
    const bdd::Bdd result = mgr_->rel_next(states, rel, cur_cube_);
    if (diag_on) {
      auto& r = diag::Registry::global();
      r.add("image.calls");
      r.add("image.monolithic.calls");
      r.add("image.sweep_steps");
      r.gauge_set("image.peak_dag", static_cast<double>(result.dag_size()));
    }
    return result;
  }
  const std::vector<bdd::Bdd>& rels =
      care != nullptr ? care->clusters : clusters_;
  bdd::Bdd acc = states;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < rels.size(); ++i) {
    // The last cluster quantifies the remaining current rail and lands the
    // successors on it in the same recursion.
    acc = i + 1 < rels.size() ? mgr_->and_exists(acc, rels[i], img_sched_[i])
                              : mgr_->rel_next(acc, rels[i], img_sched_[i]);
    if (diag_on) peak = std::max(peak, acc.dag_size());
  }
  if (diag_on) {
    auto& r = diag::Registry::global();
    r.add("image.calls");
    r.add("image.partitioned.calls");
    r.add("image.sweep_steps", rels.size());
    r.gauge_set("image.peak_dag", static_cast<double>(peak));
  }
  return acc;
}

bdd::Bdd TransitionSystem::preimage(const bdd::Bdd& states, ImageMethod method,
                                    const DontCare* care) const {
  require_finalized("preimage");
  const bool diag_on = diag::enabled();
  diag::TimerScope timer("preimage.time");
  bdd::Bdd operand = states;
  if (care != nullptr) {
    // Fixpoint operands only ever matter on the care set: minimize shrinks
    // the BDD while preserving the function there (kept only when it
    // actually shrinks -- Coudert-Madre restrict can occasionally grow).
    const bdd::Bdd reduced = operand.minimize(care->set);
    if (diag_on) {
      auto& r = diag::Registry::global();
      r.add("preimage.care.calls");
      if (reduced.dag_size() < operand.dag_size()) {
        r.add("preimage.care.operand_nodes_saved",
              operand.dag_size() - reduced.dag_size());
      }
    }
    if (reduced.dag_size() < operand.dag_size()) operand = reduced;
  }
  if (method == ImageMethod::kMonolithic ||
      (clusters_.size() == 1 && care == nullptr)) {
    const bdd::Bdd& rel = care != nullptr ? care->trans : trans();
    bdd::Bdd result = mgr_->rel_prev(operand, rel, next_cube_);
    if (care != nullptr) result &= care->set;
    if (diag_on) {
      auto& r = diag::Registry::global();
      r.add("preimage.calls");
      r.add("preimage.monolithic.calls");
      r.add("preimage.sweep_steps");
      r.gauge_set("preimage.peak_dag", static_cast<double>(result.dag_size()));
    }
    return result;
  }
  const std::vector<bdd::Bdd>& rels =
      care != nullptr ? care->clusters : clusters_;
  bdd::Bdd acc = operand;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < rels.size(); ++i) {
    // The first cluster reads the operand on the next rail.
    acc = i == 0 ? mgr_->rel_prev(acc, rels[i], pre_sched_[i])
                 : mgr_->and_exists(acc, rels[i], pre_sched_[i]);
    if (care != nullptr && i + 1 < rels.size()) {
      // The preimage sweep quantifies next-rail variables only, so the
      // accumulator's current-rail rows outside the care set are dead
      // weight; minimizing them is sound (the final & care->set pins the
      // semantics) and keeps intermediate products small.
      const bdd::Bdd reduced = acc.minimize(care->set);
      if (reduced.dag_size() < acc.dag_size()) acc = reduced;
    }
    if (diag_on) peak = std::max(peak, acc.dag_size());
  }
  if (care != nullptr) acc &= care->set;
  if (diag_on) {
    auto& r = diag::Registry::global();
    r.add("preimage.calls");
    r.add("preimage.partitioned.calls");
    r.add("preimage.sweep_steps", rels.size());
    r.gauge_set("preimage.peak_dag", static_cast<double>(peak));
  }
  return acc;
}

const bdd::Bdd& TransitionSystem::reachable() const {
  require_finalized("reachable");
  if (reachable_.is_null()) {
    const diag::PhaseScope phase("reach");
    const diag::TimerScope timer("reach.time");
    const bool diag_on = diag::enabled();
    bdd::Bdd reached = init_;
    std::vector<bdd::Bdd> frontier{init_};  // the record's one ring
    // On exhaustion reachable_ stays null and the guard leaves the last
    // completed iterate in the manager's salvaged records, for a
    // checkpoint to save.  An in-process rerun starts over from init;
    // only a staged record (snapshot resume) continues from an iterate.
    bdd::FixpointGuard fixpoint_guard(*mgr_, "reachable", {}, &frontier);
    if (bdd::Frontier* seed = fixpoint_guard.resumed()) {
      if (seed->rings.size() != 1) {
        throw std::invalid_argument(
            "TransitionSystem::reachable: staged frontier needs one ring");
      }
      // The seed is one of this fixpoint's own iterates, so the
      // remaining computation is identical to what the interrupted run
      // would have done -- same frontiers, same final set.
      reached = seed->z;
      frontier = std::move(seed->rings);
    }
    while (!frontier[0].is_false()) {
      fixpoint_guard.tick(reached);
      if (diag_on) diag::Registry::global().add("reach.iterations");
      // Assign the ring last: an exception from the image or the union
      // leaves the published {reached, frontier} pair consistent.
      const bdd::Bdd next = image(frontier[0]) - reached;
      reached |= next;
      frontier[0] = next;
    }
    reachable_ = reached;
    if (diag_on) {
      diag::Registry::global().gauge_set(
          "reach.dag_size", static_cast<double>(reachable_.dag_size()));
    }
  }
  return reachable_;
}

void TransitionSystem::install_reachable(const bdd::Bdd& reached) {
  require_finalized("install_reachable");
  if (reached.is_null()) {
    throw std::invalid_argument(
        "TransitionSystem::install_reachable: null set");
  }
  if (!init_.implies(reached)) {
    throw std::invalid_argument(
        "TransitionSystem::install_reachable: init not contained in the set");
  }
  reachable_ = reached;
}

double TransitionSystem::count_states(const bdd::Bdd& set) const {
  // States live on the current rail: count over the n current variables by
  // quantifying nothing and halving out the absent next rail.
  const auto n = static_cast<std::uint32_t>(names_.size());
  // sat_count over all 2n BDD vars counts each state 2^n times (the next
  // rail is unconstrained), so count over the even rail only.  ldexp (not
  // pow) keeps the scaling exact and finite for n > 1023; note sat_count
  // itself saturates, so huge systems yield a clamped approximation.
  return std::ldexp(set.sat_count(2 * n), -static_cast<int>(n));
}

bdd::Bdd TransitionSystem::pick_state(const bdd::Bdd& set) const {
  require_finalized("pick_state");
  std::vector<std::uint32_t> curs;
  curs.reserve(names_.size());
  for (VarId v = 0; v < names_.size(); ++v) curs.push_back(2 * v);
  return mgr_->pick_one_minterm(set, curs);
}

std::vector<bool> TransitionSystem::state_values(const bdd::Bdd& state) const {
  std::vector<bool> out(names_.size());
  for (VarId v = 0; v < names_.size(); ++v) {
    const bdd::Bdd with_true = state & cur(v);
    out[v] = !with_true.is_false();
  }
  return out;
}

std::string TransitionSystem::state_string(const bdd::Bdd& state,
                                           const bdd::Bdd& diff_from) const {
  const std::vector<bool> vals = state_values(state);
  std::vector<bool> prev;
  if (!diff_from.is_null()) prev = state_values(diff_from);
  std::string out;
  for (VarId v = 0; v < names_.size(); ++v) {
    if (!prev.empty() && prev[v] == vals[v]) continue;
    if (!out.empty()) out += ' ';
    out += names_[v] + '=' + (vals[v] ? '1' : '0');
  }
  if (out.empty()) out = "(unchanged)";
  return out;
}

void TransitionSystem::dump_state_graph(
    std::ostream& os, std::size_t max_states,
    const std::vector<bdd::Bdd>& highlight) const {
  require_finalized("dump_state_graph");
  // Enumerate the reachable states breadth-first.
  std::vector<bdd::Bdd> states;
  std::map<bdd::Bdd, std::size_t> ids;
  bdd::Bdd pending = init();
  std::vector<std::size_t> queue;
  auto intern = [&](const bdd::Bdd& s) {
    const auto it = ids.find(s);
    if (it != ids.end()) return it->second;
    if (states.size() >= max_states) {
      throw std::length_error(
          "dump_state_graph: more reachable states than max_states");
    }
    const std::size_t id = states.size();
    states.push_back(s);
    ids.emplace(s, id);
    queue.push_back(id);
    return id;
  };
  while (!pending.is_false()) {
    const bdd::Bdd s = pick_state(pending);
    pending -= s;
    (void)intern(s);
  }
  const std::size_t num_init = states.size();

  os << "digraph states {\n  rankdir=LR;\n  node [shape=circle];\n";
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    bdd::Bdd img = image(states[u]);
    while (!img.is_false()) {
      const bdd::Bdd t = pick_state(img);
      img -= t;
      const std::size_t v = intern(t);
      os << "  s" << u << " -> s" << v << ";\n";
    }
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    bool lit = false;
    for (const auto& h : highlight) lit = lit || states[i].intersects(h);
    os << "  s" << i << " [label=\"" << bdd::dot_escape(state_string(states[i]))
       << "\"";
    if (i < num_init) os << ",peripheries=2";
    if (lit) os << ",style=filled,fillcolor=lightgrey";
    os << "];\n";
  }
  os << "}\n";
}

bool TransitionSystem::is_total_on(const bdd::Bdd& states) const {
  require_finalized("is_total_on");
  // A state is stuck iff it has no successor: states - EX(true) non-empty.
  const bdd::Bdd has_succ = preimage(mgr_->one());
  return (states - has_succ).is_false();
}

}  // namespace symcex::ts
