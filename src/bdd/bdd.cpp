#include "bdd/bdd.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <exception>
#include <limits>
#include <new>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include <sys/mman.h>

#include "diag/metrics.hpp"
#include "guard/config.hpp"
#include "guard/fault.hpp"

namespace symcex::bdd {

namespace {

/// Mixes three 32-bit words into a table index seed (Jenkins-style).
std::size_t hash3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  std::uint64_t x = (static_cast<std::uint64_t>(a) << 32) ^ b;
  x ^= static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 32;
  return static_cast<std::size_t>(x);
}

constexpr std::uint32_t kMaxRefs = std::numeric_limits<std::uint32_t>::max();

std::atomic<bool>& audits_flag() {
#ifndef NDEBUG
  constexpr bool kDefault = true;  // debug builds audit after every GC
#else
  constexpr bool kDefault = false;
#endif
  static std::atomic<bool> flag{kDefault || config::current().audit};
  return flag;
}

}  // namespace

bool audits_enabled() {
  return audits_flag().load(std::memory_order_relaxed);
}

void set_audits_enabled(bool on) {
  audits_flag().store(on, std::memory_order_relaxed);
}

const char* apply_op_name(ApplyOp op) {
  switch (op) {
    case ApplyOp::kNot:
      return "not";
    case ApplyOp::kAnd:
      return "and";
    case ApplyOp::kOr:
      return "or";
    case ApplyOp::kXor:
      return "xor";
    case ApplyOp::kIte:
      return "ite";
    case ApplyOp::kExists:
      return "exists";
    case ApplyOp::kAndExists:
      return "and_exists";
    case ApplyOp::kConstrain:
      return "constrain";
    case ApplyOp::kRestrictMin:
      return "restrict_min";
    case ApplyOp::kRestrictVar:
      return "restrict_var";
    case ApplyOp::kCompose:
      return "compose";
    case ApplyOp::kRelNext:
      return "rel_next";
    case ApplyOp::kRelPrev:
      return "rel_prev";
    case ApplyOp::kCount:
      break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(Manager* mgr, std::uint32_t idx) : mgr_(mgr), idx_(idx) {
  mgr_->handle_ref(idx_);
}

Bdd::Bdd(const Bdd& other) : mgr_(other.mgr_), idx_(other.idx_) {
  if (mgr_ != nullptr) mgr_->handle_ref(idx_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
  other.mgr_ = nullptr;
  other.idx_ = 0;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  if (other.mgr_ != nullptr) other.mgr_->handle_ref(other.idx_);
  if (mgr_ != nullptr) mgr_->handle_deref(idx_);
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr) mgr_->handle_deref(idx_);
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  other.mgr_ = nullptr;
  other.idx_ = 0;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_ != nullptr) mgr_->handle_deref(idx_);
}

bool Bdd::is_true() const { return mgr_ != nullptr && idx_ == Manager::kTrue; }
bool Bdd::is_false() const {
  return mgr_ != nullptr && idx_ == Manager::kFalse;
}

Bdd Bdd::operator!() const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  return mgr_->run_apply(ApplyOp::kNot, [&] { return mgr_->not_rec(idx_); });
}

Bdd Bdd::operator&(const Bdd& g) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  mgr_->check_mine(g, "operator&");
  return mgr_->run_apply(ApplyOp::kAnd,
                         [&] { return mgr_->and_rec(idx_, g.idx_); });
}

Bdd Bdd::operator|(const Bdd& g) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  mgr_->check_mine(g, "operator|");
  return mgr_->run_apply(ApplyOp::kOr,
                         [&] { return mgr_->or_rec(idx_, g.idx_); });
}

Bdd Bdd::operator^(const Bdd& g) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  mgr_->check_mine(g, "operator^");
  return mgr_->run_apply(ApplyOp::kXor,
                         [&] { return mgr_->xor_rec(idx_, g.idx_); });
}

Bdd Bdd::exists(const Bdd& cube) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  mgr_->check_mine(cube, "exists");
  return mgr_->run_apply(ApplyOp::kExists,
                         [&] { return mgr_->exists_rec(idx_, cube.idx_); });
}

Bdd Bdd::forall(const Bdd& cube) const {
  // forall x. f  ==  !exists x. !f
  return !(!*this).exists(cube);
}

Bdd Bdd::constrain(const Bdd& care) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  mgr_->check_mine(care, "constrain");
  if (care.is_false()) {
    throw std::invalid_argument("Bdd::constrain: empty care set");
  }
  return mgr_->run_apply(ApplyOp::kConstrain, [&] {
    return mgr_->constrain_rec(idx_, care.idx_);
  });
}

Bdd Bdd::minimize(const Bdd& care) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  mgr_->check_mine(care, "minimize");
  if (care.is_false()) {
    throw std::invalid_argument("Bdd::minimize: empty care set");
  }
  return mgr_->run_apply(ApplyOp::kRestrictMin, [&] {
    return mgr_->restrict_min_rec(idx_, care.idx_);
  });
}

Bdd Bdd::compose(std::uint32_t var, const Bdd& g) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  mgr_->check_mine(g, "compose");
  return mgr_->run_apply(ApplyOp::kCompose, [&] {
    return mgr_->compose_rec(idx_, var, g.idx_);
  });
}

Bdd Bdd::restrict_var(std::uint32_t var, bool value) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  // The memo lives inside the kernel closure so an exhaustion retry
  // starts from a clean (post-GC) slate.
  return mgr_->run_apply(ApplyOp::kRestrictVar, [&] {
    std::unordered_map<std::uint32_t, std::uint32_t> memo;
    return mgr_->restrict_rec(idx_, var, value, memo);
  });
}

std::size_t Bdd::dag_size() const {
  if (mgr_ == nullptr) return 0;
  std::unordered_set<std::uint32_t> seen;
  std::vector<std::uint32_t> stack{idx_};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    if (mgr_->level(n) != Manager::kTermVar) {
      stack.push_back(mgr_->nodes_[n].lo);
      stack.push_back(mgr_->nodes_[n].hi);
    }
  }
  return seen.size();
}

std::vector<std::uint32_t> Bdd::support() const {
  if (mgr_ == nullptr) return {};
  std::unordered_set<std::uint32_t> seen;
  std::unordered_set<std::uint32_t> vars;
  std::vector<std::uint32_t> stack{idx_};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    if (mgr_->level(n) == Manager::kTermVar) continue;
    vars.insert(mgr_->nodes_[n].var);
    stack.push_back(mgr_->nodes_[n].lo);
    stack.push_back(mgr_->nodes_[n].hi);
  }
  std::vector<std::uint32_t> out(vars.begin(), vars.end());
  std::sort(out.begin(), out.end());
  return out;
}

double Bdd::sat_count(std::uint32_t num_vars) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  // Saturating arithmetic: counts that exceed the double range clamp to
  // kSaturated instead of overflowing to infinity (which a naive
  // `memo * std::pow(2.0, skipped)` does from ~1024 free variables up,
  // poisoning everything downstream -- count_states, restart bounds).
  // ldexp is exact below the saturation point, so small counts keep their
  // integer-exact values.
  constexpr double kSaturated = std::numeric_limits<double>::max();
  const auto mul_pow2 = [](double x, std::int64_t k) {
    if (x == 0.0) return 0.0;
    k = std::clamp<std::int64_t>(k, -8192, 8192);
    const double r = std::ldexp(x, static_cast<int>(k));
    return std::isinf(r) ? kSaturated : r;
  };
  const auto sat_add = [](double a, double b) {
    const double r = a + b;
    return std::isinf(r) ? kSaturated : r;
  };
  // count(n) = number of assignments to variables strictly below n's level.
  // The recursion walks LEVELS (order-independent: a function's count does
  // not depend on the variable order), first over the manager's own
  // variable universe; the result is rescaled to the requested `num_vars`
  // universe at the end.
  const auto mgr_vars = static_cast<std::uint32_t>(mgr_->num_vars_);
  std::unordered_map<std::uint32_t, double> memo;
  // Iterative post-order to avoid deep recursion on wide functions.
  struct Frame {
    std::uint32_t node;
    bool expanded;
  };
  std::vector<Frame> stack{{idx_, false}};
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    if (memo.contains(n)) continue;
    if (mgr_->level(n) == Manager::kTermVar) {
      memo[n] = (n == Manager::kTrue) ? 1.0 : 0.0;
      continue;
    }
    const auto& nd = mgr_->nodes_[n];
    if (!expanded) {
      stack.push_back({n, true});
      stack.push_back({nd.lo, false});
      stack.push_back({nd.hi, false});
      continue;
    }
    auto weight = [&](std::uint32_t child) {
      const std::uint32_t child_level =
          mgr_->level(child) == Manager::kTermVar ? mgr_vars
                                                  : mgr_->level(child);
      const std::uint32_t skipped = child_level - mgr_->level(n) - 1;
      return mul_pow2(memo.at(child), skipped);
    };
    memo[n] = sat_add(weight(nd.lo), weight(nd.hi));
  }
  const std::uint32_t top_level =
      mgr_->level(idx_) == Manager::kTermVar ? mgr_vars : mgr_->level(idx_);
  const double over_mgr = mul_pow2(memo.at(idx_), top_level);
  // Each requested variable beyond the manager's doubles the count; each
  // manager variable beyond the requested universe (necessarily outside
  // the support) halves it back out.  ldexp keeps both directions exact.
  return mul_pow2(over_mgr, static_cast<std::int64_t>(num_vars) -
                                static_cast<std::int64_t>(mgr_vars));
}

bool Bdd::eval(const std::vector<bool>& assignment) const {
  if (mgr_ == nullptr) throw std::logic_error("Bdd: operation on null handle");
  std::uint32_t n = idx_;
  while (mgr_->level(n) != Manager::kTermVar) {
    const auto& nd = mgr_->nodes_[n];
    if (nd.var >= assignment.size()) {
      throw std::invalid_argument("Bdd::eval: assignment too short");
    }
    n = assignment[nd.var] ? nd.hi : nd.lo;
  }
  return n == Manager::kTrue;
}

std::string Bdd::cube_string(const std::vector<std::string>& names) const {
  if (mgr_ == nullptr) return "<null>";
  if (is_true()) return "true";
  if (is_false()) return "false";
  std::string out;
  std::uint32_t n = idx_;
  while (mgr_->level(n) != Manager::kTermVar) {
    const auto& nd = mgr_->nodes_[n];
    const bool positive = nd.lo == Manager::kFalse;
    const bool negative = nd.hi == Manager::kFalse;
    if (!positive && !negative) {
      throw std::invalid_argument("Bdd::cube_string: not a cube");
    }
    if (!out.empty()) out += " & ";
    if (negative) out += '!';
    if (nd.var < names.size() && !names[nd.var].empty()) {
      out += names[nd.var];
    } else {
      out += 'v';
      out += std::to_string(nd.var);
    }
    n = positive ? nd.hi : nd.lo;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Manager: construction and node plumbing
// ---------------------------------------------------------------------------

Manager::Manager(std::uint32_t num_vars, const ManagerOptions& options)
    : gc_threshold_(options.gc_threshold),
      auto_gc_(!options.disable_auto_gc) {
  nodes_.reserve(1u << 12);
  // Terminals occupy slots 0 (false) and 1 (true) and are never collected.
  nodes_.push_back({kTermVar, kFalse, kFalse, kNil, kMaxRefs});
  nodes_.push_back({kTermVar, kTrue, kTrue, kNil, kMaxRefs});
  live_nodes_ = 2;
  stats_.live_nodes = live_nodes_;
  stats_.peak_nodes = live_nodes_;
  buckets_.assign(1u << 12, kNil);
  // The computed cache starts small and grows with the live nodes (mk), so
  // a manager that stays small never pays for the ceiling's table.
  cache_max_slots_ = std::size_t{1} << options.cache_log2_size;
  cache_.assign(std::min(cache_max_slots_, std::size_t{1} << 12),
                CacheEntry{});
  for (std::uint32_t i = 0; i < num_vars; ++i) new_var();
  // Dynamic reordering is opt-in: SYMCEX_REORDER arms the growth trigger
  // for every manager; CheckOptions::reorder overrides per checker.
  auto_reorder_ = config::current().reorder;
  reorder_baseline_ = live_nodes_;
  // Every manager is born budgeted: the innermost guard::ScopedBudget, or
  // the configured default (SYMCEX_NODE_LIMIT, ...).  This is how
  // budgets reach managers libraries construct privately, e.g. the product
  // manager inside automata::check_containment.
  install_budget(guard::ScopedBudget::current());
  // Live source: exports snapshot this manager's stats while it is alive.
  diag_source_id_ = diag::Registry::global().register_source(
      [this](diag::Registry& r) { fold_stats_into_diag(r); });
}

Manager::~Manager() {
  // Frontier records hold handles into this manager: release them while
  // the node table still exists.
  salvaged_.clear();
  staged_.clear();
  // Retire: fold the final numbers into the registry permanently so the
  // at-exit report still accounts for managers destroyed before it runs.
  auto& registry = diag::Registry::global();
  if (diag::enabled()) fold_stats_into_diag(registry);
  registry.unregister_source(diag_source_id_);
}

void Manager::fold_stats_into_diag(diag::Registry& r) const {
  constexpr std::string_view kPhase = "bdd";
  r.add_in(kPhase, "gc_runs", stats_.gc_runs);
  r.add_in(kPhase, "gc_reclaimed", stats_.gc_reclaimed);
  r.add_in(kPhase, "cache_clears", stats_.cache_clears);
  r.add_in(kPhase, "table_growths", stats_.table_growths);
  r.add_in(kPhase, "cache_growths", stats_.cache_growths);
  r.add_in(kPhase, "unique_hits", stats_.unique_hits);
  r.add_in(kPhase, "unique_misses", stats_.unique_misses);
  r.add_in(kPhase, "cache_hits", stats_.cache_hits);
  r.add_in(kPhase, "cache_lookups", stats_.cache_lookups);
  r.add_in(kPhase, "soft_gc_runs", stats_.soft_gc_runs);
  r.add_in(kPhase, "budget_aborts", stats_.budget_aborts);
  r.add_in(kPhase, "exhaust_retries", stats_.exhaust_retries);
  r.add_in(kPhase, "node_limit_hits", stats_.node_limit_hits);
  r.add_in(kPhase, "alloc_failures", stats_.alloc_failures);
  if (stats_.gc_runs > 0) {
    r.timer_add_in(kPhase, "gc_pause", stats_.gc_pause_ns, stats_.gc_runs);
  }
  if (stats_.reorder_runs > 0 || stats_.reorder_swaps > 0) {
    r.add_in(kPhase, "reorder_runs", stats_.reorder_runs);
    r.add_in(kPhase, "reorder_swaps", stats_.reorder_swaps);
    r.add_in(kPhase, "reorder_aborts", stats_.reorder_aborts);
    r.gauge_set_in(kPhase, "reorder_nodes_before",
                   static_cast<double>(stats_.reorder_nodes_before));
    r.gauge_set_in(kPhase, "reorder_nodes_after",
                   static_cast<double>(stats_.reorder_nodes_after));
    if (stats_.reorder_runs > 0) {
      r.timer_add_in(kPhase, "reorder_time", stats_.reorder_time_ns,
                     stats_.reorder_runs);
    }
  }
  r.gauge_set_in(kPhase, "peak_nodes",
                 static_cast<double>(stats_.peak_nodes));
  for (std::size_t i = 0; i < kNumApplyOps; ++i) {
    if (stats_.apply_calls[i] == 0) continue;
    r.add_in(kPhase,
             std::string("apply.") +
                 apply_op_name(static_cast<ApplyOp>(i)),
             stats_.apply_calls[i]);
  }
}

Bdd Manager::one() { return wrap(kTrue); }
Bdd Manager::zero() { return wrap(kFalse); }

std::uint32_t Manager::new_var() {
  const auto v = static_cast<std::uint32_t>(num_vars_);
  ++num_vars_;
  // A fresh variable joins at the bottom of the order, in its own
  // singleton reorder group; var2level stays a bijection by construction.
  var2level_.push_back(v);
  level2var_.push_back(v);
  group_of_.push_back(v);
  return v;
}

Bdd Manager::var(std::uint32_t v) {
  if (v >= num_vars_) throw std::invalid_argument("Manager::var: unknown var");
  return wrap(mk(v, kFalse, kTrue));
}

Bdd Manager::nvar(std::uint32_t v) {
  if (v >= num_vars_) {
    throw std::invalid_argument("Manager::nvar: unknown var");
  }
  return wrap(mk(v, kTrue, kFalse));
}

std::size_t Manager::bucket_of(std::uint32_t var, std::uint32_t lo,
                               std::uint32_t hi) const {
  return hash3(var, lo, hi) & (buckets_.size() - 1);
}

std::uint32_t Manager::mk(std::uint32_t var, std::uint32_t lo,
                          std::uint32_t hi) {
  if (lo == hi) return lo;  // reduction rule
  const std::size_t b = bucket_of(var, lo, hi);
  for (std::uint32_t n = buckets_[b]; n != kNil; n = nodes_[n].next) {
    const Node& nd = nodes_[n];
    if (nd.var == var && nd.lo == lo && nd.hi == hi) {
      ++stats_.unique_hits;
      return n;
    }
  }
  ++stats_.unique_misses;
  // The hard ceiling is suspended inside a reorder session: sifting must
  // never throw out of mk (transient growth there is bounded by the
  // sifter's own max-growth rule and rolled back).
  if (node_hard_limit_ != 0 && live_nodes_ >= node_hard_limit_ &&
      !order_session_) {
    // Hard ceiling: GC cannot run here (the caller's kernel holds raw
    // zero-ref indices on the C++ stack), so throw; run_apply reclaims
    // the aborted kernel's orphans, flushes the cache and retries once.
    ++stats_.node_limit_hits;
    throw guard::NodeLimitExceeded(
        "Manager::mk: live-node limit (" +
            std::to_string(node_hard_limit_) + ") exceeded",
        budget_spent());
  }
  std::uint32_t idx;
  if (!free_list_.empty()) {
    idx = free_list_.back();
    free_list_.pop_back();
  } else {
    // Reserve-before-link: secure capacity before touching any shared
    // structure, so a failed reallocation cannot leave a half-inserted
    // node.  A bad_alloc surfaces as AllocationFailed, which run_apply
    // answers with a GC and one retry.
    try {
      // Fault site "mk": the Nth fresh node allocation fails, exercising
      // the GC-and-retry-once protocol below exactly as a real bad_alloc
      // would.
      if (guard::fault_fire(guard::FaultKind::kAlloc, "mk")) {
        throw std::bad_alloc{};
      }
      if (nodes_.size() == nodes_.capacity()) {
        nodes_.reserve(nodes_.capacity() * 2);
      }
      nodes_.push_back(Node{});
    } catch (const std::bad_alloc&) {
      ++stats_.alloc_failures;
      throw guard::AllocationFailed("Manager::mk: node table growth failed",
                                    budget_spent());
    }
    idx = static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  ref(lo);
  ref(hi);
  Node& nd = nodes_[idx];
  nd.var = var;
  nd.lo = lo;
  nd.hi = hi;
  nd.refs = 0;
  nd.next = buckets_[b];
  buckets_[b] = idx;
  ++live_nodes_;
  stats_.live_nodes = live_nodes_;
  stats_.peak_nodes = std::max(stats_.peak_nodes, live_nodes_);
  if (live_nodes_ > 4 * buckets_.size()) grow_table();
  if (live_nodes_ > cache_.size() && cache_.size() < cache_max_slots_) {
    grow_cache();
  }
  return idx;
}

void Manager::grow_cache() {
  const std::size_t size = cache_.size();
  try {
    // Fault site "cache": the Nth growth fails before anything is freed.
    if (guard::fault_fire(guard::FaultKind::kAlloc, "cache")) {
      throw std::bad_alloc{};
    }
    // Free first, so a growth never holds two tables at once.  Growing in
    // the middle of a kernel is safe: the cache is a pure memo, so the
    // kernel only loses hits.
    std::vector<CacheEntry, CacheAllocator>().swap(cache_);
    cache_.assign(2 * size, CacheEntry{});
    ++stats_.cache_growths;
  } catch (const std::bad_alloc&) {
    // Keep the current size from now on: mk must not throw for a table
    // whose loss costs only hits.  A real failure re-takes the block it
    // just released.
    ++stats_.alloc_failures;
    cache_max_slots_ = size;
    if (cache_.empty()) cache_.assign(size, CacheEntry{});
  }
}

void Manager::grow_table() {
  const std::size_t new_size = buckets_.size() * 2;
  std::vector<std::uint32_t> fresh;
  try {
    if (guard::fault_fire(guard::FaultKind::kAlloc, "table")) {
      throw std::bad_alloc{};
    }
    fresh.assign(new_size, kNil);
  } catch (const std::bad_alloc&) {
    // Growth only shortens chains; under allocation pressure keep the
    // current table (longer chains, still correct) and let the node /
    // memory budget machinery handle the real exhaustion.
    ++stats_.alloc_failures;
    return;
  }
  ++stats_.table_growths;
  buckets_.swap(fresh);
  for (std::uint32_t n = 2; n < nodes_.size(); ++n) {
    Node& nd = nodes_[n];
    if (nd.var == kFreeVar || nd.var == kTermVar) continue;
    const std::size_t b = bucket_of(nd.var, nd.lo, nd.hi);
    nd.next = buckets_[b];
    buckets_[b] = n;
  }
}

void Manager::ref(std::uint32_t idx) {
  Node& nd = nodes_[idx];
  if (nd.refs != kMaxRefs) ++nd.refs;
}

void Manager::deref(std::uint32_t idx) {
  Node& nd = nodes_[idx];
  assert(nd.refs > 0);
  if (nd.refs != kMaxRefs) --nd.refs;
}

void Manager::handle_ref(std::uint32_t idx) {
  ref(idx);
  ++external_handles_;
}

void Manager::handle_deref(std::uint32_t idx) {
  deref(idx);
  assert(external_handles_ > 0);
  --external_handles_;
}

void Manager::maybe_collect() {
  maybe_auto_reorder();
  if (node_soft_limit_ != 0 && live_nodes_ >= node_soft_limit_ &&
      live_nodes_ > last_soft_gc_live_) {
    // Budget pressure: collect (and flush the computed cache) before the
    // hard limit can fire mid-kernel.  last_soft_gc_live_ keeps an
    // ineffective collection from repeating until the heap grows again.
    // Deliberately independent of disable_auto_gc: a budget asks for
    // graceful degradation even in managers tuned for deterministic GC.
    ++stats_.soft_gc_runs;
    gc();
    last_soft_gc_live_ = live_nodes_;
    return;
  }
  if (!auto_gc_ || live_nodes_ < gc_threshold_) return;
  gc();
  // If the heap is still mostly live, raise the bar so we do not thrash.
  if (live_nodes_ > gc_threshold_ / 2) gc_threshold_ *= 2;
}

void Manager::maybe_auto_reorder() {
  // Growth watermark: live nodes at least doubled since the last reorder
  // (and cleared a small floor, so tiny managers never bother).  Only at
  // top level -- maybe_collect runs before kernels, never inside them.
  if (!auto_reorder_ || in_reorder_ || order_session_ || depth_ != 0 ||
      num_vars_ < 2) {
    return;
  }
  if (live_nodes_ < std::max(2 * reorder_baseline_, kReorderFloor)) return;
  (void)reorder();
}

void Manager::flush_cache() {
  for (auto& e : cache_) e.valid = false;
  ++stats_.cache_clears;
}

void Manager::gc() {
  const std::uint64_t t0 = diag::monotonic_ns();
  // The computed cache may reference dead nodes: drop it wholesale.
  flush_cache();

  std::vector<std::uint32_t> dead;
  for (std::uint32_t n = 2; n < nodes_.size(); ++n) {
    if (nodes_[n].var != kFreeVar && nodes_[n].var != kTermVar &&
        nodes_[n].refs == 0) {
      dead.push_back(n);
    }
  }
  std::size_t reclaimed = 0;
  while (!dead.empty()) {
    const std::uint32_t n = dead.back();
    dead.pop_back();
    Node& nd = nodes_[n];
    if (nd.var == kFreeVar || nd.refs != 0) continue;  // resurrected / done
    unlink_node(n);
    // Release the children; newly-dead ones join the worklist.
    for (const std::uint32_t child : {nd.lo, nd.hi}) {
      deref(child);
      if (nodes_[child].refs == 0 && nodes_[child].var != kTermVar &&
          nodes_[child].var != kFreeVar) {
        dead.push_back(child);
      }
    }
    nd.var = kFreeVar;
    nd.next = kNil;
    free_list_.push_back(n);
    --live_nodes_;
    ++reclaimed;
  }
  ++stats_.gc_runs;
  stats_.gc_reclaimed += reclaimed;
  stats_.live_nodes = live_nodes_;
  const std::uint64_t pause_ns = diag::monotonic_ns() - t0;
  stats_.gc_pause_ns += pause_ns;
  // Attribute the pause to whatever phase triggered the collection.
  diag::Registry::global().timer_add("gc_pause", pause_ns);
  if (audits_enabled()) audit();
}

// ---------------------------------------------------------------------------
// Manager: dynamic variable ordering (primitives; policy lives in src/order)
// ---------------------------------------------------------------------------

std::uint32_t Manager::level_of_var(std::uint32_t v) const {
  if (v >= num_vars_) {
    throw std::invalid_argument("Manager::level_of_var: unknown var");
  }
  return var2level_[v];
}

std::uint32_t Manager::var_at_level(std::uint32_t lvl) const {
  if (lvl >= num_vars_) {
    throw std::invalid_argument("Manager::var_at_level: level out of range");
  }
  return level2var_[lvl];
}

void Manager::group_vars(const std::vector<std::uint32_t>& vars) {
  if (vars.size() < 2) return;  // a singleton group is the default
  for (const std::uint32_t v : vars) {
    if (v >= num_vars_) {
      throw std::invalid_argument("Manager::group_vars: unknown var");
    }
  }
  // The members must already sit at adjacent levels in the given order:
  // the group records "keep this block together", it does not move it.
  for (std::size_t i = 1; i < vars.size(); ++i) {
    if (var2level_[vars[i]] != var2level_[vars[i - 1]] + 1) {
      throw std::invalid_argument(
          "Manager::group_vars: members are not at adjacent levels");
    }
  }
  const std::uint32_t gid = *std::min_element(vars.begin(), vars.end());
  for (const std::uint32_t v : vars) group_of_[v] = gid;
}

std::uint32_t Manager::var_group(std::uint32_t v) const {
  if (v >= num_vars_) {
    throw std::invalid_argument("Manager::var_group: unknown var");
  }
  return group_of_[v];
}

std::vector<std::size_t> Manager::var_node_counts() const {
  std::vector<std::size_t> counts(num_vars_, 0);
  for (std::uint32_t n = 2; n < nodes_.size(); ++n) {
    if (nodes_[n].var < num_vars_) ++counts[nodes_[n].var];
  }
  return counts;
}

void Manager::unlink_node(std::uint32_t n) {
  const Node& nd = nodes_[n];
  const std::size_t b = bucket_of(nd.var, nd.lo, nd.hi);
  std::uint32_t* link = &buckets_[b];
  while (*link != n) link = &nodes_[*link].next;
  *link = nd.next;
}

void Manager::link_node(std::uint32_t n) {
  Node& nd = nodes_[n];
  const std::size_t b = bucket_of(nd.var, nd.lo, nd.hi);
  nd.next = buckets_[b];
  buckets_[b] = n;
}

void Manager::deref_reclaim(std::uint32_t idx) {
  deref(idx);
  std::vector<std::uint32_t> dead;
  if (nodes_[idx].refs == 0 && nodes_[idx].var != kTermVar &&
      nodes_[idx].var != kFreeVar) {
    dead.push_back(idx);
  }
  while (!dead.empty()) {
    const std::uint32_t n = dead.back();
    dead.pop_back();
    Node& nd = nodes_[n];
    if (nd.var == kFreeVar || nd.refs != 0) continue;
    unlink_node(n);
    for (const std::uint32_t child : {nd.lo, nd.hi}) {
      deref(child);
      if (nodes_[child].refs == 0 && nodes_[child].var != kTermVar &&
          nodes_[child].var != kFreeVar) {
        dead.push_back(child);
      }
    }
    nd.var = kFreeVar;
    nd.next = kNil;
    free_list_.push_back(n);
    --live_nodes_;
  }
  stats_.live_nodes = live_nodes_;
}

void Manager::swap_levels(std::uint32_t lvl) {
  if (lvl + 1 >= num_vars_) {
    throw std::invalid_argument("Manager::swap_levels: level out of range");
  }
  if (depth_ != 0) {
    throw std::logic_error("Manager::swap_levels: kernel active");
  }
  // Fault site "swap": exhaustion between block moves is how a budget
  // really interrupts sifting; probing before any mutation keeps the
  // injected failure at the same boundary.
  if (guard::fault_fire(guard::FaultKind::kAlloc, "swap")) {
    ++stats_.alloc_failures;
    throw guard::AllocationFailed(
        "Manager::swap_levels: injected allocation failure", budget_spent());
  }
  if (guard::fault_fire(guard::FaultKind::kDeadline, "swap")) {
    ++stats_.budget_aborts;
    throw guard::DeadlineExceeded("Manager::swap_levels: injected deadline",
                                  budget_spent());
  }
  const std::uint32_t x = level2var_[lvl];      // moves down to lvl + 1
  const std::uint32_t y = level2var_[lvl + 1];  // moves up to lvl
  // Only nodes of the upper variable can change shape.  Collect and
  // unlink them all before any rewrite: their triples are about to
  // change, and the mk() calls below must not find a pending node.
  std::vector<std::uint32_t> upper;
  for (std::uint32_t n = 2; n < static_cast<std::uint32_t>(nodes_.size());
       ++n) {
    if (nodes_[n].var == x) upper.push_back(n);
  }
  for (const std::uint32_t n : upper) unlink_node(n);
  // Flip the permutation first so mk() and level() see the new order.
  displaced_vars_ -= static_cast<std::size_t>(var2level_[x] != x) +
                     static_cast<std::size_t>(var2level_[y] != y);
  std::swap(var2level_[x], var2level_[y]);
  level2var_[lvl] = y;
  level2var_[lvl + 1] = x;
  displaced_vars_ += static_cast<std::size_t>(var2level_[x] != x) +
                     static_cast<std::size_t>(var2level_[y] != y);
  // Nodes with no y-child keep their triple (their cofactors do not
  // mention y, so x?hi:lo is unchanged); just relink them.  The rest are
  // rewritten in place -- same node index, so external handles and parent
  // links stay valid -- as y-nodes over fresh x-children.
  std::vector<std::uint32_t> rewrites;
  for (const std::uint32_t n : upper) {
    const Node& nd = nodes_[n];
    if (nodes_[nd.lo].var == y || nodes_[nd.hi].var == y) {
      rewrites.push_back(n);
    } else {
      link_node(n);
    }
  }
  for (const std::uint32_t n : rewrites) {
    const std::uint32_t f0 = nodes_[n].lo;
    const std::uint32_t f1 = nodes_[n].hi;
    // Cofactors w.r.t. y (copied out before mk() can reallocate nodes_).
    const bool lo_on_y = nodes_[f0].var == y;
    const bool hi_on_y = nodes_[f1].var == y;
    const std::uint32_t f00 = lo_on_y ? nodes_[f0].lo : f0;
    const std::uint32_t f01 = lo_on_y ? nodes_[f0].hi : f0;
    const std::uint32_t f10 = hi_on_y ? nodes_[f1].lo : f1;
    const std::uint32_t f11 = hi_on_y ? nodes_[f1].hi : f1;
    // new_lo/new_hi cannot be equal (that would make the original node
    // redundant), so the rewritten node is a genuine y-node.
    const std::uint32_t new_lo = mk(x, f00, f10);
    ref(new_lo);
    const std::uint32_t new_hi = mk(x, f01, f11);
    ref(new_hi);
    Node& nd = nodes_[n];
    nd.var = y;
    nd.lo = new_lo;
    nd.hi = new_hi;
    link_node(n);
    // The old children each lost a parent; reclaim any that died.  The
    // recursion only descends below y's old level, so pending rewrites
    // (all at x's old level, above) are never touched.
    deref_reclaim(f0);
    deref_reclaim(f1);
  }
  ++stats_.reorder_swaps;
  if (order_session_ && !restoring_order_ &&
      live_nodes_ < session_best_nodes_ && groups_contiguous()) {
    // Track the best order this session has seen, so an abort that skips
    // the sifter's own rollback can still restore it.  Orders where a
    // block move has a group temporarily split are never candidates: an
    // abort must not restore a layout the audit would reject.
    session_best_nodes_ = live_nodes_;
    session_best_order_ = level2var_;
  }
  if (!order_session_) {
    // Standalone swap: self-bracket.  Cache entries keyed on recycled
    // slots would be wrong, so flush; surviving entries would actually
    // still be valid (node indices keep their functions), but one flush
    // per explicit swap is cheap and simple.
    flush_cache();
    if (audits_enabled()) audit();
  }
}

void Manager::reorder_session_begin() {
  if (depth_ != 0) {
    throw std::logic_error("Manager::reorder_session_begin: kernel active");
  }
  if (order_session_) {
    throw std::logic_error("Manager::reorder_session_begin: already open");
  }
  // Collect first: swap_levels' eager reclamation relies on refcounts
  // being exact (refs == 0 <=> dead), which only a full GC guarantees.
  gc();
  order_session_ = true;
  session_best_order_ = level2var_;
  session_best_nodes_ = live_nodes_;
}

void Manager::reorder_session_end(bool audit_after) {
  if (!order_session_) return;
  order_session_ = false;
  session_best_order_.clear();
  session_best_nodes_ = 0;
  // Recycled slots may still be cached under stale keys: drop everything.
  flush_cache();
  if (audit_after && audits_enabled()) audit();
}

void Manager::abort_reorder_session() {
  if (!order_session_) return;
  // Exhaustion escaped mid-sift, so the sifter's cooperative rollback
  // never ran: the in-flight block sits at an arbitrary position and the
  // deferred cache flush is still pending.  Restore the best order this
  // session saw, then close the session normally (flush + audit).  Fault
  // probes are suspended: recovering from one injected failure must not
  // trip the next countdown.
  guard::FaultInjector::Suspend no_faults;
  if (!session_best_order_.empty() && session_best_order_ != level2var_) {
    restore_order(session_best_order_);
  }
  reorder_session_end();
}

bool Manager::groups_contiguous() const {
  // Per-group (min level, max level, member count); contiguous iff each
  // span is exactly as long as its membership.  Group ids are variable
  // indices, so flat arrays suffice.
  constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  std::vector<std::uint32_t> lo(num_vars_, kUnset), hi(num_vars_, 0),
      count(num_vars_, 0);
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    const std::uint32_t g = group_of_[v];
    const std::uint32_t l = var2level_[v];
    lo[g] = std::min(lo[g], l);
    hi[g] = std::max(hi[g], l);
    ++count[g];
  }
  for (std::uint32_t g = 0; g < num_vars_; ++g) {
    if (count[g] > 1 && hi[g] - lo[g] + 1 != count[g]) return false;
  }
  return true;
}

void Manager::restore_order(const std::vector<std::uint32_t>& target) {
  restoring_order_ = true;
  try {
    // Selection-sort by adjacent swaps: fix levels top-down; bubbling the
    // target variable up never disturbs the already-fixed prefix.
    for (std::uint32_t lvl = 0; lvl + 1 < num_vars_; ++lvl) {
      const std::uint32_t v = target[lvl];
      for (std::uint32_t cur = var2level_[v]; cur > lvl; --cur) {
        swap_levels(cur - 1);
      }
    }
  } catch (...) {
    restoring_order_ = false;
    throw;
  }
  restoring_order_ = false;
}

void Manager::set_auto_reorder(bool on) {
  auto_reorder_ = on;
  if (on) reorder_baseline_ = std::max<std::size_t>(live_nodes_, 2);
}

void Manager::audit() const {
  diag::Registry::global().add_in("bdd", "audit_runs", 1);
  std::string report = audit_check();
  if (!report.empty()) {
    diag::Registry::global().add_in("bdd", "audit_failures", 1);
    throw std::logic_error(report);
  }
}

std::string Manager::audit_check() const {
  std::ostringstream os;
  const auto fail = [&os](const std::string& what) {
    os << "Manager::audit: " << what;
    return os.str();
  };
  const std::size_t n_slots = nodes_.size();
  if (n_slots < 2 || nodes_[kFalse].var != kTermVar ||
      nodes_[kTrue].var != kTermVar) {
    return fail("terminal slots corrupted");
  }

  // -- classify slots, count live nodes, verify per-node shape --------------
  std::size_t live = 0;
  std::size_t freed = 0;
  for (std::uint32_t n = 0; n < n_slots; ++n) {
    const Node& nd = nodes_[n];
    if (nd.var == kFreeVar) {
      ++freed;
      continue;
    }
    ++live;
    if (nd.var == kTermVar) {
      if (n != kFalse && n != kTrue) {
        return fail("terminal marker on interior node " + std::to_string(n));
      }
      continue;
    }
    if (nd.var >= num_vars_) {
      return fail("node " + std::to_string(n) + " has unknown variable " +
                  std::to_string(nd.var));
    }
    if (nd.lo >= n_slots || nd.hi >= n_slots) {
      return fail("node " + std::to_string(n) + " has out-of-bounds child");
    }
    if (nodes_[nd.lo].var == kFreeVar || nodes_[nd.hi].var == kFreeVar) {
      return fail("node " + std::to_string(n) + " references a freed child");
    }
    if (nd.lo == nd.hi) {
      return fail("redundant node " + std::to_string(n) +
                  " (lo == hi survived mk)");
    }
    // Ordering: the children's LEVELS are strictly below under the current
    // variable order (kTermVar is the numeric maximum, so terminals always
    // satisfy this).
    if (level(n) >= level(nd.lo) || level(n) >= level(nd.hi)) {
      return fail("variable order violated at node " + std::to_string(n));
    }
  }
  if (live != live_nodes_) {
    return fail("live_nodes_ (" + std::to_string(live_nodes_) +
                ") disagrees with a fresh count (" + std::to_string(live) +
                ")");
  }

  // -- level maps ------------------------------------------------------------
  // var2level / level2var must be inverse bijections over [0, num_vars),
  // and every reorder group must occupy one contiguous run of levels.
  if (var2level_.size() != num_vars_ || level2var_.size() != num_vars_ ||
      group_of_.size() != num_vars_) {
    return fail("level maps have the wrong size");
  }
  {
    std::size_t displaced = 0;
    for (std::uint32_t v = 0; v < num_vars_; ++v) {
      if (var2level_[v] >= num_vars_) {
        return fail("var2level[" + std::to_string(v) + "] out of range");
      }
      if (level2var_[var2level_[v]] != v) {
        return fail("var2level / level2var are not inverse at variable " +
                    std::to_string(v));
      }
      if (var2level_[v] != v) ++displaced;
    }
    if (displaced != displaced_vars_) {
      return fail("displaced-variable count is stale");
    }
    std::unordered_map<std::uint32_t,
                       std::pair<std::uint32_t, std::uint32_t>>
        span;  // group id -> (min level, max level)
    std::unordered_map<std::uint32_t, std::uint32_t> members;
    for (std::uint32_t v = 0; v < num_vars_; ++v) {
      const std::uint32_t g = group_of_[v];
      const std::uint32_t l = var2level_[v];
      auto [it, fresh] = span.try_emplace(g, std::make_pair(l, l));
      if (!fresh) {
        it->second.first = std::min(it->second.first, l);
        it->second.second = std::max(it->second.second, l);
      }
      ++members[g];
    }
    for (const auto& [g, mm] : span) {
      if (mm.second - mm.first + 1 != members[g]) {
        return fail("reorder group " + std::to_string(g) +
                    " does not occupy contiguous levels");
      }
    }
  }

  // -- free-list consistency ------------------------------------------------
  if (free_list_.size() != freed) {
    return fail("free list size (" + std::to_string(free_list_.size()) +
                ") disagrees with freed slot count (" + std::to_string(freed) +
                ")");
  }
  {
    std::vector<bool> on_free_list(n_slots, false);
    for (const std::uint32_t n : free_list_) {
      if (n >= n_slots || nodes_[n].var != kFreeVar) {
        return fail("free list references live slot " + std::to_string(n));
      }
      if (on_free_list[n]) {
        return fail("free list holds slot " + std::to_string(n) + " twice");
      }
      on_free_list[n] = true;
    }
  }

  // -- unique-table canonicality --------------------------------------------
  // Every live non-terminal must be threaded in exactly its own bucket, and
  // the chains must cover all of them exactly once.
  {
    std::vector<bool> seen(n_slots, false);
    std::size_t chained = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      std::size_t steps = 0;
      for (std::uint32_t n = buckets_[b]; n != kNil; n = nodes_[n].next) {
        if (n >= n_slots || nodes_[n].var == kFreeVar ||
            nodes_[n].var == kTermVar) {
          return fail("bucket " + std::to_string(b) +
                      " chains a non-interior slot " + std::to_string(n));
        }
        if (seen[n]) {
          return fail("node " + std::to_string(n) +
                      " appears twice in the unique table");
        }
        seen[n] = true;
        if (bucket_of(nodes_[n].var, nodes_[n].lo, nodes_[n].hi) != b) {
          return fail("node " + std::to_string(n) + " is in the wrong bucket");
        }
        ++chained;
        if (++steps > live_nodes_) {
          return fail("cycle in bucket chain " + std::to_string(b));
        }
      }
    }
    if (chained != live - 2) {  // all live nodes except the two terminals
      return fail("unique table covers " + std::to_string(chained) +
                  " nodes, expected " + std::to_string(live - 2));
    }
  }
  {
    // No duplicate (var, lo, hi): hash-consing must be airtight.
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
        triples;
    triples.reserve(live);
    for (std::uint32_t n = 2; n < n_slots; ++n) {
      const Node& nd = nodes_[n];
      if (nd.var == kFreeVar || nd.var == kTermVar) continue;
      triples.emplace_back(nd.var, nd.lo, nd.hi);
    }
    std::sort(triples.begin(), triples.end());
    if (std::adjacent_find(triples.begin(), triples.end()) != triples.end()) {
      return fail("duplicate (var, lo, hi) node in the unique table");
    }
  }

  // -- refcount census -------------------------------------------------------
  // Each node's count covers its internal parents; the surplus across all
  // unsaturated nodes is what external Bdd handles contribute, so it cannot
  // exceed the census the handle lifecycle maintains.  (Handles on
  // saturated nodes -- e.g. the terminals -- are invisible here, hence <=.)
  {
    std::vector<std::uint32_t> parents(n_slots, 0);
    for (std::uint32_t n = 2; n < n_slots; ++n) {
      const Node& nd = nodes_[n];
      if (nd.var == kFreeVar || nd.var == kTermVar) continue;
      ++parents[nd.lo];
      ++parents[nd.hi];
    }
    std::size_t surplus = 0;
    for (std::uint32_t n = 0; n < n_slots; ++n) {
      const Node& nd = nodes_[n];
      if (nd.var == kFreeVar || nd.refs == kMaxRefs) continue;
      if (nd.refs < parents[n]) {
        return fail("node " + std::to_string(n) + " has " +
                    std::to_string(nd.refs) + " refs but " +
                    std::to_string(parents[n]) + " internal parents");
      }
      surplus += nd.refs - parents[n];
    }
    if (surplus > external_handles_) {
      return fail("refcount census: " + std::to_string(surplus) +
                  " handle-attributed refs exceed the " +
                  std::to_string(external_handles_) +
                  " live external handles");
    }
  }

  // -- computed-cache validity ----------------------------------------------
  {
    const auto is_live = [&](std::uint32_t idx) {
      return idx < n_slots && nodes_[idx].var != kFreeVar;
    };
    const auto eval_raw = [&](std::uint32_t idx, const std::vector<bool>& a) {
      while (nodes_[idx].var != kTermVar) {
        idx = a[nodes_[idx].var] ? nodes_[idx].hi : nodes_[idx].lo;
      }
      return idx == kTrue;
    };
    // Fixed sample assignments for the semantic revalidation.
    std::vector<std::vector<bool>> samples;
    for (int pattern = 0; pattern < 4; ++pattern) {
      std::vector<bool> a(num_vars_, false);
      for (std::size_t v = 0; v < num_vars_; ++v) {
        switch (pattern) {
          case 0: a[v] = false; break;
          case 1: a[v] = true; break;
          case 2: a[v] = (v % 2) == 1; break;
          default: a[v] = (v % 3) == 0; break;
        }
      }
      samples.push_back(std::move(a));
    }
    std::size_t revalidated = 0;
    constexpr std::size_t kSampleLimit = 64;
    for (std::size_t slot = 0; slot < cache_.size(); ++slot) {
      const CacheEntry& e = cache_[slot];
      if (!e.valid) continue;
      if (e.op < kOpNot || e.op > kOpRelPrev) {
        return fail("cache slot " + std::to_string(slot) +
                    " holds unknown op " + std::to_string(e.op));
      }
      // Which operand words are node indices (kOpCompose's h is a variable;
      // the quantifying kernels' h is their cube).
      const bool g_is_node = e.op != kOpNot;
      const bool h_is_node = e.op == kOpIte || e.op == kOpAndExists ||
                             e.op == kOpRelNext || e.op == kOpRelPrev;
      if (!is_live(e.result) || !is_live(e.f) ||
          (g_is_node && !is_live(e.g)) || (h_is_node && !is_live(e.h))) {
        return fail("cache slot " + std::to_string(slot) +
                    " references a dead or out-of-bounds node");
      }
      if (revalidated < kSampleLimit &&
          (e.op == kOpNot || e.op == kOpAnd || e.op == kOpOr ||
           e.op == kOpXor)) {
        ++revalidated;
        for (const auto& a : samples) {
          const bool fv = eval_raw(e.f, a);
          const bool rv = eval_raw(e.result, a);
          bool expect = false;
          switch (e.op) {
            case kOpNot: expect = !fv; break;
            case kOpAnd: expect = fv && eval_raw(e.g, a); break;
            case kOpOr: expect = fv || eval_raw(e.g, a); break;
            default: expect = fv != eval_raw(e.g, a); break;
          }
          if (rv != expect) {
            return fail("cache slot " + std::to_string(slot) + " (op " +
                        std::to_string(e.op) +
                        ") fails semantic revalidation");
          }
        }
      }
    }
  }

  return "";
}

void Manager::check_mine(const Bdd& b, const char* what) const {
  if (b.mgr_ != this) {
    throw std::invalid_argument(std::string("Manager::") + what +
                                ": operand from a different manager");
  }
}


// ---------------------------------------------------------------------------
// Resource governance
// ---------------------------------------------------------------------------

void Manager::install_budget(const guard::ResourceBudget& budget) {
  budget_ = budget;
  depth_limit_ = budget.max_recursion_depth == 0
                     ? std::numeric_limits<std::size_t>::max()
                     : budget.max_recursion_depth;
  node_hard_limit_ = budget.max_live_nodes;
  node_soft_limit_ = budget.effective_soft_node_limit();
  memory_limit_ = budget.max_memory_bytes;
  budget_epoch_ns_ = diag::monotonic_ns();
  // Unit conversions saturate: a deadline too far off to represent in
  // nanoseconds is no deadline in practice, not one that already passed.
  deadline_ns_ = budget.deadline_ms == 0
                     ? 0
                     : guard::saturating_add(
                           budget_epoch_ns_,
                           guard::saturating_mul(budget.deadline_ms, 1'000'000));
  margin_ns_ = budget.deadline_ms == 0
                   ? 0
                   : guard::saturating_mul(
                         budget.effective_checkpoint_margin_ms(), 1'000'000);
  last_soft_gc_live_ = 0;
}

void Manager::clear_budget() {
  // Everything off except the default recursion-depth guard, which also
  // protects unbudgeted runs from stack exhaustion.
  install_budget(guard::ResourceBudget{});
}

std::size_t Manager::memory_bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         buckets_.capacity() * sizeof(std::uint32_t) +
         free_list_.capacity() * sizeof(std::uint32_t) +
         cache_.capacity() * sizeof(CacheEntry);
}

std::uint64_t Manager::elapsed_ms() const {
  return (diag::monotonic_ns() - budget_epoch_ns_) / 1'000'000ull;
}

guard::BudgetSpent Manager::budget_spent() const {
  guard::BudgetSpent spent;
  spent.live_nodes = live_nodes_;
  spent.peak_nodes = stats_.peak_nodes;
  spent.memory_bytes = memory_bytes();
  spent.elapsed_ms = elapsed_ms();
  spent.depth = depth_;
  spent.soft_gc_runs = stats_.soft_gc_runs;
  spent.reorder_swaps = stats_.reorder_swaps;
  return spent;
}

void Manager::check_deadline(const char* what) {
  if (diag::monotonic_ns() <= deadline_ns_) return;
  throw guard::DeadlineExceeded(
      std::string(what) + ": wall-clock deadline (" +
          std::to_string(budget_.deadline_ms) + " ms) exceeded",
      budget_spent());
}

void Manager::throw_depth_exceeded() {
  guard::BudgetSpent spent = budget_spent();
  // The throwing Frame never finished constructing, so its destructor
  // will not run: undo its increment here.
  --depth_;
  throw guard::DepthLimitExceeded(
      "bdd kernel: recursion depth limit (" +
          std::to_string(depth_limit_) + ") exceeded",
      spent);
}

void Manager::checkpoint(const char* what) {
  if (deadline_ns_ != 0) check_deadline(what);
  // Fault site = the caller's name ("reachable", "eu", "eg", ...): an
  // injected deadline lands at exactly the cooperative boundary a real
  // one would, so `deadline@reachable:3` interrupts the third
  // reachability iteration deterministically.
  if (guard::fault_fire(guard::FaultKind::kDeadline, what)) {
    ++stats_.budget_aborts;
    throw guard::DeadlineExceeded(
        std::string(what) + ": injected deadline", budget_spent());
  }
  // Deadline-margin checkpointing: when a persist hook is installed and
  // the remaining wall-clock budget first dips below the margin, fire it
  // (once) -- the run keeps going, but its state is now on disk.
  if (deadline_ns_ != 0 && margin_ns_ != 0 &&
      guard::ScopedCheckpointHook::armed() &&
      diag::monotonic_ns() >
          deadline_ns_ - std::min(margin_ns_, deadline_ns_)) {
    guard::ScopedCheckpointHook::fire();
  }
  if (memory_limit_ != 0 && memory_bytes() > memory_limit_) {
    ++stats_.budget_aborts;
    throw guard::MemoryLimitExceeded(
        std::string(what) + ": manager heap exceeds max_memory_bytes (" +
            std::to_string(memory_limit_) + ")",
        budget_spent());
  }
}

void Manager::recover_after_abort() {
  // A reorder session the abort interrupted must be torn down first: the
  // gc() below relies on exact refcounts, and the session's deferred
  // cache flush has not run yet.
  abort_reorder_session();
  // An aborted kernel leaves orphan nodes whose refs exactly cover their
  // in-kernel parents (every mk refs its children), so the refcount
  // census still balances; a collection reclaims the orphans and flushes
  // the computed cache, after which (audits enabled) gc() re-audits --
  // that is the "audit passes immediately after a throw" guarantee.
  gc();
  last_soft_gc_live_ = 0;
}

template <typename Kernel>
Bdd Manager::run_apply(ApplyOp op, Kernel&& kernel) {
  maybe_collect();
  count_apply(op);
  for (int attempt = 0;; ++attempt) {
    try {
      if (deadline_ns_ != 0) check_deadline(apply_op_name(op));
      // Fault site "apply": the Nth top-level operation times out.
      if (guard::fault_fire(guard::FaultKind::kDeadline, "apply")) {
        throw guard::DeadlineExceeded(
            std::string(apply_op_name(op)) + ": injected deadline",
            budget_spent());
      }
      return wrap(kernel());
    } catch (const guard::DeadlineExceeded&) {
      ++stats_.budget_aborts;
      recover_after_abort();
      throw;  // time does not come back: no retry
    } catch (const guard::DepthLimitExceeded&) {
      ++stats_.budget_aborts;
      recover_after_abort();
      throw;  // the retry would recurse identically: no retry
    } catch (const guard::ResourceExhausted&) {
      // Node-limit or allocation exhaustion: collect (reclaiming the
      // aborted kernel's orphans, flushing the computed cache) and --
      // kernels being pure -- retry once before giving up.
      recover_after_abort();
      if (attempt == 0) {
        ++stats_.exhaust_retries;
        continue;
      }
      ++stats_.budget_aborts;
      throw;
    } catch (const std::bad_alloc&) {
      // An allocation outside mk's hardened path (cache, free list, ...).
      ++stats_.alloc_failures;
      recover_after_abort();
      if (attempt == 0) {
        ++stats_.exhaust_retries;
        continue;
      }
      ++stats_.budget_aborts;
      throw guard::AllocationFailed(
          std::string("Manager::") + apply_op_name(op) +
              ": allocation failed after GC-and-retry",
          budget_spent());
    }
  }
}

FixpointGuard::FixpointGuard(Manager& mgr, const char* loop_name,
                             std::vector<Bdd> operands,
                             const std::vector<Bdd>* rings)
    : mgr_(mgr),
      name_(loop_name),
      resumable_(true),
      uncaught_(std::uncaught_exceptions()),
      rings_(rings) {
  record_.loop = loop_name;
  record_.operands = std::move(operands);
  auto& staged = mgr_.staged_;
  for (auto it = staged.begin(); it != staged.end(); ++it) {
    if (it->loop == record_.loop && it->operands == record_.operands) {
      record_ = std::move(*it);
      staged.erase(it);
      resumed_ = true;
      base_ = record_.iteration;
      break;
    }
  }
  mgr_.live_loops_.push_back(this);
}

FixpointGuard::~FixpointGuard() {
  if (!resumable_) return;
  mgr_.live_loops_.pop_back();
  if (std::uncaught_exceptions() > uncaught_ && !record_.z.is_null()) {
    mgr_.salvaged_.push_back(frontier());
  }
}

Frontier FixpointGuard::frontier() const {
  Frontier f{record_.loop, record_.operands, record_.z, {}, record_.iteration};
  if (rings_ != nullptr) f.rings = *rings_;
  return f;
}

std::vector<Frontier> Manager::live_frontiers() const {
  std::vector<Frontier> out;
  for (const FixpointGuard* loop : live_loops_) {
    if (!loop->record_.z.is_null()) out.push_back(loop->frontier());
  }
  return out;
}

void FixpointGuard::tick() {
  ++iterations_;
  mgr_.checkpoint(name_);
  const std::size_t limit = mgr_.budget_.max_fixpoint_iterations;
  if (limit != 0 && iterations_ > limit) {
    ++mgr_.stats_.budget_aborts;
    guard::BudgetSpent spent = mgr_.budget_spent();
    spent.iterations = iterations_;
    throw guard::IterationLimitExceeded(
        std::string(name_) + ": fixpoint iteration limit (" +
            std::to_string(limit) + ") exceeded",
        spent);
  }
}

// ---------------------------------------------------------------------------
// Computed cache
// ---------------------------------------------------------------------------

Manager::CacheEntry* Manager::CacheAllocator::allocate(std::size_t n) {
  void* p = mmap(nullptr, n * sizeof(CacheEntry), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  return static_cast<CacheEntry*>(p);
}

void Manager::CacheAllocator::deallocate(CacheEntry* p,
                                         std::size_t n) noexcept {
  munmap(p, n * sizeof(CacheEntry));
}

bool Manager::cache_get(std::uint32_t op, std::uint32_t f, std::uint32_t g,
                        std::uint32_t h, std::uint32_t& out) {
  ++stats_.cache_lookups;
  const std::size_t slot =
      (hash3(f, g, h) ^ (op * 0x85EBCA6Bu)) & (cache_.size() - 1);
  const CacheEntry& e = cache_[slot];
  if (e.valid && e.op == op && e.f == f && e.g == g && e.h == h) {
    ++stats_.cache_hits;
    out = e.result;
    return true;
  }
  return false;
}

void Manager::cache_put(std::uint32_t op, std::uint32_t f, std::uint32_t g,
                        std::uint32_t h, std::uint32_t result) {
  const std::size_t slot =
      (hash3(f, g, h) ^ (op * 0x85EBCA6Bu)) & (cache_.size() - 1);
  cache_[slot] = CacheEntry{op, f, g, h, result, true};
}

// ---------------------------------------------------------------------------
// Recursive kernels
// ---------------------------------------------------------------------------

std::uint32_t Manager::not_rec(std::uint32_t f) {
  const Frame frame(*this);
  if (f == kFalse) return kTrue;
  if (f == kTrue) return kFalse;
  std::uint32_t cached;
  if (cache_get(kOpNot, f, 0, 0, cached)) return cached;
  // Copy by value: mk may grow nodes_.
  const std::uint32_t nvar = nodes_[f].var;
  const std::uint32_t nlo = nodes_[f].lo;
  const std::uint32_t nhi = nodes_[f].hi;
  const std::uint32_t r = mk(nvar, not_rec(nlo), not_rec(nhi));
  cache_put(kOpNot, f, 0, 0, r);
  return r;
}

std::uint32_t Manager::and_rec(std::uint32_t f, std::uint32_t g) {
  const Frame frame(*this);
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue) return g;
  if (g == kTrue || f == g) return f;
  if (f > g) std::swap(f, g);  // commutative: normalize for the cache
  std::uint32_t cached;
  if (cache_get(kOpAnd, f, g, 0, cached)) return cached;
  const std::uint32_t top = std::min(level(f), level(g));
  const std::uint32_t tv = level2var_[top];  // variable at the top level
  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const std::uint32_t f0 = nf.var == tv ? nf.lo : f;
  const std::uint32_t f1 = nf.var == tv ? nf.hi : f;
  const std::uint32_t g0 = ng.var == tv ? ng.lo : g;
  const std::uint32_t g1 = ng.var == tv ? ng.hi : g;
  const std::uint32_t r = mk(tv, and_rec(f0, g0), and_rec(f1, g1));
  cache_put(kOpAnd, f, g, 0, r);
  return r;
}

std::uint32_t Manager::or_rec(std::uint32_t f, std::uint32_t g) {
  const Frame frame(*this);
  if (f == kTrue || g == kTrue) return kTrue;
  if (f == kFalse) return g;
  if (g == kFalse || f == g) return f;
  if (f > g) std::swap(f, g);
  std::uint32_t cached;
  if (cache_get(kOpOr, f, g, 0, cached)) return cached;
  const std::uint32_t top = std::min(level(f), level(g));
  const std::uint32_t tv = level2var_[top];
  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const std::uint32_t f0 = nf.var == tv ? nf.lo : f;
  const std::uint32_t f1 = nf.var == tv ? nf.hi : f;
  const std::uint32_t g0 = ng.var == tv ? ng.lo : g;
  const std::uint32_t g1 = ng.var == tv ? ng.hi : g;
  const std::uint32_t r = mk(tv, or_rec(f0, g0), or_rec(f1, g1));
  cache_put(kOpOr, f, g, 0, r);
  return r;
}

std::uint32_t Manager::xor_rec(std::uint32_t f, std::uint32_t g) {
  const Frame frame(*this);
  if (f == g) return kFalse;
  if (f == kFalse) return g;
  if (g == kFalse) return f;
  if (f == kTrue) return not_rec(g);
  if (g == kTrue) return not_rec(f);
  if (f > g) std::swap(f, g);
  std::uint32_t cached;
  if (cache_get(kOpXor, f, g, 0, cached)) return cached;
  const std::uint32_t top = std::min(level(f), level(g));
  const std::uint32_t tv = level2var_[top];
  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const std::uint32_t f0 = nf.var == tv ? nf.lo : f;
  const std::uint32_t f1 = nf.var == tv ? nf.hi : f;
  const std::uint32_t g0 = ng.var == tv ? ng.lo : g;
  const std::uint32_t g1 = ng.var == tv ? ng.hi : g;
  const std::uint32_t r = mk(tv, xor_rec(f0, g0), xor_rec(f1, g1));
  cache_put(kOpXor, f, g, 0, r);
  return r;
}

std::uint32_t Manager::ite_rec(std::uint32_t f, std::uint32_t g,
                               std::uint32_t h) {
  const Frame frame(*this);
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return not_rec(f);
  std::uint32_t cached;
  if (cache_get(kOpIte, f, g, h, cached)) return cached;
  const std::uint32_t top =
      std::min(level(f), std::min(level(g), level(h)));
  const std::uint32_t tv = level2var_[top];
  auto cof = [&](std::uint32_t n, bool hi) {
    const Node& nd = nodes_[n];
    if (nd.var != tv) return n;
    return hi ? nd.hi : nd.lo;
  };
  const std::uint32_t r1 = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  const std::uint32_t r0 =
      ite_rec(cof(f, false), cof(g, false), cof(h, false));
  const std::uint32_t r = mk(tv, r0, r1);
  cache_put(kOpIte, f, g, h, r);
  return r;
}

std::uint32_t Manager::exists_rec(std::uint32_t f, std::uint32_t cube) {
  const Frame frame(*this);
  if (f == kFalse || f == kTrue) return f;
  // Skip cube variables above f's top variable: f does not depend on them.
  while (cube != kTrue && level(cube) < level(f)) cube = nodes_[cube].hi;
  if (cube == kTrue) return f;
  std::uint32_t cached;
  if (cache_get(kOpExists, f, cube, 0, cached)) return cached;
  const Node& nf = nodes_[f];
  std::uint32_t r;
  if (level(f) == level(cube)) {
    const std::uint32_t rest = nodes_[cube].hi;
    const std::uint32_t r0 = exists_rec(nf.lo, rest);
    // Early termination: once one branch is true the disjunction is true.
    r = (r0 == kTrue) ? kTrue : or_rec(r0, exists_rec(nf.hi, rest));
  } else {
    r = mk(nf.var, exists_rec(nf.lo, cube), exists_rec(nf.hi, cube));
  }
  cache_put(kOpExists, f, cube, 0, r);
  return r;
}

std::uint32_t Manager::and_exists_rec(std::uint32_t f, std::uint32_t g,
                                      std::uint32_t cube) {
  const Frame frame(*this);
  if (f == kFalse || g == kFalse) return kFalse;
  if (cube == kTrue) return and_rec(f, g);
  if (f == kTrue) return exists_rec(g, cube);
  if (g == kTrue) return exists_rec(f, cube);
  if (f == g) return exists_rec(f, cube);
  if (f > g) std::swap(f, g);
  const std::uint32_t top = std::min(level(f), level(g));
  // Quantified variables above both operands vanish.
  while (cube != kTrue && level(cube) < top) cube = nodes_[cube].hi;
  if (cube == kTrue) return and_rec(f, g);
  std::uint32_t cached;
  if (cache_get(kOpAndExists, f, g, cube, cached)) return cached;
  const std::uint32_t tv = level2var_[top];
  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const std::uint32_t f0 = nf.var == tv ? nf.lo : f;
  const std::uint32_t f1 = nf.var == tv ? nf.hi : f;
  const std::uint32_t g0 = ng.var == tv ? ng.lo : g;
  const std::uint32_t g1 = ng.var == tv ? ng.hi : g;
  std::uint32_t r;
  if (level(cube) == top) {
    const std::uint32_t rest = nodes_[cube].hi;
    const std::uint32_t r0 = and_exists_rec(f0, g0, rest);
    r = (r0 == kTrue) ? kTrue : or_rec(r0, and_exists_rec(f1, g1, rest));
  } else {
    r = mk(tv, and_exists_rec(f0, g0, cube), and_exists_rec(f1, g1, cube));
  }
  cache_put(kOpAndExists, f, g, cube, r);
  return r;
}

std::uint32_t Manager::constrain_rec(std::uint32_t f, std::uint32_t c) {
  const Frame frame(*this);
  if (c == kTrue || f == kFalse || f == kTrue) return f;
  if (f == c) return kTrue;
  std::uint32_t cached;
  if (cache_get(kOpConstrain, f, c, 0, cached)) return cached;
  const std::uint32_t top = std::min(level(f), level(c));
  const std::uint32_t tv = level2var_[top];
  const Node& nf = nodes_[f];
  const Node& nc = nodes_[c];
  const std::uint32_t f0 = nf.var == tv ? nf.lo : f;
  const std::uint32_t f1 = nf.var == tv ? nf.hi : f;
  const std::uint32_t c0 = nc.var == tv ? nc.lo : c;
  const std::uint32_t c1 = nc.var == tv ? nc.hi : c;
  std::uint32_t r;
  if (c0 == kFalse) {
    r = constrain_rec(f1, c1);
  } else if (c1 == kFalse) {
    r = constrain_rec(f0, c0);
  } else {
    r = mk(tv, constrain_rec(f0, c0), constrain_rec(f1, c1));
  }
  cache_put(kOpConstrain, f, c, 0, r);
  return r;
}

std::uint32_t Manager::restrict_min_rec(std::uint32_t f, std::uint32_t c) {
  const Frame frame(*this);
  if (c == kTrue || f == kFalse || f == kTrue) return f;
  if (f == c) return kTrue;
  std::uint32_t cached;
  if (cache_get(kOpRestrictMin, f, c, 0, cached)) return cached;
  std::uint32_t r;
  if (level(c) < level(f)) {
    // The care set branches on a variable f ignores: drop it instead of
    // splitting f (this keeps the support within f's).
    r = restrict_min_rec(f, or_rec(nodes_[c].lo, nodes_[c].hi));
  } else {
    const Node& nf = nodes_[f];
    const Node& nc = nodes_[c];
    // f's variable is topmost; c branches on it iff it sits at f's level.
    const std::uint32_t fv = nf.var;
    const std::uint32_t c0 = nc.var == fv ? nc.lo : c;
    const std::uint32_t c1 = nc.var == fv ? nc.hi : c;
    if (c0 == kFalse) {
      r = restrict_min_rec(nf.hi, c1);
    } else if (c1 == kFalse) {
      r = restrict_min_rec(nf.lo, c0);
    } else {
      r = mk(fv, restrict_min_rec(nf.lo, c0), restrict_min_rec(nf.hi, c1));
    }
  }
  cache_put(kOpRestrictMin, f, c, 0, r);
  return r;
}

std::uint32_t Manager::compose_rec(std::uint32_t f, std::uint32_t var,
                                   std::uint32_t g) {
  const Frame frame(*this);
  if (level(f) == kTermVar) return f;
  // Below var's level f cannot depend on var (a var outside the manager
  // has no level; recursion then just rebuilds f).
  if (var < num_vars_ && level(f) > var2level_[var]) return f;
  std::uint32_t cached;
  if (cache_get(kOpCompose, f, g, var, cached)) return cached;
  // Copy by value: mk may grow nodes_.
  const std::uint32_t nfvar = nodes_[f].var;
  const std::uint32_t nflo = nodes_[f].lo;
  const std::uint32_t nfhi = nodes_[f].hi;
  std::uint32_t r;
  if (nfvar == var) {
    r = ite_rec(g, nfhi, nflo);
  } else {
    // Rebuild via ite on the top variable: the composed children may
    // depend on variables above nfvar, so a plain mk could be unordered.
    const std::uint32_t v = mk(nfvar, kFalse, kTrue);
    r = ite_rec(v, compose_rec(nfhi, var, g), compose_rec(nflo, var, g));
  }
  cache_put(kOpCompose, f, g, var, r);
  return r;
}

std::uint32_t Manager::mk_rel(std::uint32_t var, std::uint32_t lo,
                              std::uint32_t hi, const char* what) {
  // A child at or above var's level means the operands broke the kernel's
  // pair contract (a pair split across levels, or both of its variables
  // surviving into the result); mk would build a misordered DAG.
  const std::uint32_t lvl = var2level_[var];
  if (lo != hi && (level(lo) <= lvl || level(hi) <= lvl)) {
    throw std::invalid_argument(
        std::string("Manager::") + what +
        ": operands break the interleaved-pair contract at variable " +
        std::to_string(var));
  }
  return mk(var, lo, hi);
}

std::uint32_t Manager::rel_next_rec(std::uint32_t f, std::uint32_t g,
                                    std::uint32_t cube) {
  const Frame frame(*this);
  if (f == kFalse || g == kFalse) return kFalse;
  // Normalize (f AND g is commutative): g is true or f < g.  No and_rec /
  // exists_rec shortcut here -- they would return unrenamed results.
  if (g == kTrue || f == g) {
    g = kTrue;
  } else if (f == kTrue) {
    f = g;
    g = kTrue;
  } else if (f > g) {
    std::swap(f, g);
  }
  if (f == kTrue) return kTrue;
  const std::uint32_t top = std::min(level(f), level(g));
  while (cube != kTrue && level(cube) < top) cube = nodes_[cube].hi;
  std::uint32_t cached;
  if (cache_get(kOpRelNext, f, g, cube, cached)) return cached;
  const std::uint32_t tv = level2var_[top];
  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const std::uint32_t f0 = nf.var == tv ? nf.lo : f;
  const std::uint32_t f1 = nf.var == tv ? nf.hi : f;
  const std::uint32_t g0 = ng.var == tv ? ng.lo : g;
  const std::uint32_t g1 = ng.var == tv ? ng.hi : g;
  std::uint32_t r;
  if (level(cube) == top) {
    const std::uint32_t rest = nodes_[cube].hi;
    const std::uint32_t r0 = rel_next_rec(f0, g0, rest);
    r = (r0 == kTrue) ? kTrue : or_rec(r0, rel_next_rec(f1, g1, rest));
  } else {
    // Emit 2v+1 as 2v (2v stays 2v).
    const std::uint32_t r0 = rel_next_rec(f0, g0, cube);
    const std::uint32_t r1 = rel_next_rec(f1, g1, cube);
    r = mk_rel(tv & ~1u, r0, r1, "rel_next");
  }
  cache_put(kOpRelNext, f, g, cube, r);
  return r;
}

std::uint32_t Manager::rel_prev_rec(std::uint32_t s, std::uint32_t t,
                                    std::uint32_t cube) {
  const Frame frame(*this);
  if (s == kFalse || t == kFalse) return kFalse;
  if (s == kTrue) return exists_rec(t, cube);  // t is read unrenamed
  // s's variable x is read as its twin x^1, at the twin's level.
  const std::uint32_t sv = nodes_[s].var ^ 1u;
  if (sv >= num_vars_) {
    throw std::invalid_argument(
        "Manager::rel_prev: variable " + std::to_string(nodes_[s].var) +
        " has no pair twin");
  }
  const std::uint32_t top = std::min(var2level_[sv], level(t));
  while (cube != kTrue && level(cube) < top) cube = nodes_[cube].hi;
  std::uint32_t cached;
  if (cache_get(kOpRelPrev, s, t, cube, cached)) return cached;
  const std::uint32_t tv = level2var_[top];
  const Node& ns = nodes_[s];
  const Node& nt = nodes_[t];
  const std::uint32_t s0 = sv == tv ? ns.lo : s;
  const std::uint32_t s1 = sv == tv ? ns.hi : s;
  const std::uint32_t t0 = nt.var == tv ? nt.lo : t;
  const std::uint32_t t1 = nt.var == tv ? nt.hi : t;
  std::uint32_t r;
  if (level(cube) == top) {
    const std::uint32_t rest = nodes_[cube].hi;
    const std::uint32_t r0 = rel_prev_rec(s0, t0, rest);
    r = (r0 == kTrue) ? kTrue : or_rec(r0, rel_prev_rec(s1, t1, rest));
  } else {
    const std::uint32_t r0 = rel_prev_rec(s0, t0, cube);
    const std::uint32_t r1 = rel_prev_rec(s1, t1, cube);
    r = mk_rel(tv, r0, r1, "rel_prev");
  }
  cache_put(kOpRelPrev, s, t, cube, r);
  return r;
}

std::uint32_t Manager::restrict_rec(
    std::uint32_t f, std::uint32_t var, bool value,
    std::unordered_map<std::uint32_t, std::uint32_t>& memo) {
  const Frame frame(*this);
  if (level(f) == kTermVar) return f;
  if (var < num_vars_ && level(f) > var2level_[var]) return f;
  if (const auto it = memo.find(f); it != memo.end()) return it->second;
  // Copy by value: mk may grow nodes_.
  const std::uint32_t nvar = nodes_[f].var;
  const std::uint32_t nlo = nodes_[f].lo;
  const std::uint32_t nhi = nodes_[f].hi;
  std::uint32_t r;
  if (nvar == var) {
    r = value ? nhi : nlo;
  } else {
    r = mk(nvar, restrict_rec(nlo, var, value, memo),
           restrict_rec(nhi, var, value, memo));
  }
  memo[f] = r;
  return r;
}

// ---------------------------------------------------------------------------
// Manager: public composite operations
// ---------------------------------------------------------------------------

Bdd Manager::cube(const std::vector<std::uint32_t>& vars) {
  maybe_collect();
  // Build bottom-up (deepest level first) so every mk is ordered.
  std::vector<std::uint32_t> sorted = vars;
  for (const std::uint32_t v : sorted) {
    if (v >= num_vars_) {
      throw std::invalid_argument("Manager::cube: unknown var");
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return var2level_[a] < var2level_[b];
            });
  std::uint32_t acc = kTrue;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    acc = mk(*it, kFalse, acc);
  }
  return wrap(acc);
}

Bdd Manager::minterm(const std::vector<std::uint32_t>& vars,
                     const std::vector<bool>& values) {
  if (vars.size() != values.size()) {
    throw std::invalid_argument("Manager::minterm: size mismatch");
  }
  maybe_collect();
  std::vector<std::pair<std::uint32_t, bool>> lits;
  lits.reserve(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] >= num_vars_) {
      throw std::invalid_argument("Manager::minterm: unknown var");
    }
    lits.emplace_back(vars[i], values[i]);
  }
  std::sort(lits.begin(), lits.end(),
            [&](const std::pair<std::uint32_t, bool>& a,
                const std::pair<std::uint32_t, bool>& b) {
              return var2level_[a.first] < var2level_[b.first];
            });
  std::uint32_t acc = kTrue;
  for (auto it = lits.rbegin(); it != lits.rend(); ++it) {
    acc = it->second ? mk(it->first, kFalse, acc) : mk(it->first, acc, kFalse);
  }
  return wrap(acc);
}

Bdd Manager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  check_mine(f, "ite");
  check_mine(g, "ite");
  check_mine(h, "ite");
  return run_apply(ApplyOp::kIte,
                   [&] { return ite_rec(f.idx_, g.idx_, h.idx_); });
}

Bdd Manager::and_exists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  check_mine(f, "and_exists");
  check_mine(g, "and_exists");
  check_mine(cube, "and_exists");
  return run_apply(ApplyOp::kAndExists, [&] {
    return and_exists_rec(f.idx_, g.idx_, cube.idx_);
  });
}

Bdd Manager::rel_next(const Bdd& f, const Bdd& g, const Bdd& cube) {
  check_mine(f, "rel_next");
  check_mine(g, "rel_next");
  check_mine(cube, "rel_next");
  return run_apply(ApplyOp::kRelNext, [&] {
    return rel_next_rec(f.idx_, g.idx_, cube.idx_);
  });
}

Bdd Manager::rel_prev(const Bdd& s, const Bdd& t, const Bdd& cube) {
  check_mine(s, "rel_prev");
  check_mine(t, "rel_prev");
  check_mine(cube, "rel_prev");
  return run_apply(ApplyOp::kRelPrev, [&] {
    return rel_prev_rec(s.idx_, t.idx_, cube.idx_);
  });
}

Bdd Manager::pick_one_minterm(const Bdd& f,
                              const std::vector<std::uint32_t>& vars) {
  check_mine(f, "pick_one_minterm");
  const std::vector<bool> values = pick_one_assignment(f, vars);
  return minterm(vars, values);
}

std::vector<bool> Manager::pick_one_assignment(
    const Bdd& f, const std::vector<std::uint32_t>& vars) {
  check_mine(f, "pick_one_assignment");
  if (f.is_false() || f.is_null()) {
    throw std::invalid_argument("pick_one_assignment: unsatisfiable function");
  }
  for (std::size_t i = 1; i < vars.size(); ++i) {
    if (vars[i - 1] >= vars[i]) {
      throw std::invalid_argument("pick_one_assignment: vars not ascending");
    }
  }
  std::vector<bool> values(vars.size(), false);
  // The choice is defined ORDER-INDEPENDENTLY: the lexicographically
  // smallest satisfying assignment w.r.t. the variable INDICES in `vars`,
  // preferring false.  Witness traces therefore come out bit-identical no
  // matter what order reordering has left the manager in.
  if (identity_order()) {
    // Fast path: under the identity order a single top-down walk computes
    // exactly that assignment (each variable is met in index order and the
    // low branch is preferred).
    std::uint32_t n = f.idx_;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (level(n) == kTermVar || nodes_[n].var != vars[i]) {
        // f does not branch on vars[i] here: any value works; pick false.
        if (level(n) != kTermVar && nodes_[n].var < vars[i]) {
          throw std::invalid_argument(
              "pick_one_assignment: vars does not cover the support");
        }
        continue;
      }
      const Node& nd = nodes_[n];
      if (nd.lo != kFalse) {
        values[i] = false;
        n = nd.lo;
      } else {
        values[i] = true;
        n = nd.hi;
      }
    }
    if (n != kTrue) {
      throw std::invalid_argument(
          "pick_one_assignment: vars does not cover the support");
    }
    return values;
  }
  // Permuted order: greedy cofactoring in index order.  values[i] = false
  // iff the function restricted by the choices so far stays satisfiable
  // with vars[i] = false -- the same greedy rule the walk implements.
  std::uint32_t n = f.idx_;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (level(n) == kTermVar) break;  // remaining vars are free: all false
    std::unordered_map<std::uint32_t, std::uint32_t> memo;
    const std::uint32_t f0 = restrict_rec(n, vars[i], false, memo);
    if (f0 != kFalse) {
      values[i] = false;
      n = f0;
    } else {
      values[i] = true;
      memo.clear();
      n = restrict_rec(n, vars[i], true, memo);
    }
  }
  if (n != kTrue) {
    throw std::invalid_argument(
        "pick_one_assignment: vars does not cover the support");
  }
  return values;
}

void Manager::for_each_assignment(
    const Bdd& f, const std::vector<std::uint32_t>& vars,
    const std::function<void(const std::vector<bool>&)>& visit) {
  check_mine(f, "for_each_assignment");
  for (std::size_t i = 1; i < vars.size(); ++i) {
    if (vars[i - 1] >= vars[i]) {
      throw std::invalid_argument("for_each_assignment: vars not ascending");
    }
  }
  if (f.is_false()) return;
  // The walk must follow the BDD's LEVEL order, but the enumeration is
  // promised in lexicographic order of `vars` (by variable INDEX), which a
  // reorder must not change.  So: visit `vars` sorted by current level,
  // collect the rows, sort them, then emit.  Under the identity order the
  // rows are generated lexicographically already and the sort is a no-op.
  const std::size_t k = vars.size();
  // Variables outside the manager (tolerated, as before: f cannot branch
  // on them) sort below every real level.
  const auto lvl_of_var = [&](std::uint32_t v) {
    return v < num_vars_ ? var2level_[v] : kTermVar;
  };
  std::vector<std::size_t> pos(k);  // visit order: positions by level
  for (std::size_t i = 0; i < k; ++i) pos[i] = i;
  std::sort(pos.begin(), pos.end(), [&](std::size_t a, std::size_t b) {
    return lvl_of_var(vars[a]) < lvl_of_var(vars[b]);
  });
  std::vector<std::vector<bool>> rows;
  std::vector<bool> values(k, false);
  // Depth = position in the level-sorted visit order; branch on the BDD
  // only when its top variable matches, otherwise both values lead to the
  // same subfunction.
  auto rec = [&](auto&& self, std::size_t depth, std::uint32_t n) -> void {
    if (depth == k) {
      if (n != kTrue) {
        throw std::invalid_argument(
            "for_each_assignment: vars does not cover the support");
      }
      rows.push_back(values);
      return;
    }
    const std::uint32_t v = vars[pos[depth]];
    const std::uint32_t lvl = level(n);
    if (lvl != kTermVar && lvl < lvl_of_var(v)) {
      throw std::invalid_argument(
          "for_each_assignment: vars does not cover the support");
    }
    if (lvl == kTermVar || nodes_[n].var != v) {
      for (const bool b : {false, true}) {
        values[pos[depth]] = b;
        self(self, depth + 1, n);
      }
      return;
    }
    const Node& nd = nodes_[n];
    if (nd.lo != kFalse) {
      values[pos[depth]] = false;
      self(self, depth + 1, nd.lo);
    }
    if (nd.hi != kFalse) {
      values[pos[depth]] = true;
      self(self, depth + 1, nd.hi);
    }
  };
  rec(rec, 0, f.raw_index());
  std::sort(rows.begin(), rows.end());
  for (const auto& row : rows) visit(row);
}

std::string dot_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        break;  // a bare CR only corrupts the label; drop it
      default:
        out += c;
    }
  }
  return out;
}

void Manager::dump_dot(std::ostream& os, const std::vector<Bdd>& roots,
                       const std::vector<std::string>& names) const {
  os << "digraph bdd {\n"
     << "  rankdir=TB;\n"
     << "  node [shape=circle];\n"
     << "  n0 [shape=box,label=\"0\"];\n"
     << "  n1 [shape=box,label=\"1\"];\n";
  std::unordered_set<std::uint32_t> seen{kFalse, kTrue};
  std::vector<std::uint32_t> stack;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    os << "  r" << i << " [shape=plaintext,label=\"f" << i << "\"];\n"
       << "  r" << i << " -> n" << roots[i].idx_ << ";\n";
    stack.push_back(roots[i].idx_);
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    const Node& nd = nodes_[n];
    std::string label;
    if (nd.var < names.size() && !names[nd.var].empty()) {
      label = names[nd.var];
    } else {
      label = 'v';
      label += std::to_string(nd.var);
    }
    // Post-reorder dumps are unreadable without positions: annotate every
    // node with the level its variable currently occupies.
    if (nd.var < num_vars_) {
      label += " @";
      label += std::to_string(var2level_[nd.var]);
    }
    os << "  n" << n << " [label=\"" << dot_escape(label) << "\"];\n"
       << "  n" << n << " -> n" << nd.lo << " [style=dashed];\n"
       << "  n" << n << " -> n" << nd.hi << ";\n";
    stack.push_back(nd.lo);
    stack.push_back(nd.hi);
  }
  os << "}\n";
}

}  // namespace symcex::bdd
