#include "guard/guard.hpp"

#include <sstream>

#include "guard/config.hpp"

namespace symcex::guard {

const char* resource_name(Resource r) {
  switch (r) {
    case Resource::kNodes:
      return "nodes";
    case Resource::kMemory:
      return "memory";
    case Resource::kTime:
      return "time";
    case Resource::kIterations:
      return "iterations";
    case Resource::kDepth:
      return "depth";
    case Resource::kAllocation:
      return "allocation";
  }
  return "unknown";
}

std::string BudgetSpent::to_string() const {
  std::ostringstream os;
  os << "live_nodes=" << live_nodes << " peak_nodes=" << peak_nodes
     << " memory_bytes=" << memory_bytes << " elapsed_ms=" << elapsed_ms
     << " iterations=" << iterations << " depth=" << depth
     << " soft_gc_runs=" << soft_gc_runs
     << " reorder_swaps=" << reorder_swaps;
  return os.str();
}

ResourceBudget ResourceBudget::unlimited() {
  ResourceBudget b;
  b.max_recursion_depth = 0;
  return b;
}

namespace {
// Innermost ambient budget for this thread (nullptr = none installed).
thread_local const ResourceBudget* g_ambient = nullptr;
}  // namespace

ScopedBudget::ScopedBudget(const ResourceBudget& budget)
    : budget_(budget), prev_(g_ambient) {
  g_ambient = &budget_;
}

ScopedBudget::~ScopedBudget() { g_ambient = prev_; }

const ResourceBudget& ScopedBudget::current() {
  return g_ambient != nullptr ? *g_ambient : config::current().budget;
}

namespace {
// Innermost checkpoint hook for this thread (nullptr = none installed).
thread_local ScopedCheckpointHook* g_checkpoint_hook = nullptr;
}  // namespace

ScopedCheckpointHook::ScopedCheckpointHook(std::function<void()> hook)
    : hook_(std::move(hook)), prev_(g_checkpoint_hook) {
  g_checkpoint_hook = this;
}

ScopedCheckpointHook::~ScopedCheckpointHook() { g_checkpoint_hook = prev_; }

bool ScopedCheckpointHook::armed() {
  return g_checkpoint_hook != nullptr && !g_checkpoint_hook->fired_ &&
         g_checkpoint_hook->hook_ != nullptr;
}

void ScopedCheckpointHook::fire() {
  if (!armed()) return;
  // Disarm before running: a checkpoint probe inside the hook itself must
  // not recurse into it.
  g_checkpoint_hook->fired_ = true;
  try {
    g_checkpoint_hook->hook_();
  } catch (...) {
    // A failed periodic checkpoint must not abort the run it insures.
  }
}

}  // namespace symcex::guard
