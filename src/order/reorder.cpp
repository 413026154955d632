#include "order/order.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "diag/metrics.hpp"
#include "guard/guard.hpp"

namespace symcex::order {

namespace {

/// One sifting unit: a maximal run of adjacent levels sharing a reorder
/// group.  `start` is the block's current top level; `vars` its members,
/// top to bottom (their relative order never changes).
struct Block {
  std::uint32_t start = 0;
  std::vector<std::uint32_t> vars;
};

std::vector<Block> layout_of(const bdd::Manager& mgr) {
  std::vector<Block> layout;
  const std::vector<std::uint32_t>& order = mgr.current_order();
  for (std::uint32_t lvl = 0; lvl < order.size();) {
    Block b;
    b.start = lvl;
    const std::uint32_t gid = mgr.var_group(order[lvl]);
    do {
      b.vars.push_back(order[lvl]);
      ++lvl;
    } while (lvl < order.size() && mgr.var_group(order[lvl]) == gid);
    layout.push_back(std::move(b));
  }
  return layout;
}

/// Swap the adjacent blocks at layout positions i and i+1: each of the
/// lower block's variables bubbles up past the whole upper block, so the
/// move costs |upper| * |lower| adjacent swaps and preserves both blocks'
/// internal order.
std::size_t swap_blocks(bdd::Manager& mgr, std::vector<Block>& layout,
                        std::size_t i) {
  Block& a = layout[i];
  Block& b = layout[i + 1];
  const std::uint32_t base = a.start;
  const auto s1 = static_cast<std::uint32_t>(a.vars.size());
  const auto s2 = static_cast<std::uint32_t>(b.vars.size());
  for (std::uint32_t j = 0; j < s2; ++j) {
    for (std::uint32_t l = base + s1 + j; l > base + j; --l) {
      mgr.swap_levels(l - 1);
    }
  }
  b.start = base;
  a.start = base + s2;
  std::swap(layout[i], layout[i + 1]);
  return std::size_t{s1} * s2;
}

/// Non-throwing poll of the manager's installed budget: sifting answers
/// exhaustion by rolling back and stopping, never by unwinding.
bool budget_exhausted(const bdd::Manager& mgr) {
  const guard::ResourceBudget& b = mgr.budget();
  if (b.deadline_ms != 0 && mgr.budget_spent().elapsed_ms >= b.deadline_ms) {
    return true;
  }
  if (b.max_live_nodes != 0 && mgr.stats().live_nodes >= b.max_live_nodes) {
    return true;
  }
  if (b.max_memory_bytes != 0 && mgr.memory_bytes() > b.max_memory_bytes) {
    return true;
  }
  return false;
}

}  // namespace

std::vector<std::vector<std::uint32_t>> blocks(const bdd::Manager& mgr) {
  std::vector<std::vector<std::uint32_t>> out;
  for (Block& b : layout_of(mgr)) out.push_back(std::move(b.vars));
  return out;
}

SiftResult sift(bdd::Manager& mgr, const SiftOptions& options) {
  SiftResult res;
  res.nodes_before = mgr.stats().live_nodes;
  res.nodes_after = res.nodes_before;
  if (mgr.num_vars() < 2) return res;
  mgr.reorder_session_begin();
  try {
    res.nodes_before = mgr.stats().live_nodes;  // post-GC baseline
    std::vector<Block> layout = layout_of(mgr);
    // Heaviest blocks first: they have the most nodes to move and the
    // most to gain.  Blocks are identified by their lead variable, since
    // sifting one block shuffles the positions of the others.
    const std::vector<std::size_t> var_counts = mgr.var_node_counts();
    std::vector<std::uint32_t> keys;
    std::vector<std::size_t> weights;
    keys.reserve(layout.size());
    weights.reserve(layout.size());
    for (const Block& b : layout) {
      std::size_t w = 0;
      for (const std::uint32_t v : b.vars) w += var_counts[v];
      keys.push_back(b.vars.front());
      weights.push_back(w);
    }
    std::vector<std::size_t> agenda(layout.size());
    for (std::size_t i = 0; i < agenda.size(); ++i) agenda[i] = i;
    std::stable_sort(agenda.begin(), agenda.end(),
                     [&](std::size_t a, std::size_t b) {
                       return weights[a] > weights[b];
                     });
    const std::size_t limit =
        options.max_blocks == 0 ? agenda.size()
                                : std::min(agenda.size(), options.max_blocks);
    const auto over_budget = [&] {
      return budget_exhausted(mgr) ||
             (options.max_swaps != 0 && res.swaps >= options.max_swaps);
    };
    for (std::size_t k = 0; k < limit && !res.aborted; ++k) {
      std::size_t cur = 0;
      while (layout[cur].vars.front() != keys[agenda[k]]) ++cur;
      std::size_t best_pos = cur;
      std::size_t best_size = mgr.stats().live_nodes;
      // Walk the block to the bottom of the order...
      while (cur + 1 < layout.size()) {
        if (over_budget()) {
          res.aborted = true;
          break;
        }
        res.swaps += swap_blocks(mgr, layout, cur);
        ++cur;
        const std::size_t size = mgr.stats().live_nodes;
        // Strict improvement only: ties keep the earlier position, which
        // makes a pass over an optimal order leave it untouched.
        if (size < best_size) {
          best_size = size;
          best_pos = cur;
        }
        if (static_cast<double>(size) >
            options.max_growth * static_cast<double>(best_size)) {
          break;
        }
      }
      // ...then to the top.
      while (!res.aborted && cur > 0) {
        if (over_budget()) {
          res.aborted = true;
          break;
        }
        res.swaps += swap_blocks(mgr, layout, cur - 1);
        --cur;
        const std::size_t size = mgr.stats().live_nodes;
        if (size < best_size) {
          best_size = size;
          best_pos = cur;
        }
        if (static_cast<double>(size) >
            options.max_growth * static_cast<double>(best_size)) {
          break;
        }
      }
      // Settle at the best position seen; on abort this is the rollback
      // (the budget is deliberately not polled here -- rolling back only
      // shrinks the table, and a partially-moved block must not survive).
      while (cur < best_pos) {
        res.swaps += swap_blocks(mgr, layout, cur);
        ++cur;
      }
      while (cur > best_pos) {
        res.swaps += swap_blocks(mgr, layout, cur - 1);
        --cur;
      }
      if (!res.aborted) ++res.blocks_sifted;
    }
  } catch (...) {
    // Exhaustion thrown from inside a block move (an injected fault, a
    // deadline poll in swap_levels) skipped the settle-at-best rollback
    // above: restore the best order seen and close the session, leaving
    // the manager audit-clean for the caller's recovery.
    mgr.abort_reorder_session();
    throw;
  }
  mgr.reorder_session_end();
  res.nodes_after = mgr.stats().live_nodes;
  return res;
}

SiftResult window_permute(bdd::Manager& mgr, std::size_t window) {
  if (window != 2 && window != 3) {
    throw std::invalid_argument(
        "order::window_permute: window must be 2 or 3");
  }
  SiftResult res;
  res.nodes_before = mgr.stats().live_nodes;
  res.nodes_after = res.nodes_before;
  if (mgr.num_vars() < 2) return res;
  mgr.reorder_session_begin();
  try {
    res.nodes_before = mgr.stats().live_nodes;
    std::vector<Block> layout = layout_of(mgr);
    for (std::size_t i = 0; i + window <= layout.size(); ++i) {
      if (budget_exhausted(mgr)) {
        res.aborted = true;
        break;
      }
      if (window == 2) {
        const std::size_t before = mgr.stats().live_nodes;
        res.swaps += swap_blocks(mgr, layout, i);
        if (mgr.stats().live_nodes >= before) {
          res.swaps += swap_blocks(mgr, layout, i);  // no gain: undo
        }
      } else {
        // All six orders of three blocks, reached by a Gray sequence of
        // five adjacent swaps; keep the shortest prefix achieving the
        // best size, undo the rest (adjacent swaps are self-inverse).
        static constexpr std::size_t kSeq[5] = {0, 1, 0, 1, 0};
        std::size_t best_k = 0;
        std::size_t best_size = mgr.stats().live_nodes;
        for (std::size_t k = 0; k < 5; ++k) {
          res.swaps += swap_blocks(mgr, layout, i + kSeq[k]);
          const std::size_t size = mgr.stats().live_nodes;
          if (size < best_size) {
            best_size = size;
            best_k = k + 1;
          }
        }
        for (std::size_t k = 5; k > best_k; --k) {
          res.swaps += swap_blocks(mgr, layout, i + kSeq[k - 1]);
        }
      }
      ++res.blocks_sifted;
    }
  } catch (...) {
    mgr.abort_reorder_session();
    throw;
  }
  mgr.reorder_session_end();
  res.nodes_after = mgr.stats().live_nodes;
  return res;
}

}  // namespace symcex::order

namespace symcex::bdd {

// Defined here rather than in bdd.cpp: the manager owns the trigger and
// the counters, but the pass itself is order-layer policy.
bool Manager::reorder() {
  if (num_vars_ < 2 || depth_ != 0 || in_reorder_ || order_session_) {
    return false;
  }
  in_reorder_ = true;
  const std::uint64_t t0 = diag::monotonic_ns();
  order::SiftResult result;
  try {
    result = order::sift(*this);
  } catch (...) {
    stats_.reorder_time_ns += diag::monotonic_ns() - t0;
    in_reorder_ = false;
    throw;
  }
  in_reorder_ = false;
  ++stats_.reorder_runs;
  if (result.aborted) ++stats_.reorder_aborts;
  stats_.reorder_nodes_before = result.nodes_before;
  stats_.reorder_nodes_after = result.nodes_after;
  stats_.reorder_time_ns += diag::monotonic_ns() - t0;
  // Rebase the growth watermark on the post-sift size.
  reorder_baseline_ = std::max<std::size_t>(live_nodes_, 2);
  return true;
}

}  // namespace symcex::bdd
