// Variable dependency graph mined from per-conjunct supports (DESIGN.md
// §12).  Works on any finalized TransitionSystem -- the SMV front end,
// the bundled model builders and hand-built systems all end up here,
// because the rail layout (state var v <-> BDD vars 2v/2v+1) is the one
// invariant every builder shares.

#include <algorithm>
#include <set>

#include "analyze/analyze.hpp"
#include "fnv1a.hpp"

namespace symcex::analyze {

std::uint64_t DepGraph::fingerprint() const {
  // Every value is folded as 8 bytes so ids and set sizes cannot alias.
  Fnv1a h(Fnv1a::kLegacyBasis);
  const auto mix_set = [&h](const std::vector<ts::VarId>& set) {
    h.le(set.size());
    for (const ts::VarId v : set) h.le(v);
  };
  h.le(num_vars);
  h.le(parts.size());
  for (const PartSupport& p : parts) {
    mix_set(p.reads);
    mix_set(p.writes);
  }
  return h.value();
}

DepGraph build_dep_graph(const ts::TransitionSystem& ts) {
  DepGraph g;
  g.num_vars = ts.num_state_vars();
  g.parts.reserve(ts.trans_parts().size());
  std::vector<std::set<ts::VarId>> deps(g.num_vars);
  for (const bdd::Bdd& part : ts.trans_parts()) {
    DepGraph::PartSupport ps;
    for (const std::uint32_t x : part.support()) {
      const auto v = static_cast<ts::VarId>(x / 2);
      (x % 2 == 0 ? ps.reads : ps.writes).push_back(v);
      if (ps.all.empty() || ps.all.back() != v) ps.all.push_back(v);
    }
    // support() is ascending and the rails interleave, so reads/writes and
    // the de-duplicated union above are already sorted.
    for (const ts::VarId w : ps.writes) {
      deps[w].insert(ps.reads.begin(), ps.reads.end());
    }
    g.parts.push_back(std::move(ps));
  }
  g.deps.reserve(g.num_vars);
  for (const auto& d : deps) g.deps.emplace_back(d.begin(), d.end());
  return g;
}

}  // namespace symcex::analyze
