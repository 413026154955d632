// SymCeX -- the transition relation as one value (DESIGN.md §9, §12).
//
// Every procedure of the paper -- the EX/EU/EG fixpoints, the fair-EG
// rings and the witness walk -- is a chain of image and preimage steps
// over one transition relation R(v, v').  A Relation holds R as a
// conjunction of clusters together with the early-quantification
// schedules of the two sweeps over them, and its image() and preimage()
// are the only sweep loops in SymCeX: the full system, a cone-of-influence
// reduction and a care-restricted copy are all Relations.
//
// The cluster threshold is the dial between the two extremes: 0 keeps one
// cluster per conjunct, kOneCluster conjoins every conjunct into one.  With
// one cluster the schedules are the whole current / next rail, so each
// sweep is a single Manager::rel_next / rel_prev call (the "monolithic"
// relation of ts::ImageMethod).

#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "bdd/bdd.hpp"

namespace symcex::ts {

class Relation {
 public:
  /// Threshold that conjoins every part into one cluster without probing
  /// intermediate sizes.
  static constexpr std::size_t kOneCluster =
      std::numeric_limits<std::size_t>::max();

  Relation() = default;
  /// Merge `parts` (over the two rails of `num_state_vars` interleaved
  /// state variables) into clusters: walk them in order and conjoin into
  /// the current cluster while the product stays at most `threshold` DAG
  /// nodes (0: one cluster per part).  No parts gives the one cluster
  /// `true`.  Then derive the schedules: image step i quantifies the
  /// current-rail variables no later cluster reads, preimage step i the
  /// next-rail ones; variables no cluster reads go to step 0.
  Relation(bdd::Manager& mgr, const std::vector<bdd::Bdd>& parts,
           std::size_t threshold, std::size_t num_state_vars);

  /// Successors of `states`.  On a restricted() copy the result is exact
  /// provided `states` implies the care set.
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& states) const;
  /// Predecessors of `states` (the EX operator).  On a restricted() copy
  /// the operand and the intermediate sweep results are minimized against
  /// the care set and the result is intersected with it, so the returned
  /// set is exactly  (EX states) & care_set().
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& states) const;

  /// A copy whose clusters are minimized against `care` (each kept only
  /// when it does not grow), carrying `care` for preimage().  `care` must
  /// be satisfiable and closed under this relation (successors of care
  /// states are care states, as for a reachable set): the copy then agrees
  /// with this relation on every row whose current state is in `care`.
  /// Supports never grow, so the schedules carry over unchanged.  Call it
  /// on an exact relation.
  [[nodiscard]] Relation restricted(const bdd::Bdd& care) const;

  [[nodiscard]] const std::vector<bdd::Bdd>& clusters() const {
    return clusters_;
  }
  /// Cube quantified at each image / preimage step (one per cluster).
  [[nodiscard]] const std::vector<bdd::Bdd>& image_schedule() const {
    return img_sched_;
  }
  [[nodiscard]] const std::vector<bdd::Bdd>& preimage_schedule() const {
    return pre_sched_;
  }
  /// The care set of a restricted() copy; null for an exact relation.
  [[nodiscard]] const bdd::Bdd& care_set() const { return care_; }

 private:
  bdd::Manager* mgr_ = nullptr;
  std::vector<bdd::Bdd> clusters_;
  std::vector<bdd::Bdd> img_sched_;
  std::vector<bdd::Bdd> pre_sched_;
  bdd::Bdd care_;
};

}  // namespace symcex::ts
