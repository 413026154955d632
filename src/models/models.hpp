// SymCeX -- the model zoo.
//
// Programmatic builders for the transition systems the benchmarks and
// examples run on.  Each returns a finalized TransitionSystem with labels
// and (where appropriate) fairness constraints already registered, so
// callers can immediately check specs by name.
//
//   * seitz_arbiter  -- a speed-independent asynchronous arbiter in the
//     spirit of Figure 3 / Section 6's case study: gate-level model where
//     every gate has an arbitrary delay and a fairness constraint saying
//     it eventually responds.  The default (buggy, fixed-priority ME)
//     variant violates AG(r1 -> AF a1) with a fair lasso counterexample,
//     reproducing the qualitative result the paper reports; the fair_me
//     variant (alternating ME) satisfies it.  See DESIGN.md on the
//     substitution for the exact 1995 netlist.
//   * counter        -- n-bit synchronous counter (optionally stuttering).
//   * peterson       -- two-process mutual exclusion; the buggy variant
//     ("polite" protocol without a turn) livelocks.
//   * dining_philosophers -- classic starvation example on a ring.
//   * scc_chain      -- synthetic structure whose EG-witness construction
//     exercises the Figure 1 (single SCC) and Figure 2 (restart descent
//     through the SCC DAG) behaviours on demand.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ts/transition_system.hpp"

namespace symcex::models {

struct ArbiterOptions {
  /// false: fixed-priority ME element (starves user 1 -- the bug);
  /// true: alternating ME element (liveness holds).
  bool fair_me = false;
  /// Model the shared-server handshake chain (sr/sa gates) behind the ME.
  bool with_server = true;
};

/// Gate-level speed-independent arbiter with per-gate fairness.
/// Labels: r1, r2 (user requests), g1, g2 (ME grants), a1, a2 (user acks),
/// and with_server also sr, sa.  Specs of interest:
///   AG (r1 -> AF a1)   -- FALSE for fair_me=false, TRUE for fair_me=true
///   AG !(g1 & g2)      -- TRUE (the ME exclusivity invariant)
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> seitz_arbiter(
    const ArbiterOptions& options = {});

struct CounterOptions {
  std::uint32_t width = 4;
  /// Allow stutter steps (the counter may hold); adds the "ticked" label
  /// and, if fair_ticking, a fairness constraint GF ticked.
  bool stutter = false;
  bool fair_ticking = false;
  /// Count 0..modulus-1 and wrap there instead of at 2^width (0 = full
  /// range).  With modulus < 2^width the values modulus..2^width-1 still
  /// step (plain increment) but are unreachable from zero, giving the
  /// counter a proper reachable care set -- the shape the don't-care
  /// simplification benchmarks need.  Must be >= 2 when nonzero.
  std::uint64_t modulus = 0;
  /// Tuning of the model's BDD manager (benches sweep the cache ceiling).
  bdd::ManagerOptions manager = {};
};

/// n-bit wrap-around counter.  Labels: zero, max, ticked (if stutter).
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> counter(
    const CounterOptions& options = {});

struct CounterBankOptions {
  std::uint32_t banks = 16;
  std::uint32_t width = 4;
};

/// A bank of independent counters stepping synchronously, each free to
/// hold or increment every cycle.  The state space is 2^(banks*width) --
/// the shape behind the paper's "more than 10^16 states" capability claim
/// [3, 11]: enormous state count, small BDDs, small diameter.
/// Labels: all_zero, all_max, zero0 (bank 0 at zero), max0.
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> counter_bank(
    const CounterBankOptions& options = {});

struct PetersonOptions {
  /// true: drop the turn-based arbitration ("polite" protocol): two
  /// waiting processes block each other forever -- AG(try -> AF crit)
  /// fails with a fair lasso.
  bool buggy = false;
};

/// Two-process Peterson-style mutual exclusion with an explicit scheduler
/// variable and fairness GF(sched = i) per process.
/// Labels: try0, try1, crit0, crit1, idle0, idle1.
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> peterson(
    const PetersonOptions& options = {});

struct PhilosophersOptions {
  std::uint32_t count = 3;
  /// Add fairness GF(moved = i) for each philosopher.
  bool fair_scheduling = true;
};

/// Dining philosophers on a ring (states think/hungry/eat per philosopher;
/// a philosopher may eat only if no neighbour eats).
/// Labels: think<i>, hungry<i>, eat<i>.  AG !(eat_i & eat_{i+1}) holds;
/// AG(hungry_i -> AF eat_i) fails (starvation) even under fair scheduling.
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> dining_philosophers(
    const PhilosophersOptions& options = {});

struct RoundRobinOptions {
  std::uint32_t users = 4;
  /// Grant the token holder only while it requests; rotate otherwise.
  /// false reproduces the camping bug: the holder keeps the token forever.
  bool rotate = true;
  /// Tuning of the model's BDD manager (benches sweep the cache ceiling).
  bdd::ManagerOptions manager = {};
};

/// A scalable n-user round-robin arbiter: a token selects whose request is
/// granted; the token advances (under fairness) whenever the holder is not
/// being served.  Labels: req<i>, gnt<i>, tok<i>.
/// AG (req_i -> AF gnt_i) holds with rotate=true, fails with rotate=false.
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> round_robin_arbiter(
    const RoundRobinOptions& options = {});

struct AbpOptions {
  /// Register the fairness constraints GF(deliver action) and
  /// GF(ack-consumption action); without them the lossy channels may drop
  /// everything forever and the liveness spec fails with a loss lasso.
  bool fair_channels = true;
};

/// Alternating-bit protocol over lossy channels: a retransmitting sender,
/// a receiver that re-acknowledges duplicates, and message/ack channels
/// that may lose.  Labels: accept (the receiver just accepted fresh
/// data), msg_empty, ack_empty, sending0/sending1 (sender's current bit),
/// act_send / act_recv / act_getack / act_lose.
/// Specs of interest:
///   AG EF accept            -- always recoverable (TRUE)
///   AG AF accept            -- progress; TRUE iff fair_channels
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> abp(
    const AbpOptions& options = {});

struct SccChainOptions {
  /// Number of transient states before the terminal cycle.  Each failed
  /// cycle closure restarts one state further down this chain, so the
  /// EG-true witness performs ~chain_len restarts (Figure 2).
  std::uint32_t chain_len = 4;
  /// Length of the terminal cycle (the only nontrivial SCC).
  std::uint32_t cycle_len = 4;
  /// Start inside the cycle instead of at the chain head: the witness then
  /// closes on the first attempt with zero restarts (Figure 1).
  bool start_in_cycle = false;
  /// Place one fairness constraint on a state of the terminal cycle; the
  /// onion rings then steer the construction directly to the cycle.
  bool fairness_in_cycle = false;
};

/// Synthetic SCC chain.  Labels: head, in_cycle, mark (the fairness state).
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> scc_chain(
    const SccChainOptions& options = {});

/// The bundled zoo's names, in canonical order: counter, counter_mod,
/// counter_fair, counter_bank, peterson, peterson_buggy, philosophers,
/// round_robin, abp, seitz_arbiter, scc_chain.
[[nodiscard]] std::vector<std::string> bundled_names();

/// Build a bundled zoo model by name (one fixed small instance of a
/// builder above).  Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<ts::TransitionSystem> bundled(
    const std::string& name);

}  // namespace symcex::models
