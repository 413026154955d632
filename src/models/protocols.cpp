#include <memory>
#include <string>

#include "models/models.hpp"
#include "ts/field.hpp"

namespace symcex::models {

namespace {

// Peterson process states.
constexpr std::uint32_t kIdle = 0;
constexpr std::uint32_t kTry = 1;
constexpr std::uint32_t kCrit = 2;

// Philosopher states.
constexpr std::uint32_t kThink = 0;
constexpr std::uint32_t kHungry = 1;
constexpr std::uint32_t kEat = 2;

}  // namespace

std::unique_ptr<ts::TransitionSystem> peterson(const PetersonOptions& options) {
  auto m = std::make_unique<ts::TransitionSystem>();
  ts::Field pc0(*m, "pc0", 3);
  ts::Field pc1(*m, "pc1", 3);
  const ts::VarId turn = m->add_var("turn");   // whose turn to enter
  const ts::VarId sched = m->add_var("sched");  // which process moved last

  m->set_init(pc0.eq(kIdle) & pc1.eq(kIdle) & !m->cur(turn) & !m->cur(sched));

  auto moves = [&](const ts::Field& me, const ts::Field& other,
                   bool turn_value) {
    auto& mm = *m;
    const bdd::Bdd turn_mine =
        turn_value ? mm.cur(turn) : !mm.cur(turn);
    // idle -> idle (the process may never want the resource)
    bdd::Bdd step = me.eq(kIdle, false) & me.eq(kIdle, true) &
                    !(mm.next(turn) ^ mm.cur(turn));
    // idle -> try, ceding the turn to the other process
    step |= me.eq(kIdle, false) & me.eq(kTry, true) &
            (turn_value ? !mm.next(turn) : mm.next(turn));
    // try -> crit when the other process is idle or it is our turn
    // (the buggy "polite" variant demands the other process be idle,
    //  which livelocks when both are trying).
    const bdd::Bdd gate = options.buggy
                              ? other.eq(kIdle, false)
                              : (other.eq(kIdle, false) | turn_mine);
    step |= me.eq(kTry, false) & gate & me.eq(kCrit, true) &
            !(mm.next(turn) ^ mm.cur(turn));
    // try -> try (busy wait) when blocked
    step |= me.eq(kTry, false) & !gate & me.eq(kTry, true) &
            !(mm.next(turn) ^ mm.cur(turn));
    // crit -> idle
    step |= me.eq(kCrit, false) & me.eq(kIdle, true) &
            !(mm.next(turn) ^ mm.cur(turn));
    return step & other.unchanged();
  };

  // Interleaving: exactly one process moves per step; "sched" records it.
  const bdd::Bdd move0 = moves(pc0, pc1, false) & !m->next(sched);
  const bdd::Bdd move1 = moves(pc1, pc0, true) & m->next(sched);
  m->add_trans(move0 | move1);

  // Weak scheduling fairness: each process runs infinitely often.
  m->add_fairness(!m->cur(sched));
  m->add_fairness(m->cur(sched));

  m->add_label("idle0", pc0.eq(kIdle));
  m->add_label("idle1", pc1.eq(kIdle));
  m->add_label("try0", pc0.eq(kTry));
  m->add_label("try1", pc1.eq(kTry));
  m->add_label("crit0", pc0.eq(kCrit));
  m->add_label("crit1", pc1.eq(kCrit));
  m->finalize();
  return m;
}

std::unique_ptr<ts::TransitionSystem> dining_philosophers(
    const PhilosophersOptions& options) {
  const std::uint32_t n = options.count;
  if (n < 2 || n > 16) {
    throw std::invalid_argument("dining_philosophers: count must be in 2..16");
  }
  auto m = std::make_unique<ts::TransitionSystem>();
  std::vector<ts::Field> phil;
  phil.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    phil.emplace_back(*m, std::string("p").append(std::to_string(i)), 3);
  }
  ts::Field moved(*m, "moved", n < 2 ? 2 : n);

  bdd::Bdd init = moved.eq(0);
  for (const auto& p : phil) init &= p.eq(kThink);
  m->set_init(init);

  bdd::Bdd trans = m->manager().zero();
  for (std::uint32_t i = 0; i < n; ++i) {
    const ts::Field& me = phil[i];
    const ts::Field& left = phil[(i + n - 1) % n];
    const ts::Field& right = phil[(i + 1) % n];
    // think -> hungry | think ; hungry -> eat (neighbours not eating) |
    // hungry ; eat -> think.
    bdd::Bdd step = me.eq(kThink, false) &
                    (me.eq(kHungry, true) | me.eq(kThink, true));
    step |= me.eq(kHungry, false) & !left.eq(kEat, false) &
            !right.eq(kEat, false) & me.eq(kEat, true);
    step |= me.eq(kHungry, false) & me.eq(kHungry, true);
    step |= me.eq(kEat, false) & me.eq(kThink, true);
    bdd::Bdd frame = m->manager().one();
    for (std::uint32_t j = 0; j < n; ++j) {
      if (j != i) frame &= phil[j].unchanged();
    }
    trans |= step & frame & moved.eq(i, true);
  }
  m->add_trans(trans);

  if (options.fair_scheduling) {
    for (std::uint32_t i = 0; i < n; ++i) m->add_fairness(moved.eq(i));
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    m->add_label("think" + std::to_string(i), phil[i].eq(kThink));
    m->add_label("hungry" + std::to_string(i), phil[i].eq(kHungry));
    m->add_label("eat" + std::to_string(i), phil[i].eq(kEat));
  }
  m->finalize();
  return m;
}

}  // namespace symcex::models
