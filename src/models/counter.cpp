#include <memory>

#include "models/models.hpp"

namespace symcex::models {

std::unique_ptr<ts::TransitionSystem> counter(const CounterOptions& options) {
  if (options.width == 0 || options.width > 62) {
    throw std::invalid_argument("counter: width must be in 1..62");
  }
  if (options.modulus != 0 &&
      (options.modulus < 2 ||
       options.modulus > (std::uint64_t{1} << options.width))) {
    throw std::invalid_argument("counter: modulus must be in 2..2^width");
  }
  auto m = std::make_unique<ts::TransitionSystem>(options.manager);
  const std::vector<ts::VarId> bits = m->add_vector("b", options.width);
  ts::VarId ticked = 0;
  if (options.stutter) ticked = m->add_var("ticked");

  bdd::Bdd init = m->manager().one();
  for (const ts::VarId b : bits) init &= !m->cur(b);
  if (options.stutter) init &= !m->cur(ticked);
  m->set_init(init);

  // Increment relation: b0' = !b0, b_i' = b_i xor (carry of lower bits).
  bdd::Bdd count = m->manager().one();
  bdd::Bdd carry = m->manager().one();
  for (const ts::VarId b : bits) {
    count &= !(m->next(b) ^ (m->cur(b) ^ carry));
    carry &= m->cur(b);
  }
  if (options.modulus != 0) {
    // Wrap at modulus-1: from that value go to 0; every other value
    // (including the unreachable ones >= modulus) increments as usual, so
    // the relation stays total and values outside 0..modulus-1 form a
    // genuine don't-care region.
    bdd::Bdd at_wrap = m->manager().one();
    bdd::Bdd to_zero = m->manager().one();
    for (std::uint32_t i = 0; i < options.width; ++i) {
      const bool bit = ((options.modulus - 1) >> i) & 1;
      at_wrap &= bit ? m->cur(bits[i]) : !m->cur(bits[i]);
      to_zero &= !m->next(bits[i]);
    }
    count = (at_wrap & to_zero) | (!at_wrap & count);
  }
  if (options.stutter) {
    bdd::Bdd hold = m->manager().one();
    for (const ts::VarId b : bits) hold &= !(m->next(b) ^ m->cur(b));
    // "ticked" records whether the last step counted.
    m->add_trans((count & m->next(ticked)) | (hold & !m->next(ticked)));
    if (options.fair_ticking) m->add_fairness(m->cur(ticked));
  } else {
    m->add_trans(count);
  }

  bdd::Bdd zero = m->manager().one();
  bdd::Bdd max = m->manager().one();
  for (const ts::VarId b : bits) {
    zero &= !m->cur(b);
    max &= m->cur(b);
  }
  m->add_label("zero", zero);
  m->add_label("max", max);
  if (options.modulus != 0) {
    // The last reachable value (modulus-1); "max" stays the all-ones
    // pattern, which is unreachable when modulus < 2^width.
    bdd::Bdd wrap = m->manager().one();
    for (std::uint32_t i = 0; i < options.width; ++i) {
      const bool bit = ((options.modulus - 1) >> i) & 1;
      wrap &= bit ? m->cur(bits[i]) : !m->cur(bits[i]);
    }
    m->add_label("wrap", wrap);
  }
  if (options.stutter) m->add_label("ticked", m->cur(ticked));
  m->finalize();
  return m;
}

std::unique_ptr<ts::TransitionSystem> counter_bank(
    const CounterBankOptions& options) {
  if (options.banks == 0 || options.width == 0 ||
      options.banks * options.width > 400) {
    throw std::invalid_argument("counter_bank: bad dimensions");
  }
  auto m = std::make_unique<ts::TransitionSystem>();
  std::vector<std::vector<ts::VarId>> banks;
  banks.reserve(options.banks);
  for (std::uint32_t k = 0; k < options.banks; ++k) {
    banks.push_back(m->add_vector(std::string("c").append(std::to_string(k)),
                                  options.width));
  }
  bdd::Bdd init = m->manager().one();
  for (const auto& bits : banks) {
    for (const ts::VarId b : bits) init &= !m->cur(b);
  }
  m->set_init(init);
  // One conjunct per bank: hold or increment (independent choices give a
  // genuinely partitioned relation with 2^banks joint transitions).
  for (const auto& bits : banks) {
    bdd::Bdd hold = m->manager().one();
    bdd::Bdd inc = m->manager().one();
    bdd::Bdd carry = m->manager().one();
    for (const ts::VarId b : bits) {
      hold &= !(m->next(b) ^ m->cur(b));
      inc &= !(m->next(b) ^ (m->cur(b) ^ carry));
      carry &= m->cur(b);
    }
    m->add_trans(hold | inc);
  }
  bdd::Bdd all_zero = m->manager().one();
  bdd::Bdd all_max = m->manager().one();
  bdd::Bdd zero0 = m->manager().one();
  bdd::Bdd max0 = m->manager().one();
  for (std::uint32_t k = 0; k < options.banks; ++k) {
    for (const ts::VarId b : banks[k]) {
      all_zero &= !m->cur(b);
      all_max &= m->cur(b);
      if (k == 0) {
        zero0 &= !m->cur(b);
        max0 &= m->cur(b);
      }
    }
  }
  m->add_label("all_zero", all_zero);
  m->add_label("all_max", all_max);
  m->add_label("zero0", zero0);
  m->add_label("max0", max0);
  m->finalize();
  return m;
}

}  // namespace symcex::models
