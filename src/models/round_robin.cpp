#include <memory>
#include <string>

#include "models/models.hpp"
#include "ts/field.hpp"

namespace symcex::models {

std::unique_ptr<ts::TransitionSystem> round_robin_arbiter(
    const RoundRobinOptions& options) {
  const std::uint32_t n = options.users;
  if (n < 2 || n > 32) {
    throw std::invalid_argument("round_robin_arbiter: users must be in 2..32");
  }
  auto m = std::make_unique<ts::TransitionSystem>(options.manager);
  std::vector<ts::VarId> req;
  req.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    req.push_back(m->add_var("req" + std::to_string(i)));
  }
  ts::Field token(*m, "tok", n);

  bdd::Bdd init = token.eq(0);
  for (const ts::VarId r : req) init &= !m->cur(r);
  m->set_init(init);

  // The grant is combinational: the token holder is served iff requesting.
  auto grant = [&](std::uint32_t i) {
    return token.eq(i) & m->cur(req[i]);
  };

  // Users: four-phase -- raise while idle, drop once granted, or hold.
  // The fairness constraint keeps users from camping on the grant.
  for (std::uint32_t i = 0; i < n; ++i) {
    const bdd::Bdd hold = !(m->next(req[i]) ^ m->cur(req[i]));
    const bdd::Bdd raise = !m->cur(req[i]) & m->next(req[i]);
    const bdd::Bdd release = grant(i) & !m->next(req[i]);
    m->add_trans(hold | raise | release);
    m->add_fairness(!grant(i));
  }

  // Token: holds while the holder is requesting (it is being served),
  // advances otherwise -- unless the rotate=false bug freezes it.
  bdd::Bdd holder_requests = m->manager().zero();
  for (std::uint32_t i = 0; i < n; ++i) {
    holder_requests |= token.eq(i) & m->cur(req[i]);
  }
  if (options.rotate) {
    m->add_trans((holder_requests & token.unchanged()) |
                 (!holder_requests & token.increment_mod()));
  } else {
    m->add_trans(token.unchanged());
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    m->add_label("req" + std::to_string(i), m->cur(req[i]));
    m->add_label("gnt" + std::to_string(i), grant(i));
    m->add_label("tok" + std::to_string(i), token.eq(i));
  }
  m->finalize();
  return m;
}

}  // namespace symcex::models
