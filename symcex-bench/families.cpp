#include "families.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace symcex::bench {

namespace {

std::string str(unsigned v) { return std::to_string(v); }

/// splitmix64 finaliser: spreads nearby seeds over the whole range.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// "a & b & c" over `names`; "TRUE" when empty.
std::string conj(const std::vector<std::string>& names) {
  if (names.empty()) return "TRUE";
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : " & ") + n;
  return out;
}

Job generated(std::string family, unsigned n, std::string model,
              std::string text, std::string spec, bool expected) {
  Job job;
  job.family = std::move(family);
  job.n = n;
  job.model = std::move(model);
  job.model_text = std::move(text);
  job.spec = std::move(spec);
  job.expected = expected;
  return job;
}

// Per-family job makers.  The draw only chooses which component index a
// spec names; the verdict never depends on it.

void counter_jobs(std::vector<Job>& out, unsigned width) {
  const std::string text = counter_smv(width);
  const std::string model = "counter-" + str(width);
  // 2^width EU / EG iterations each; no trace for the true AGs.
  out.push_back(generated("counter", width, model, text, "AG EF zero", true));
  out.push_back(generated("counter", width, model, text, "AG AF max", true));
  out.push_back(
      generated("counter", width, model, text, "AG (max -> AX zero)", true));
}

void round_robin_jobs(std::vector<Job>& out, unsigned users,
                      const Draw& draw) {
  const std::string text = round_robin_smv(users, true);
  const std::string model = "round_robin-" + str(users);
  const unsigned i = draw.index(model + "/i", 0, users - 1);
  const unsigned j = (i + draw.index(model + "/j", 1, users - 1)) % users;
  out.push_back(generated("round_robin", users, model, text,
                          "AG (req" + str(i) + " -> AF gnt" + str(i) + ")",
                          true));
  out.push_back(generated("round_robin", users, model, text,
                          "AG !(gnt" + str(i) + " & gnt" + str(j) + ")", true));
}

void camping_jobs(std::vector<Job>& out, unsigned users, const Draw& draw) {
  const std::string text = round_robin_smv(users, false);
  const std::string model = "round_robin_camping-" + str(users);
  // The frozen token stays with user 0, so every other user starves.
  const unsigned i = draw.index(model, 1, users - 1);
  out.push_back(generated("round_robin_camping", users, model, text,
                          "AG (req" + str(i) + " -> AF gnt" + str(i) + ")",
                          false));
  out.push_back(
      generated("round_robin_camping", users, model, text, "AG !gnt0", false));
}

void philosopher_jobs(std::vector<Job>& out, unsigned count,
                      const Draw& draw) {
  const std::string text = philosophers_smv(count);
  const std::string model = "philosophers-" + str(count);
  const unsigned i = draw.index(model, 0, count - 1);
  out.push_back(generated("philosophers", count, model, text,
                          "AG (hungry" + str(i) + " -> AF eat" + str(i) + ")",
                          false));
  out.push_back(generated("philosophers", count, model, text,
                          "AG !eat" + str(i), false));
}

void counter_bank_jobs(std::vector<Job>& out, unsigned banks,
                       const Draw& draw) {
  const unsigned k = draw.index("counter_bank-" + str(banks), 0, banks - 1);
  const std::string text = counter_bank_smv(banks, 4, {k});
  const std::string model = "counter_bank-" + str(banks) + "-w" + str(k);
  out.push_back(
      generated("counter_bank", banks, model, text, "AG AF all_max", false));
  out.push_back(generated("counter_bank", banks, model, text,
                          "AG (zero" + str(k) + " -> AF max" + str(k) + ")",
                          false));
  // A 15-step counterexample path over every bank's bits.
  out.push_back(generated("counter_bank", banks, model, text,
                          "AG !max" + str(k), false));
}

void seitz_jobs(std::vector<Job>& out) {
  const std::string text = seitz_arbiter_smv();
  out.push_back(generated("seitz_arbiter", 0, "seitz_arbiter", text,
                          "AG (r1 -> AF a1)", false));
  out.push_back(generated("seitz_arbiter", 0, "seitz_arbiter", text,
                          "AG (r1 -> AF g1)", false));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read model file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

unsigned Draw::index(const std::string& slot, unsigned lo, unsigned hi) const {
  std::uint64_t h = seed_;
  for (const char c : slot) h = mix(h ^ static_cast<unsigned char>(c));
  return lo + static_cast<unsigned>((h + pass_) % (hi - lo + 1));
}

std::string Job::smv_text() const {
  if (spec_index >= 0) return model_text;
  return model_text + "SPEC " + spec + "\n";
}

const std::vector<Family>& families() {
  static const std::vector<Family> kFamilies = {
      {"counter",
       "deep fixpoints: 2^width EU/EG iterations over tiny BDDs, so the "
       "fixpoint loop and the computed cache dominate"},
      {"round_robin",
       "wide fixpoints: one fairness constraint and one conjunct per user, so "
       "fair EG nests N inner EUs over a partitioned relation"},
      {"bundled",
       "the shipped examples/models files: small hand-written models whose "
       "cost is mostly the front end, as a typical SMV user sees it"},
      {"counter_bank",
       "2^(4N) states with small BDDs and long state vectors: trace decoding, "
       "certification and cover export grow with N while the check stays "
       "cheap"},
      {"round_robin_camping",
       "the token-camping bug: fair-lasso counterexamples whose cycle must "
       "visit N fairness constraints"},
      {"philosophers",
       "an interleaved ring whose single disjunctive conjunct has a DNF cover "
       "that grows steeply with N (the evidence cover cap)"},
      {"seitz_arbiter",
       "the paper's case study shape: a gate-level speed-independent arbiter "
       "with per-gate fairness and a starvation lasso"},
  };
  return kFamilies;
}

std::string counter_smv(unsigned width) {
  std::ostringstream s;
  s << "MODULE main\nVAR\n";
  for (unsigned i = 0; i < width; ++i) s << "  b" << i << " : boolean;\n";
  s << "ASSIGN\n";
  std::vector<std::string> lower;
  for (unsigned i = 0; i < width; ++i) {
    const std::string b = "b" + str(i);
    s << "  init(" << b << ") := FALSE;\n";
    if (i == 0) {
      s << "  next(b0) := !b0;\n";
    } else {
      s << "  next(" << b << ") := " << b << " xor (" << conj(lower) << ");\n";
    }
    lower.push_back(b);
  }
  std::vector<std::string> clear;
  for (unsigned i = 0; i < width; ++i) clear.push_back("!b" + str(i));
  s << "DEFINE\n  zero := " << conj(clear) << ";\n  max := " << conj(lower)
    << ";\n";
  return s.str();
}

std::string round_robin_smv(unsigned users, bool rotate) {
  std::ostringstream s;
  s << "MODULE main\nVAR\n";
  for (unsigned i = 0; i < users; ++i) s << "  req" << i << " : boolean;\n";
  s << "  tok : 0.." << users - 1 << ";\nASSIGN\n  init(tok) := 0;\n";
  for (unsigned i = 0; i < users; ++i) {
    // Four-phase user: raise while idle, release only once granted.
    s << "  init(req" << i << ") := FALSE;\n"
      << "  next(req" << i << ") := case\n"
      << "      gnt" << i << " : {TRUE, FALSE};\n"
      << "      !req" << i << " : {FALSE, TRUE};\n"
      << "      TRUE : req" << i << ";\n    esac;\n";
  }
  if (rotate) {
    s << "  next(tok) := case\n      served : tok;\n      tok = " << users - 1
      << " : 0;\n      TRUE : tok + 1;\n    esac;\n";
  } else {
    s << "  next(tok) := tok;\n";
  }
  s << "DEFINE\n";
  std::string served;
  for (unsigned i = 0; i < users; ++i) {
    s << "  gnt" << i << " := tok = " << i << " & req" << i << ";\n";
    served += (served.empty() ? "" : " | ") + ("gnt" + str(i));
  }
  s << "  served := " << served << ";\n";
  // Users do not camp on a grant.
  for (unsigned i = 0; i < users; ++i) s << "FAIRNESS !gnt" << i << "\n";
  return s.str();
}

std::string philosophers_smv(unsigned count) {
  std::ostringstream s;
  s << "MODULE main\nVAR\n";
  for (unsigned i = 0; i < count; ++i) {
    s << "  p" << i << " : {think, hungry, eat};\n";
  }
  s << "  moved : 0.." << count - 1 << ";\nASSIGN\n  init(moved) := 0;\n";
  for (unsigned i = 0; i < count; ++i) s << "  init(p" << i << ") := think;\n";
  s << "DEFINE\n";
  for (unsigned i = 0; i < count; ++i) {
    s << "  hungry" << i << " := p" << i << " = hungry;\n"
      << "  eat" << i << " := p" << i << " = eat;\n";
  }
  // One TRANS over all philosophers (a disjunction of moves, each with
  // its frame), so the relation is a single conjunct whose cover grows
  // steeply with N -- at N = 9 it passes the evidence cover cap.
  s << "TRANS\n";
  for (unsigned i = 0; i < count; ++i) {
    const std::string p = "p" + str(i);
    const std::string left = "p" + str((i + count - 1) % count);
    const std::string right = "p" + str((i + 1) % count);
    std::vector<std::string> frame;
    for (unsigned j = 0; j < count; ++j) {
      if (j != i) frame.push_back("next(p" + str(j) + ") = p" + str(j));
    }
    s << (i == 0 ? "    " : "  | ") << "(next(moved) = " << i << " & ((" << p
      << " = think & (next(" << p << ") = think | next(" << p
      << ") = hungry)) | (" << p << " = hungry & " << left << " != eat & "
      << right << " != eat & next(" << p << ") = eat) | (" << p
      << " = hungry & next(" << p << ") = hungry) | (" << p
      << " = eat & next(" << p << ") = think)) & " << conj(frame) << ")\n";
  }
  for (unsigned i = 0; i < count; ++i) s << "FAIRNESS moved = " << i << "\n";
  return s.str();
}

std::string counter_bank_smv(unsigned banks, unsigned width,
                             const std::vector<unsigned>& watched) {
  const auto bit = [](unsigned k, unsigned j) {
    return "c" + str(k) + "_" + str(j);
  };
  std::ostringstream s;
  s << "MODULE main\nVAR\n";
  for (unsigned k = 0; k < banks; ++k) {
    for (unsigned j = 0; j < width; ++j) s << "  " << bit(k, j) << " : boolean;\n";
  }
  s << "ASSIGN\n";
  for (unsigned k = 0; k < banks; ++k) {
    for (unsigned j = 0; j < width; ++j) {
      s << "  init(" << bit(k, j) << ") := FALSE;\n";
    }
  }
  s << "DEFINE\n";
  std::vector<std::string> all_clear;
  std::vector<std::string> all_set;
  for (unsigned k = 0; k < banks; ++k) {
    std::vector<std::string> clear;
    std::vector<std::string> set;
    for (unsigned j = 0; j < width; ++j) {
      clear.push_back("!" + bit(k, j));
      set.push_back(bit(k, j));
    }
    all_clear.insert(all_clear.end(), clear.begin(), clear.end());
    all_set.insert(all_set.end(), set.begin(), set.end());
    for (const unsigned w : watched) {
      if (w == k) {
        s << "  zero" << k << " := " << conj(clear) << ";\n"
          << "  max" << k << " := " << conj(set) << ";\n";
      }
    }
  }
  s << "  all_zero := " << conj(all_clear) << ";\n"
    << "  all_max := " << conj(all_set) << ";\n";
  // One conjunct per bank: hold every bit, or increment the bank.
  for (unsigned k = 0; k < banks; ++k) {
    std::vector<std::string> hold;
    std::vector<std::string> inc;
    std::vector<std::string> lower;
    for (unsigned j = 0; j < width; ++j) {
      const std::string b = bit(k, j);
      hold.push_back("next(" + b + ") = " + b);
      inc.push_back("next(" + b + ") = (" + b + " xor (" + conj(lower) + "))");
      lower.push_back(b);
    }
    s << "TRANS (" << conj(hold) << ") | (" << conj(inc) << ")\n";
  }
  return s.str();
}

std::string seitz_arbiter_smv() {
  return R"(MODULE main
VAR
  r1 : boolean; r2 : boolean; g1 : boolean; g2 : boolean;
  sr : boolean; sa : boolean; a1 : boolean; a2 : boolean;
DEFINE
  g1_t := (g1 & r1) | (r1 & !g2 & !g1 & !r2);
  g2_t := (g2 & r2) | (r2 & !g1 & !g2);
  sr_t := g1 | g2;
  sa_t := sr;
  a1_t := g1 & sa;
  a2_t := g2 & sa;
ASSIGN
  init(r1) := FALSE; init(r2) := FALSE; init(g1) := FALSE; init(g2) := FALSE;
  init(sr) := FALSE; init(sa) := FALSE; init(a1) := FALSE; init(a2) := FALSE;
  next(r1) := case r1 = a1 : {r1, !r1}; TRUE : r1; esac;
  next(r2) := case r2 = a2 : {r2, !r2}; TRUE : r2; esac;
  next(g1) := {g1, g1_t};
  next(g2) := {g2, g2_t};
  next(sr) := {sr, sr_t};
  next(sa) := {sa, sa_t};
  next(a1) := {a1, a1_t};
  next(a2) := {a2, a2_t};
TRANS !(next(g1) & next(g2))
FAIRNESS !(r1 & a1)
FAIRNESS !(r2 & a2)
FAIRNESS g1 = g1_t
FAIRNESS g2 = g2_t
FAIRNESS sr = sr_t
FAIRNESS sa = sa_t
FAIRNESS a1 = a1_t
FAIRNESS a2 = a2_t
)";
}

std::vector<Job> bundled_jobs(const std::string& models_dir) {
  // Verdicts per SPEC, in file order.
  struct File {
    const char* name;
    std::vector<bool> verdicts;
  };
  static const File kFiles[] = {
      {"abp", {true, true, true}},
      {"arbiter", {true, false, true}},
      {"elevator", {true, true, false}},
      {"mutex", {true, true, true, true}},
  };
  std::vector<Job> out;
  for (const File& f : kFiles) {
    const std::string text = read_file(models_dir + "/" + f.name + ".smv");
    for (std::size_t i = 0; i < f.verdicts.size(); ++i) {
      Job job;
      job.family = "bundled";
      job.model = f.name;
      job.model_text = text;
      job.spec = std::string(f.name) + "#" + std::to_string(i);
      job.expected = f.verdicts[i];
      job.spec_index = static_cast<int>(i);
      out.push_back(std::move(job));
    }
  }
  return out;
}

std::vector<Job> verdict_deep_pool(const Draw& draw,
                                   const std::string& models_dir) {
  std::vector<Job> pool;
  // Every size in the range, so job costs form a continuum rather than a
  // few clumps and the percentiles do not sit on a gap between two.
  for (unsigned width = 10; width <= 14; ++width) counter_jobs(pool, width);
  for (unsigned users = 4; users <= 12; ++users) {
    round_robin_jobs(pool, users, draw);
  }
  for (Job& job : bundled_jobs(models_dir)) pool.push_back(std::move(job));
  return pool;
}

std::vector<Job> evidence_wide_pool(const Draw& draw) {
  std::vector<Job> pool;
  for (const unsigned banks : {8u, 16u, 24u, 32u}) {
    counter_bank_jobs(pool, banks, draw);
  }
  for (const unsigned users : {4u, 6u, 8u, 10u, 12u}) {
    camping_jobs(pool, users, draw);
  }
  // Philosophers stop at 6.  At 7 the bundle is 6 MB and its replay alone
  // is 40% of a pass, swinging with memory contention; at 9 the cover of
  // the single conjunct passes the evidence cap (the self-test covers that
  // failure path).
  for (const unsigned count : {3u, 4u, 5u, 6u}) {
    philosopher_jobs(pool, count, draw);
  }
  seitz_jobs(pool);
  return pool;
}

std::vector<Job> smallest_instances(const std::string& models_dir) {
  const Draw draw(1, 0);
  std::vector<Job> out = bundled_jobs(models_dir);
  counter_jobs(out, 3);
  round_robin_jobs(out, 3, draw);
  camping_jobs(out, 3, draw);
  philosopher_jobs(out, 3, draw);
  counter_bank_jobs(out, 2, draw);
  seitz_jobs(out);
  return out;
}

}  // namespace symcex::bench
