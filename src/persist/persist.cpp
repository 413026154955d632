// Snapshot format implementation (see persist.hpp and DESIGN.md section 13).
//
// This translation unit also defines bdd::Manager::save_snapshot /
// load_snapshot: the format layer needs the manager's private node table
// and level maps, and -- like Manager::reorder() living in src/order --
// the member definitions live with the policy that owns them.  All
// private access funnels through persist::ManagerAccess (the friend
// bdd.hpp declares).

#include "persist/persist.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "fnv1a.hpp"
#include "guard/config.hpp"
#include "guard/fault.hpp"
#include "version.hpp"

namespace symcex::persist {

// version.hpp duplicates the format version so the zero-dependency tools
// can report it; this pin makes a bump that forgets the copy fail here.
static_assert(version::kSnapshotFormatVersion == kSnapshotVersion,
              "src/version.hpp kSnapshotFormatVersion is out of date");

// ---------------------------------------------------------------------------
// Byte packing (explicit little-endian; no struct punning)
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'S', 'Y', 'M', 'C', 'E', 'X', 'S', 'N'};
constexpr const char* kProducer = "symcex-persist";
constexpr std::uint32_t kNoChild = 0xFFFFFFFFu;

// Sanity ceiling on any single section: snapshots are big but not
// unbounded, and a corrupted length field must not drive a multi-GB
// allocation before the checksum can catch it.
constexpr std::uint64_t kMaxSectionBytes = 1ull << 32;

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked reader over one section payload.  Every overrun is a
/// typed "truncated" error naming the section -- a bit-flipped length
/// inside a payload must not walk off the end.
class Cursor {
 public:
  Cursor(const std::string& buf, std::string tag)
      : buf_(buf), tag_(std::move(tag)) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  void expect_end() const {
    if (pos_ != buf_.size()) {
      throw SnapshotError("truncated", "section " + tag_ + " has " +
                                           std::to_string(buf_.size() - pos_) +
                                           " trailing bytes");
    }
  }

 private:
  void need(std::size_t n) {
    if (buf_.size() - pos_ < n) {
      throw SnapshotError("truncated",
                          "section " + tag_ + " payload ends early");
    }
  }

  const std::string& buf_;
  std::string tag_;
  std::size_t pos_ = 0;
};

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size) {
  Fnv1a h;
  h.bytes(data, size);
  return h.value();
}

// ---------------------------------------------------------------------------
// Container: header + checksummed sections + END trailer
// ---------------------------------------------------------------------------

namespace {

struct Section {
  std::string tag;  // exactly 4 characters
  std::string payload;
};

const std::unordered_set<std::string>& known_tags() {
  static const std::unordered_set<std::string> tags = {
      "META", "VARS", "ORDR", "NODE", "ROOT", "FORM", "FRNT", "END "};
  return tags;
}

/// Serialize the container.  Each stream write goes through the
/// "persist-write" fault site; an injected short write persists a prefix
/// and throws, simulating a torn write / full disk.
void write_container(std::ostream& os, const std::vector<Section>& sections) {
  const auto sink = [&os](const std::string& bytes) {
    if (guard::fault_fire(guard::FaultKind::kIoShortWrite, "persist-write")) {
      os.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
      os.flush();
      throw SnapshotError("io", "injected short write");
    }
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os) throw SnapshotError("io", "stream write failed");
  };

  std::string header(kMagic, sizeof(kMagic));
  put_u32(header, kSnapshotVersion);
  put_u32(header, 0);  // flags, reserved
  sink(header);

  const auto write_section = [&](const std::string& tag,
                                 const std::string& payload) {
    std::string bytes = tag;
    put_u64(bytes, payload.size());
    bytes.append(payload);
    put_u64(bytes, fnv1a64(payload.data(), payload.size()));
    sink(bytes);
  };
  for (const Section& s : sections) write_section(s.tag, s.payload);
  write_section("END ", "");
}

/// Parse and validate a whole container image.  Every corruption mode
/// has a stable check name; nothing is trusted before its checksum.
std::vector<Section> read_container(const std::string& bytes) {
  std::size_t pos = 0;
  const auto remaining = [&] { return bytes.size() - pos; };

  if (remaining() < sizeof(kMagic) + 8) {
    throw SnapshotError("truncated", "file shorter than the header");
  }
  if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("magic", "not a symcex snapshot");
  }
  pos = sizeof(kMagic);
  const auto read_u32 = [&] {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos++]))
           << (8 * i);
    }
    return v;
  };
  const auto read_u64 = [&] {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[pos++]))
           << (8 * i);
    }
    return v;
  };
  const std::uint32_t version = read_u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError(
        "version", "snapshot version " + std::to_string(version) +
                       " (this build reads version " +
                       std::to_string(kSnapshotVersion) +
                       "; any format change bumps the version)");
  }
  (void)read_u32();  // flags, reserved

  std::vector<Section> sections;
  std::unordered_set<std::string> seen;
  bool ended = false;
  while (!ended) {
    if (remaining() < 4 + 8) {
      throw SnapshotError("truncated", "file ends inside a section header "
                                       "(no END trailer: torn write?)");
    }
    Section s;
    s.tag = bytes.substr(pos, 4);
    pos += 4;
    if (!known_tags().contains(s.tag)) {
      throw SnapshotError("unknown-section", "unrecognized tag '" + s.tag +
                                                 "' (same-version files "
                                                 "never add sections)");
    }
    const std::uint64_t len = read_u64();
    if (len > kMaxSectionBytes) {
      throw SnapshotError("oversized-length",
                          "section " + s.tag + " claims " +
                              std::to_string(len) + " bytes");
    }
    if (len + 8 > remaining()) {
      throw SnapshotError("oversized-length",
                          "section " + s.tag + " overruns the file");
    }
    s.payload = bytes.substr(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    const std::uint64_t stored = read_u64();
    const std::uint64_t actual =
        fnv1a64(s.payload.data(), s.payload.size());
    if (stored != actual) {
      throw SnapshotError("checksum",
                          "section " + s.tag + " checksum mismatch");
    }
    if (!seen.insert(s.tag).second) {
      throw SnapshotError("duplicate-section",
                          "section " + s.tag + " appears twice");
    }
    if (s.tag == "END ") {
      ended = true;
    } else {
      sections.push_back(std::move(s));
    }
  }
  if (remaining() != 0) {
    throw SnapshotError("truncated",
                        "trailing bytes after the END section");
  }
  return sections;
}

std::string read_file(const std::string& path) {
  if (guard::fault_fire(guard::FaultKind::kIoFail, "persist-read")) {
    throw SnapshotError("io", "injected read failure on '" + path + "'");
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw SnapshotError("io", "cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) {
    throw SnapshotError("io", "read failed on '" + path + "'");
  }
  return buf.str();
}

void write_file_atomic(const std::string& path,
                       const std::vector<Section>& sections) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw SnapshotError("io", "cannot create '" + tmp + "'");
    }
    write_container(os, sections);
    os.flush();
    if (!os) {
      throw SnapshotError("io", "flush failed on '" + tmp + "'");
    }
    os.close();
    if (os.fail()) {
      throw SnapshotError("io", "close failed on '" + tmp + "'");
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("io", "cannot rename into '" + path + "'");
  }
}

const Section* find_section(const std::vector<Section>& sections,
                            const std::string& tag) {
  for (const Section& s : sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

const Section& require_section(const std::vector<Section>& sections,
                               const std::string& tag) {
  const Section* s = find_section(sections, tag);
  if (s == nullptr) {
    throw SnapshotError("truncated", "required section " + tag + " missing");
  }
  return *s;
}

}  // namespace

// ---------------------------------------------------------------------------
// ManagerAccess: the one funnel for private manager state
// ---------------------------------------------------------------------------

struct ManagerAccess {
  using Manager = bdd::Manager;
  using Bdd = bdd::Bdd;

  struct NodeTriple {
    std::uint32_t var;
    std::uint32_t lo;
    std::uint32_t hi;
  };

  struct EncodedDag {
    std::vector<NodeTriple> triples;       // children-first
    std::vector<std::uint32_t> root_ids;   // per input root
  };

  static std::uint32_t idx(const Bdd& b) { return b.idx_; }
  static Bdd wrap(Manager& m, std::uint32_t i) { return m.wrap(i); }

  /// Shared-DAG encoding: ids 0/1 are the terminals, interior nodes get
  /// 2.. in first-completion (postorder) DFS order over the roots.  The
  /// numbering is a pure function of the root functions and their order,
  /// so identical state produces identical bytes.
  static EncodedDag encode_dag(const Manager& m,
                               const std::vector<Bdd>& roots) {
    EncodedDag out;
    std::unordered_map<std::uint32_t, std::uint32_t> id;
    id.emplace(0u, 0u);
    id.emplace(1u, 1u);
    std::vector<std::pair<std::uint32_t, bool>> stack;  // (node, expanded)
    for (const Bdd& root : roots) {
      stack.emplace_back(idx(root), false);
      while (!stack.empty()) {
        auto& [n, expanded] = stack.back();
        if (id.contains(n)) {
          stack.pop_back();
          continue;
        }
        const auto& nd = m.nodes_[n];
        if (!expanded) {
          expanded = true;
          stack.emplace_back(nd.hi, false);
          stack.emplace_back(nd.lo, false);
          continue;
        }
        const auto new_id =
            static_cast<std::uint32_t>(2 + out.triples.size());
        out.triples.push_back({nd.var, id.at(nd.lo), id.at(nd.hi)});
        id.emplace(n, new_id);
        stack.pop_back();
      }
      out.root_ids.push_back(id.at(idx(root)));
    }
    return out;
  }

  /// Install the saved order + groups on a manager that has variables but
  /// no interior nodes yet (nothing to relocate).
  static void install_order(Manager& m,
                            const std::vector<std::uint32_t>& var2level,
                            const std::vector<std::uint32_t>& group_of) {
    const std::size_t n = m.num_vars_;
    if (var2level.size() != n || group_of.size() != n) {
      throw SnapshotError("order-map",
                          "level/group maps sized for " +
                              std::to_string(var2level.size()) +
                              " variables, manager has " + std::to_string(n));
    }
    if (m.live_nodes_ != 2) {
      throw SnapshotError("order-map",
                          "order install on a manager with interior nodes");
    }
    std::vector<std::uint32_t> level2var(n, kNoChild);
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint32_t lvl = var2level[v];
      if (lvl >= n || level2var[lvl] != kNoChild) {
        throw SnapshotError("order-map", "var2level is not a bijection");
      }
      level2var[lvl] = v;
      if (group_of[v] >= n) {
        throw SnapshotError("group-map", "group id out of range");
      }
    }
    m.var2level_ = var2level;
    m.level2var_ = std::move(level2var);
    m.group_of_ = group_of;
    std::size_t displaced = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (var2level[v] != v) ++displaced;
    }
    m.displaced_vars_ = displaced;
  }

  /// Decode a children-first triple list through mk(); returns the node
  /// index for every snapshot id.  Validation: child refs must point
  /// backward, variables must exist, and each node's level must sit
  /// strictly above its children's under the installed order (mk would
  /// otherwise build an order-violating node the audit gate rejects with
  /// a less precise message).
  static std::vector<std::uint32_t> decode_dag(
      Manager& m, const std::vector<NodeTriple>& triples) {
    std::vector<std::uint32_t> node_of(2 + triples.size());
    node_of[0] = 0;
    node_of[1] = 1;
    const auto level_of_id = [&](std::uint32_t id) -> std::uint32_t {
      if (id < 2) return Manager::kTermVar;  // terminals sit below all vars
      return m.var2level_[triples[id - 2].var];
    };
    for (std::size_t i = 0; i < triples.size(); ++i) {
      const NodeTriple& t = triples[i];
      const auto self = static_cast<std::uint32_t>(2 + i);
      if (t.var >= m.num_vars_) {
        throw SnapshotError("node-ref", "node " + std::to_string(self) +
                                            " has unknown variable " +
                                            std::to_string(t.var));
      }
      if (t.lo >= self || t.hi >= self) {
        throw SnapshotError("node-ref",
                            "node " + std::to_string(self) +
                                " references a forward or self id");
      }
      if (t.lo == t.hi) {
        throw SnapshotError("node-ref", "node " + std::to_string(self) +
                                            " is redundant (lo == hi)");
      }
      const std::uint32_t lvl = m.var2level_[t.var];
      if (lvl >= level_of_id(t.lo) || lvl >= level_of_id(t.hi)) {
        throw SnapshotError("node-order",
                            "node " + std::to_string(self) +
                                " violates the variable order");
      }
      node_of[self] = m.mk(t.var, node_of[t.lo], node_of[t.hi]);
    }
    return node_of;
  }

  static std::size_t num_vars(const Manager& m) { return m.num_vars_; }
  static const std::vector<std::uint32_t>& var2level(const Manager& m) {
    return m.var2level_;
  }
  static const std::vector<std::uint32_t>& group_of(const Manager& m) {
    return m.group_of_;
  }
};

// ---------------------------------------------------------------------------
// Section encoders/decoders shared by manager- and check-kind snapshots
// ---------------------------------------------------------------------------

namespace {

using bdd::Bdd;
using bdd::Manager;

enum : std::uint8_t { kKindManager = 0, kKindCheck = 1 };

void append_dag_sections(const Manager& mgr, const std::vector<Bdd>& roots,
                         const std::vector<std::string>& names,
                         std::vector<Section>& out) {
  const std::size_t n = ManagerAccess::num_vars(mgr);

  Section ordr{"ORDR", {}};
  put_u32(ordr.payload, static_cast<std::uint32_t>(n));
  for (std::uint32_t v = 0; v < n; ++v) {
    put_u32(ordr.payload, ManagerAccess::var2level(mgr)[v]);
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    put_u32(ordr.payload, ManagerAccess::group_of(mgr)[v]);
  }
  out.push_back(std::move(ordr));

  const ManagerAccess::EncodedDag dag = ManagerAccess::encode_dag(mgr, roots);
  Section node{"NODE", {}};
  put_u64(node.payload, dag.triples.size());
  for (const auto& t : dag.triples) {
    put_u32(node.payload, t.var);
    put_u32(node.payload, t.lo);
    put_u32(node.payload, t.hi);
  }
  out.push_back(std::move(node));

  Section root{"ROOT", {}};
  put_u32(root.payload, static_cast<std::uint32_t>(roots.size()));
  for (std::size_t i = 0; i < roots.size(); ++i) {
    put_str(root.payload,
            i < names.size() ? names[i] : "root:" + std::to_string(i));
    put_u32(root.payload, dag.root_ids[i]);
  }
  out.push_back(std::move(root));
}

struct DecodedDag {
  std::vector<Bdd> roots;
  std::vector<std::string> names;
};

/// Decode ORDR + NODE + ROOT into `mgr` (fresh, variables declared).
DecodedDag decode_dag_sections(Manager& mgr,
                               const std::vector<Section>& sections) {
  Cursor ordr(require_section(sections, "ORDR").payload, "ORDR");
  const std::uint32_t n = ordr.u32();
  if (n != ManagerAccess::num_vars(mgr)) {
    throw SnapshotError("order-map",
                        "snapshot has " + std::to_string(n) +
                            " BDD variables, manager has " +
                            std::to_string(ManagerAccess::num_vars(mgr)));
  }
  std::vector<std::uint32_t> var2level(n);
  std::vector<std::uint32_t> group_of(n);
  for (std::uint32_t v = 0; v < n; ++v) var2level[v] = ordr.u32();
  for (std::uint32_t v = 0; v < n; ++v) group_of[v] = ordr.u32();
  ordr.expect_end();
  ManagerAccess::install_order(mgr, var2level, group_of);

  Cursor node(require_section(sections, "NODE").payload, "NODE");
  const std::uint64_t count = node.u64();
  // Each triple is 12 payload bytes; an inflated count dies here, not in
  // a giant allocation.
  std::vector<ManagerAccess::NodeTriple> triples;
  triples.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      count, kMaxSectionBytes / 12)));
  for (std::uint64_t i = 0; i < count; ++i) {
    ManagerAccess::NodeTriple t{};
    t.var = node.u32();
    t.lo = node.u32();
    t.hi = node.u32();
    triples.push_back(t);
  }
  node.expect_end();
  const std::vector<std::uint32_t> node_of =
      ManagerAccess::decode_dag(mgr, triples);

  Cursor root(require_section(sections, "ROOT").payload, "ROOT");
  const std::uint32_t root_count = root.u32();
  DecodedDag out;
  for (std::uint32_t i = 0; i < root_count; ++i) {
    std::string name = root.str();
    const std::uint32_t id = root.u32();
    if (id >= node_of.size()) {
      throw SnapshotError("root", "root '" + name + "' references id " +
                                      std::to_string(id) + " of " +
                                      std::to_string(node_of.size()));
    }
    out.names.push_back(std::move(name));
    out.roots.push_back(ManagerAccess::wrap(mgr, node_of[id]));
  }
  root.expect_end();

  // The audit gate: a parseable-but-inconsistent table (or a decode bug)
  // is a typed error, never a manager silently running on corrupt state.
  const std::string report = mgr.audit_check();
  if (!report.empty()) {
    throw SnapshotError("audit", report);
  }
  return out;
}

// -- formula AST <-> FORM section -------------------------------------------

void encode_formula(const ctl::Formula::Ptr& f,
                    std::unordered_map<const ctl::Formula*, std::uint32_t>&
                        ids,
                    std::string& nodes, std::uint32_t& count) {
  if (f == nullptr || ids.contains(f.get())) return;
  encode_formula(f->lhs(), ids, nodes, count);
  encode_formula(f->rhs(), ids, nodes, count);
  put_u8(nodes, static_cast<std::uint8_t>(f->kind()));
  put_str(nodes, f->name());
  put_u32(nodes, f->lhs() ? ids.at(f->lhs().get()) : kNoChild);
  put_u32(nodes, f->rhs() ? ids.at(f->rhs().get()) : kNoChild);
  ids.emplace(f.get(), count++);
}

Section make_form_section(const ctl::Formula::Ptr& spec) {
  Section form{"FORM", {}};
  std::unordered_map<const ctl::Formula*, std::uint32_t> ids;
  std::string nodes;
  std::uint32_t count = 0;
  encode_formula(spec, ids, nodes, count);
  put_u32(form.payload, count);
  form.payload.append(nodes);
  return form;
}

ctl::Formula::Ptr decode_form_section(const Section& form) {
  Cursor cur(form.payload, "FORM");
  const std::uint32_t count = cur.u32();
  if (count == 0) {
    throw SnapshotError("meta", "FORM section is empty");
  }
  std::vector<ctl::Formula::Ptr> built;
  built.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto kind = static_cast<ctl::Kind>(cur.u8());
    std::string name = cur.str();
    const std::uint32_t lhs_id = cur.u32();
    const std::uint32_t rhs_id = cur.u32();
    const auto child = [&](std::uint32_t id) -> ctl::Formula::Ptr {
      if (id == kNoChild) return nullptr;
      if (id >= i) {
        throw SnapshotError("meta", "FORM node references a forward id");
      }
      return built[id];
    };
    switch (kind) {
      case ctl::Kind::kTrue:
        built.push_back(ctl::Formula::make_true());
        break;
      case ctl::Kind::kFalse:
        built.push_back(ctl::Formula::make_false());
        break;
      case ctl::Kind::kAtom:
        built.push_back(ctl::Formula::atom(std::move(name)));
        break;
      default: {
        const ctl::Formula::Ptr lhs = child(lhs_id);
        const ctl::Formula::Ptr rhs = child(rhs_id);
        if (lhs == nullptr) {
          throw SnapshotError("meta", "FORM operator node has no operand");
        }
        built.push_back(ctl::Formula::rebuild(kind, lhs, rhs));
        break;
      }
    }
  }
  cur.expect_end();
  return built.back();
}

void put_spent(std::string& out, const guard::BudgetSpent& s) {
  put_u64(out, s.live_nodes);
  put_u64(out, s.peak_nodes);
  put_u64(out, s.memory_bytes);
  put_u64(out, s.elapsed_ms);
  put_u64(out, s.iterations);
  put_u64(out, s.depth);
  put_u64(out, s.soft_gc_runs);
  put_u64(out, s.reorder_swaps);
}

guard::BudgetSpent get_spent(Cursor& cur) {
  guard::BudgetSpent s;
  s.live_nodes = static_cast<std::size_t>(cur.u64());
  s.peak_nodes = static_cast<std::size_t>(cur.u64());
  s.memory_bytes = static_cast<std::size_t>(cur.u64());
  s.elapsed_ms = cur.u64();
  s.iterations = static_cast<std::size_t>(cur.u64());
  s.depth = static_cast<std::size_t>(cur.u64());
  s.soft_gc_runs = static_cast<std::size_t>(cur.u64());
  s.reorder_swaps = static_cast<std::size_t>(cur.u64());
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Manager-kind snapshots (bdd::Manager member definitions)
// ---------------------------------------------------------------------------

}  // namespace symcex::persist

namespace symcex::bdd {

void Manager::save_snapshot(std::ostream& os, const std::vector<Bdd>& roots,
                            const std::vector<std::string>& names) const {
  namespace ps = symcex::persist;
  for (const Bdd& root : roots) {
    if (root.is_null() || root.manager() != this) {
      throw std::invalid_argument(
          "Manager::save_snapshot: null or foreign root");
    }
  }
  std::vector<ps::Section> sections;
  ps::Section meta{"META", {}};
  ps::put_u8(meta.payload, ps::kKindManager);
  ps::put_str(meta.payload, ps::kProducer);
  ps::put_u32(meta.payload, static_cast<std::uint32_t>(num_vars_));
  sections.push_back(std::move(meta));
  ps::append_dag_sections(*this, roots, names, sections);
  ps::write_container(os, sections);
}

Manager::LoadedSnapshot Manager::load_snapshot(std::istream& is) {
  namespace ps = symcex::persist;
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) {
    throw ps::SnapshotError("io", "stream read failed");
  }
  const std::vector<ps::Section> sections = ps::read_container(buf.str());
  ps::Cursor meta(ps::require_section(sections, "META").payload, "META");
  if (meta.u8() != ps::kKindManager) {
    throw ps::SnapshotError("meta",
                            "not a manager snapshot (use the check loader)");
  }
  (void)meta.str();  // producer, informational
  const std::uint32_t n = meta.u32();
  meta.expect_end();
  if (n != num_vars_) {
    throw ps::SnapshotError("meta",
                            "snapshot has " + std::to_string(n) +
                                " BDD variables, this manager has " +
                                std::to_string(num_vars_));
  }
  ps::DecodedDag dag = ps::decode_dag_sections(*this, sections);
  LoadedSnapshot out;
  out.roots = std::move(dag.roots);
  out.names = std::move(dag.names);
  return out;
}

}  // namespace symcex::bdd

namespace symcex::persist {

// ---------------------------------------------------------------------------
// Check-kind snapshots
// ---------------------------------------------------------------------------

namespace {

std::string sanitize_model_name(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "check";
  return out;
}

}  // namespace

std::string default_checkpoint_dir() {
  return config::current().checkpoint_dir;
}

std::string checkpoint_basename(const std::string& model_name,
                                const std::string& formula,
                                std::uint64_t ts_fingerprint) {
  // Fold the structural fingerprint into the hashed half of the name, so
  // two models whose names sanitize identically (e.g. "net/a" and
  // "net?a") still land in distinct files.  Hash the fingerprint's bytes
  // before the formula text rather than XORing afterwards: XOR of two
  // hashes could cancel structured differences.
  Fnv1a h;
  h.le(ts_fingerprint);
  h.bytes(formula);
  std::ostringstream os;
  os << sanitize_model_name(model_name) << "-" << std::hex << h.value()
     << ".sxsnap";
  return os.str();
}

void save_check_snapshot(const std::string& path,
                         const CheckSnapshotInput& input) {
  if (input.system == nullptr || !input.system->finalized()) {
    throw std::invalid_argument(
        "persist::save_check_snapshot: null or unfinalized system");
  }
  const ts::TransitionSystem& sys = *input.system;
  const std::string formula_text = ctl::to_string(input.spec);

  // Named roots, in a deterministic order.
  std::vector<Bdd> roots;
  std::vector<std::string> names;
  const auto add_root = [&](std::string name, const Bdd& b) {
    names.push_back(std::move(name));
    roots.push_back(b);
  };
  add_root("init", sys.init());
  for (std::size_t i = 0; i < sys.trans_parts().size(); ++i) {
    add_root("part:" + std::to_string(i), sys.trans_parts()[i]);
  }
  for (std::size_t i = 0; i < sys.fairness().size(); ++i) {
    add_root("fair:" + std::to_string(i), sys.fairness()[i]);
  }
  {
    std::vector<std::string> label_names;
    for (const auto& [name, set] : sys.labels()) label_names.push_back(name);
    std::sort(label_names.begin(), label_names.end());
    for (const std::string& name : label_names) {
      add_root("label:" + name, *sys.label(name));
    }
  }
  // Finalized derived state, stored for load-time verification only: the
  // loader re-runs finalize() and insists the recomputed clusters and
  // early-quantification schedules equal these (canonicity makes the
  // comparison exact handle equality).
  const ts::Relation& clustered = sys.relation(ts::ImageMethod::kPartitioned);
  const auto add_roots = [&](const std::string& prefix,
                             const std::vector<Bdd>& bdds) {
    for (std::size_t i = 0; i < bdds.size(); ++i) {
      add_root(prefix + std::to_string(i), bdds[i]);
    }
  };
  add_roots("cluster:", clustered.clusters());
  add_roots("sched:img:", clustered.image_schedule());
  add_roots("sched:pre:", clustered.preimage_schedule());
  if (!input.reachable.is_null()) add_root("reachable", input.reachable);
  if (!input.fair.is_null()) add_root("fairstates", input.fair);
  for (std::size_t k = 0; k < input.frontiers.size(); ++k) {
    const Frontier& f = input.frontiers[k];
    const std::string prefix = "f" + std::to_string(k);
    if (f.z.is_null()) {
      throw std::invalid_argument(
          "persist::save_check_snapshot: frontier with null Z");
    }
    add_root(prefix + ":z", f.z);
    for (std::size_t j = 0; j < f.operands.size(); ++j) {
      add_root(prefix + ":op:" + std::to_string(j), f.operands[j]);
    }
    for (std::size_t j = 0; j < f.rings.size(); ++j) {
      add_root(prefix + ":ring:" + std::to_string(j), f.rings[j]);
    }
  }

  std::vector<Section> sections;
  Section meta{"META", {}};
  put_u8(meta.payload, kKindCheck);
  put_str(meta.payload, kProducer);
  put_str(meta.payload, input.model_name);
  put_str(meta.payload, formula_text);
  put_u8(meta.payload, input.image_method);
  put_u8(meta.payload, input.use_care_set ? 1 : 0);
  put_u8(meta.payload, input.coi ? 1 : 0);
  put_u8(meta.payload, input.reorder ? 1 : 0);
  put_u64(meta.payload, sys.cluster_threshold());
  put_spent(meta.payload, input.spent);
  sections.push_back(std::move(meta));

  Section vars{"VARS", {}};
  put_u32(vars.payload,
          static_cast<std::uint32_t>(sys.var_names().size()));
  for (const std::string& name : sys.var_names()) {
    put_str(vars.payload, name);
  }
  sections.push_back(std::move(vars));

  append_dag_sections(sys.manager(), roots, names, sections);

  sections.push_back(make_form_section(input.spec));

  Section frnt{"FRNT", {}};
  put_u32(frnt.payload, static_cast<std::uint32_t>(input.frontiers.size()));
  for (const Frontier& f : input.frontiers) {
    put_str(frnt.payload, f.loop);
    put_u64(frnt.payload, f.iteration);
    put_u32(frnt.payload, static_cast<std::uint32_t>(f.operands.size()));
    put_u32(frnt.payload, static_cast<std::uint32_t>(f.rings.size()));
  }
  sections.push_back(std::move(frnt));

  write_file_atomic(path, sections);
}

CheckSnapshot load_check_snapshot(const std::string& path) {
  const std::vector<Section> sections = read_container(read_file(path));

  Cursor meta(require_section(sections, "META").payload, "META");
  if (meta.u8() != kKindCheck) {
    throw SnapshotError("meta", "'" + path + "' is not a check snapshot");
  }
  (void)meta.str();  // producer, informational
  CheckSnapshot out;
  out.model_name = meta.str();
  out.formula = meta.str();
  out.image_method = meta.u8();
  out.use_care_set = meta.u8() != 0;
  out.coi = meta.u8() != 0;
  out.reorder = meta.u8() != 0;
  const auto cluster_threshold = static_cast<std::size_t>(meta.u64());
  out.spent = get_spent(meta);
  meta.expect_end();

  Cursor vars(require_section(sections, "VARS").payload, "VARS");
  const std::uint32_t num_state_vars = vars.u32();
  std::vector<std::string> names;
  names.reserve(num_state_vars);
  for (std::uint32_t i = 0; i < num_state_vars; ++i) {
    names.push_back(vars.str());
  }
  vars.expect_end();

  // Rebuild the transition system: declare variables (this creates the
  // interleaved rails and pair groups), install the saved order while the
  // manager is still node-free, decode the DAG, then construct and
  // finalize.
  out.system = std::make_unique<ts::TransitionSystem>();
  ts::TransitionSystem& sys = *out.system;
  // The manager sampled SYMCEX_REORDER at construction; a load-time sift
  // (finalize() triggers one when auto-reorder is on) would be harmless
  // function-wise but pointless work against the snapshot's own order.
  // The resume path re-enables reordering from the snapshot's flag.
  sys.manager().set_auto_reorder(false);
  sys.set_cluster_threshold(cluster_threshold);
  for (const std::string& name : names) {
    try {
      sys.add_var(name);
    } catch (const std::invalid_argument& e) {
      throw SnapshotError("meta", e.what());
    }
  }
  const DecodedDag dag = decode_dag_sections(sys.manager(), sections);
  std::map<std::string, Bdd> by_name;
  for (std::size_t i = 0; i < dag.roots.size(); ++i) {
    if (!by_name.emplace(dag.names[i], dag.roots[i]).second) {
      throw SnapshotError("root", "duplicate root '" + dag.names[i] + "'");
    }
  }
  const auto root = [&](const std::string& name) -> const Bdd& {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw SnapshotError("root", "missing root '" + name + "'");
    }
    return it->second;
  };
  const auto indexed = [&](const std::string& prefix) {
    std::vector<Bdd> out_vec;
    for (std::size_t i = 0;; ++i) {
      const auto it = by_name.find(prefix + std::to_string(i));
      if (it == by_name.end()) break;
      out_vec.push_back(it->second);
    }
    return out_vec;
  };

  sys.set_init(root("init"));
  for (const Bdd& part : indexed("part:")) sys.add_trans(part);
  for (const Bdd& fair : indexed("fair:")) sys.add_fairness(fair);
  for (const auto& [name, set] : by_name) {
    if (name.starts_with("label:")) {
      sys.add_label(name.substr(6), set);
    }
  }
  try {
    sys.finalize();
  } catch (const std::exception& e) {
    throw SnapshotError("meta", std::string("finalize failed: ") + e.what());
  }

  // Cluster-schedule verification: the stored derived state must equal
  // what finalize() just recomputed from the decoded parts.  A snapshot
  // that passes its checksums but disagrees here was written by a
  // different clustering configuration (or is semantically corrupt) --
  // resuming it would silently change the sweep order.
  const auto verify_equal = [&](const char* what,
                                const std::vector<Bdd>& stored,
                                const std::vector<Bdd>& fresh) {
    if (stored.size() != fresh.size() ||
        !std::equal(stored.begin(), stored.end(), fresh.begin())) {
      throw SnapshotError("cluster-schedule",
                          std::string(what) +
                              " disagree with the stored snapshot");
    }
  };
  const ts::Relation& clustered = sys.relation(ts::ImageMethod::kPartitioned);
  verify_equal("recomputed clusters", indexed("cluster:"),
               clustered.clusters());
  verify_equal("recomputed image schedules", indexed("sched:img:"),
               clustered.image_schedule());
  verify_equal("recomputed preimage schedules", indexed("sched:pre:"),
               clustered.preimage_schedule());

  if (by_name.contains("reachable")) out.reachable = root("reachable");
  if (by_name.contains("fairstates")) out.fair = root("fairstates");

  out.spec = decode_form_section(require_section(sections, "FORM"));
  if (ctl::to_string(out.spec) != out.formula) {
    throw SnapshotError("meta",
                        "FORM section disagrees with the META formula text");
  }

  Cursor frnt(require_section(sections, "FRNT").payload, "FRNT");
  const std::uint32_t frontier_count = frnt.u32();
  for (std::uint32_t k = 0; k < frontier_count; ++k) {
    Frontier f;
    f.loop = frnt.str();
    f.iteration = frnt.u64();
    const std::uint32_t n_ops = frnt.u32();
    const std::uint32_t n_rings = frnt.u32();
    const std::string prefix = "f" + std::to_string(k);
    f.z = root(prefix + ":z");
    for (std::uint32_t j = 0; j < n_ops; ++j) {
      f.operands.push_back(root(prefix + ":op:" + std::to_string(j)));
    }
    for (std::uint32_t j = 0; j < n_rings; ++j) {
      f.rings.push_back(root(prefix + ":ring:" + std::to_string(j)));
    }
    out.frontiers.push_back(std::move(f));
  }
  frnt.expect_end();

  // A resumed run installs the reachable set and continues the
  // reachability loop from its record without recomputing either, so
  // both must look like this system's own reachability state: init is
  // inside the set, and a "reachable" record is {reached, [frontier]}
  // with init and the frontier inside `reached`.
  const Bdd& init = sys.init();
  if (!out.reachable.is_null() && !init.implies(out.reachable)) {
    throw SnapshotError("meta", "reachable set does not contain init");
  }
  for (const Frontier& f : out.frontiers) {
    if (f.loop != "reachable") continue;
    if (f.rings.size() != 1) {
      throw SnapshotError("meta",
                          "reachable frontier needs exactly one ring (the "
                          "BFS frontier), found " +
                              std::to_string(f.rings.size()));
    }
    if (!init.implies(f.z) || !f.rings[0].implies(f.z)) {
      throw SnapshotError("meta",
                          "reachable frontier is not an iterate of this "
                          "system's reachability fixpoint");
    }
  }

  return out;
}

std::string describe_snapshot(const std::string& path) {
  const std::string bytes = read_file(path);
  const std::vector<Section> sections = read_container(bytes);
  std::ostringstream os;
  os << path << ": symcex snapshot v" << kSnapshotVersion << ", "
     << bytes.size() << " bytes\n";
  for (const Section& s : sections) {
    os << "  " << s.tag << "  " << s.payload.size() << " bytes  (fnv "
       << std::hex << fnv1a64(s.payload.data(), s.payload.size()) << std::dec
       << ")\n";
  }
  Cursor meta(require_section(sections, "META").payload, "META");
  const std::uint8_t kind = meta.u8();
  os << "  kind: " << (kind == kKindCheck ? "check" : "manager") << "\n";
  if (kind == kKindCheck) {
    (void)meta.str();  // producer
    os << "  model: " << meta.str() << "\n";
    os << "  formula: " << meta.str() << "\n";
    const std::uint8_t image_method = meta.u8();
    const std::uint8_t care = meta.u8();
    const std::uint8_t coi = meta.u8();
    const std::uint8_t reorder = meta.u8();
    os << "  options: image_method=" << static_cast<int>(image_method)
       << " care=" << static_cast<int>(care)
       << " coi=" << static_cast<int>(coi)
       << " reorder=" << static_cast<int>(reorder)
       << " cluster_threshold=" << meta.u64() << "\n";
    os << "  spent: " << get_spent(meta).to_string() << "\n";
    Cursor frnt(require_section(sections, "FRNT").payload, "FRNT");
    os << "  frontiers: " << frnt.u32() << "\n";
  }
  return os.str();
}

}  // namespace symcex::persist
