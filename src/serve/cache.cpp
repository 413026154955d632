// SymCeX -- serve: semantic cache keys and the cross-run verdict cache.

#include "serve/serve.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "diag/json.hpp"
#include "evidence/evidence.hpp"
#include "fnv1a.hpp"
#include "json_mini.hpp"
#include "persist/persist.hpp"

namespace symcex::serve {

namespace fs = std::filesystem;

namespace {

// Seed of the second stream: the offset basis with its halves swapped.
// Together with the per-byte tweak below this makes the two streams
// evolve independently, giving a 128-bit fingerprint from two 64-bit
// FNV-1a walks over the same byte sequence.
constexpr std::uint64_t kAltSeed = 0x84222325cbf29ce4ull;

/// Meta-sidecar schema version (bumped with any layout change).
constexpr int kCacheMetaVersion = 1;

struct Fnv2 {
  Fnv1a lo;
  Fnv1a hi{kAltSeed};

  void byte(unsigned char c) {
    lo.byte(c);
    hi.byte(static_cast<unsigned char>(c ^ 0xa5u));
  }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) byte(p[i]);
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void cover(const evidence::Cover& c) {
    u32(static_cast<std::uint32_t>(c.cubes.size()));
    for (const auto& cube : c.cubes) {
      u32(static_cast<std::uint32_t>(cube.size()));
      for (const auto& lit : cube) {
        u32(lit.var);
        u32(lit.rail);
        byte(lit.value ? 1 : 0);
      }
    }
  }
};

[[nodiscard]] bool parse_hex64(const std::string& s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  out = v;
  return true;
}

[[nodiscard]] bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return false;
  out = buf.str();
  return true;
}

/// Atomic best-effort write (tmp + rename), mirroring persist's
/// convention: a torn write never leaves a half file under the real name.
bool write_file_atomic(const fs::path& path, const std::string& bytes) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
  return !ec;
}

[[nodiscard]] const std::string* find_string(const jsonmini::Value& v,
                                             std::string_view key) {
  const jsonmini::Value* m = v.find(key);
  if (m == nullptr || !m->is_string()) return nullptr;
  return &m->string;
}

}  // namespace

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string ModelFingerprint::hex() const { return hex16(lo) + hex16(hi); }

ModelFingerprint model_fingerprint(const ts::TransitionSystem& ts,
                                   std::size_t max_cubes) {
  Fnv2 h;
  // Variable table: arity and names pin the state-space encoding the
  // covers' literal indices refer to.
  h.u32(static_cast<std::uint32_t>(ts.num_state_vars()));
  for (const std::string& name : ts.var_names()) h.str(name);
  // Each component class is tagged so e.g. a fairness constraint can
  // never collide with an identical label predicate.
  h.byte('I');
  h.cover(evidence::cover_of(ts.init(), max_cubes));
  h.byte('T');
  h.u32(static_cast<std::uint32_t>(ts.trans_parts().size()));
  for (const bdd::Bdd& part : ts.trans_parts())
    h.cover(evidence::cover_of(part, max_cubes));
  h.byte('F');
  h.u32(static_cast<std::uint32_t>(ts.fairness().size()));
  for (const bdd::Bdd& constraint : ts.fairness())
    h.cover(evidence::cover_of(constraint, max_cubes));
  h.byte('L');
  std::vector<std::string> label_names;
  label_names.reserve(ts.labels().size());
  for (const auto& [name, states] : ts.labels()) label_names.push_back(name);
  std::sort(label_names.begin(), label_names.end());
  h.u32(static_cast<std::uint32_t>(label_names.size()));
  for (const std::string& name : label_names) {
    h.str(name);
    h.cover(evidence::cover_of(*ts.label(name), max_cubes));
  }
  return ModelFingerprint{h.lo.value(), h.hi.value()};
}

std::string cache_key(const ModelFingerprint& fp,
                      const ctl::Formula::Ptr& spec) {
  return fp.hex() + "-" + hex16(ctl::formula_hash(spec));
}

// -- VerdictCache -------------------------------------------------------------

VerdictCache::VerdictCache(std::size_t capacity, std::string spill_dir)
    : capacity_(capacity == 0 ? 1 : capacity), spill_dir_(std::move(spill_dir)) {
  if (!spill_dir_.empty()) {
    std::error_code ec;
    fs::create_directories(spill_dir_, ec);  // best effort; writes just fail
  }
}

std::optional<CacheEntry> VerdictCache::lookup(const std::string& key,
                                               const std::string& spec_text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    const CacheEntry& entry = it->second.entry;
    const bool valid =
        entry.checksum == persist::fnv1a64(entry.bundle.data(),
                                           entry.bundle.size()) &&
        entry.spec == spec_text &&
        (entry.verdict == "true" || entry.verdict == "false");
    if (valid) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++stats_.hits;
      stats_.size = slots_.size();
      return entry;
    }
    poison_locked(key);
    ++stats_.misses;
    stats_.size = slots_.size();
    return std::nullopt;
  }
  std::optional<CacheEntry> loaded = load_from_disk_locked(key, spec_text);
  if (loaded) {
    ++stats_.hits;
    ++stats_.disk_loads;
  } else {
    ++stats_.misses;
  }
  stats_.size = slots_.size();
  return loaded;
}

void VerdictCache::store(const std::string& key, CacheEntry entry) {
  if (entry.verdict != "true" && entry.verdict != "false") {
    throw std::logic_error("VerdictCache: only known verdicts are cacheable");
  }
  entry.checksum = persist::fnv1a64(entry.bundle.data(), entry.bundle.size());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.entry = entry;
  } else {
    lru_.push_front(key);
    slots_.emplace(key, Slot{entry, lru_.begin()});
    while (slots_.size() > capacity_) evict_one_locked();
  }
  if (!spill_dir_.empty()) spill_locked(key, entry);
  stats_.size = slots_.size();
}

CacheStats VerdictCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.size = slots_.size();
  return s;
}

std::size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void VerdictCache::evict_one_locked() {
  if (lru_.empty()) return;
  // Evict from memory only; the spilled files stay, so an evicted entry
  // is still a (re-validated) disk hit later.
  slots_.erase(lru_.back());
  lru_.pop_back();
  ++stats_.evictions;
}

void VerdictCache::spill_locked(const std::string& key,
                                const CacheEntry& entry) const {
  const fs::path dir(spill_dir_);
  if (!write_file_atomic(dir / (key + ".bundle.json"), entry.bundle)) return;
  std::ostringstream meta;
  diag::JsonWriter w(meta);
  w.begin_object();
  w.member("symcex_serve_cache_version", kCacheMetaVersion);
  w.member("cache_key", key);
  w.member("verdict", entry.verdict);
  w.member("reason", entry.reason);
  w.member("spec", entry.spec);
  w.member("producer", entry.producer);
  w.member("checksum", hex16(entry.checksum));
  w.end_object();
  meta << "\n";
  write_file_atomic(dir / (key + ".meta.json"), meta.str());
}

std::optional<CacheEntry> VerdictCache::load_from_disk_locked(
    const std::string& key, const std::string& spec_text) {
  if (spill_dir_.empty()) return std::nullopt;
  const fs::path dir(spill_dir_);
  const fs::path meta_path = dir / (key + ".meta.json");
  const fs::path bundle_path = dir / (key + ".bundle.json");
  std::error_code ec;
  if (!fs::exists(meta_path, ec) && !fs::exists(bundle_path, ec)) {
    return std::nullopt;  // plain miss, nothing to poison
  }

  // From here on any defect is a poisoned entry: detect, count, remove.
  const auto poisoned = [&]() -> std::optional<CacheEntry> {
    ++stats_.poisoned;
    fs::remove(meta_path, ec);
    fs::remove(bundle_path, ec);
    return std::nullopt;
  };

  std::string meta_text;
  std::string bundle_text;
  if (!read_file(meta_path, meta_text)) return poisoned();
  if (!read_file(bundle_path, bundle_text)) return poisoned();

  CacheEntry entry;
  std::uint64_t claimed = 0;
  try {
    const jsonmini::Value meta = jsonmini::parse(meta_text);
    const jsonmini::Value* version = meta.find("symcex_serve_cache_version");
    if (version == nullptr || !version->is_number() ||
        version->number != kCacheMetaVersion) {
      return poisoned();
    }
    const std::string* stored_key = find_string(meta, "cache_key");
    const std::string* verdict = find_string(meta, "verdict");
    const std::string* reason = find_string(meta, "reason");
    const std::string* spec = find_string(meta, "spec");
    const std::string* producer = find_string(meta, "producer");
    const std::string* checksum = find_string(meta, "checksum");
    if (stored_key == nullptr || verdict == nullptr || reason == nullptr ||
        spec == nullptr || producer == nullptr || checksum == nullptr) {
      return poisoned();
    }
    if (*stored_key != key) return poisoned();
    if (*verdict != "true" && *verdict != "false") return poisoned();
    if (*spec != spec_text) return poisoned();
    if (!parse_hex64(*checksum, claimed)) return poisoned();
    entry.verdict = *verdict;
    entry.reason = *reason;
    entry.spec = *spec;
    entry.producer = *producer;
  } catch (const std::runtime_error&) {
    return poisoned();
  }

  if (claimed != persist::fnv1a64(bundle_text.data(), bundle_text.size())) {
    return poisoned();
  }
  // The bundle itself must still be a coherent evidence document whose
  // check section agrees with the sidecar (a swapped-in foreign bundle
  // passes no further than here).
  try {
    const jsonmini::Value bundle = jsonmini::parse(bundle_text);
    const jsonmini::Value* check = bundle.find("check");
    if (check == nullptr) return poisoned();
    const std::string* bundle_spec = find_string(*check, "spec");
    const std::string* bundle_verdict = find_string(*check, "verdict");
    if (bundle_spec == nullptr || *bundle_spec != spec_text) return poisoned();
    if (bundle_verdict == nullptr || *bundle_verdict != entry.verdict) {
      return poisoned();
    }
  } catch (const std::runtime_error&) {
    return poisoned();
  }

  entry.bundle = std::move(bundle_text);
  entry.checksum = claimed;
  lru_.push_front(key);
  slots_.emplace(key, Slot{entry, lru_.begin()});
  while (slots_.size() > capacity_) evict_one_locked();
  return entry;
}

void VerdictCache::poison_locked(const std::string& key) {
  ++stats_.poisoned;
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    lru_.erase(it->second.lru_it);
    slots_.erase(it);
  }
  if (!spill_dir_.empty()) {
    std::error_code ec;
    const fs::path dir(spill_dir_);
    fs::remove(dir / (key + ".meta.json"), ec);
    fs::remove(dir / (key + ".bundle.json"), ec);
  }
}

}  // namespace symcex::serve
