// SymCeX -- FNV-1a 64-bit hashing.
//
// The one implementation behind every fingerprint, checksum and cache key
// in the tree: snapshot section checksums and checkpoint names
// (src/persist), transition-system and dependency-graph fingerprints,
// formula hashes, evidence schedule hashes and basenames, and the serving
// layer's two-stream model fingerprint.  Those values live on disk, so the
// hash must never change; tests/fnv1a_test.cpp pins each caller's output.
// Header-only and dependency-free, like src/version.hpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace symcex {

/// An FNV-1a 64 accumulator.  Start from a seed, fold bytes, read value().
class Fnv1a {
 public:
  /// The standard FNV-1a 64 offset basis.
  static constexpr std::uint64_t kBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  /// The standard basis with its last decimal digit dropped.  Evidence
  /// cluster-schedule hashes and basename suffixes and dependency-graph
  /// fingerprints (the coi:fingerprint annotation) have always started
  /// from it; they are on disk, so it stays.
  static constexpr std::uint64_t kLegacyBasis = 1469598103934665603ull;

  constexpr explicit Fnv1a(std::uint64_t seed = kBasis) : h_(seed) {}

  constexpr void byte(unsigned char c) { h_ = (h_ ^ c) * kPrime; }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) byte(p[i]);
  }
  void bytes(std::string_view s) { bytes(s.data(), s.size()); }
  /// Fold the low `width` bytes of `v`, least significant first.
  constexpr void le(std::uint64_t v, unsigned width = 8) {
    for (unsigned i = 0; i < width; ++i) {
      byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }

  [[nodiscard]] constexpr std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace symcex
