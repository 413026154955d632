// Tests for the shared FNV-1a header (src/fnv1a.hpp) and a pin on every
// value derived from it.  Fingerprints, cache keys, checkpoint names and
// bundle annotations are written to disk, so each caller's output on a
// fixed input is recorded here: a change to the hash or to how a caller
// feeds it fails this test.

#include <string>

#include <gtest/gtest.h>

#include "analyze/analyze.hpp"
#include "ctl/formula.hpp"
#include "evidence/evidence.hpp"
#include "fnv1a.hpp"
#include "models/models.hpp"
#include "persist/persist.hpp"
#include "serve/serve.hpp"

namespace symcex {
namespace {

std::uint64_t hash_of(std::string_view s, std::uint64_t seed) {
  Fnv1a h(seed);
  h.bytes(s);
  return h.value();
}

TEST(Fnv1a, StandardTestVectors) {
  // Published FNV-1a 64 vectors.
  EXPECT_EQ(hash_of("", Fnv1a::kBasis), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash_of("a", Fnv1a::kBasis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hash_of("foobar", Fnv1a::kBasis), 0x85944171f73967e8ull);
  // Little-endian integer folding is bytewise folding.
  Fnv1a word;
  word.le(0x0201, 2);
  EXPECT_EQ(word.value(), hash_of("\x01\x02", Fnv1a::kBasis));
  EXPECT_EQ(persist::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
}

TEST(Fnv1a, CallersKeepTheirRecordedValues) {
  // Recorded from the per-caller implementations this header replaced.
  // The model-derived figures assume the default cluster threshold
  // (SYMCEX_CLUSTER_THRESHOLD unset).
  auto system = models::seitz_arbiter();
  const std::string spec = "AG (r1 -> AF a1)";

  EXPECT_EQ(serve::hex16(system->fingerprint()), "8407ba6a5381cccc");
  EXPECT_EQ(serve::hex16(analyze::build_dep_graph(*system).fingerprint()),
            "357f43f40b165b63");
  EXPECT_EQ(evidence::BundleBuilder(*system, "seitz_arbiter")
                .cluster_schedule_hash(),
            "6f8c4bd06e621fa2");
  EXPECT_EQ(evidence::sanitize_basename(spec), "AG__r1_-__AF_a1_-b6a10d15");
  EXPECT_EQ(serve::hex16(ctl::formula_hash(ctl::parse(spec))),
            "48d1194b55438845");
  EXPECT_EQ(serve::model_fingerprint(*system).hex(),
            "163c4f546bdacefce66799a3dcf57b15");
  EXPECT_EQ(serve::hex16(persist::fnv1a64("symcex", 6)), "f2412f96c29f77a8");
  EXPECT_EQ(persist::checkpoint_basename("seitz_arbiter", spec,
                                         system->fingerprint()),
            "seitz_arbiter-8027312d375c9cec.sxsnap");
}

}  // namespace
}  // namespace symcex
