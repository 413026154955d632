// SymCeX -- evaluation thread count.
//
// Evaluation is single-threaded (DESIGN.md §14); this header stays only
// because the benchmark driver records env_threads() in its manifest.

#pragma once

namespace symcex::ts {

/// Threads one check evaluates on: always 1.
[[nodiscard]] inline unsigned env_threads() { return 1; }

}  // namespace symcex::ts
