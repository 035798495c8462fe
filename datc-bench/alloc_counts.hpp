#pragma once
// The allocation counter fed by the global operator new replacement in
// alloc_hook.cpp (linked into the benchmark binary only; without it the
// per-span counts simply stay at zero).

#include <cstddef>

namespace datc_bench {

/// Counts one allocation of `bytes` on the calling thread; must not
/// allocate. Defined in trace.cpp, next to the spans that read it.
void note_alloc(std::size_t bytes) noexcept;

}  // namespace datc_bench
