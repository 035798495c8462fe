#pragma once
// Runtime backend selection for the vector kernels. The backend is picked
// once, on first use: DATC_SIMD=scalar|avx2 overrides (ignored when the
// named backend is unavailable on the host or the name is unknown),
// otherwise cpuid chooses AVX2 where the x86-64 host has it and scalar
// everywhere else. All backends return bit-identical results, so the
// choice is purely a throughput decision; tests and benches pin it with
// force_backend().

#include "simd/kernels.hpp"

namespace datc::simd {

/// The active kernel table (detects on first call; thereafter a load).
[[nodiscard]] const KernelTable& kernels();

/// Backend of the active table.
[[nodiscard]] Backend active_backend();

/// True when the host can execute `b`.
[[nodiscard]] bool backend_available(Backend b);

/// "scalar" / "avx2".
[[nodiscard]] const char* backend_name(Backend b);

/// Parses a backend name (the DATC_SIMD values); false if unrecognised.
[[nodiscard]] bool parse_backend(const char* name, Backend& out);

/// Table for a specific available backend (parity tests compare them).
[[nodiscard]] const KernelTable& table_for(Backend b);

/// Pins the active backend (test/bench hook). Requires availability.
void force_backend(Backend b);

}  // namespace datc::simd
