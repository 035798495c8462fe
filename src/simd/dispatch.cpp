#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "dsp/types.hpp"
#include "simd/kernels.hpp"

namespace datc::simd {

namespace {

std::atomic<const KernelTable*> g_active{nullptr};

Backend detect_backend() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") ? Backend::avx2 : Backend::scalar;
#else
  return Backend::scalar;
#endif
}

Backend initial_backend() {
  // Env override for parity testing and benchmarking; an unavailable or
  // unknown value falls back to detection rather than aborting — the
  // backends are bit-identical, so the worst case is a slower run.
  if (const char* env = std::getenv("DATC_SIMD");
      env != nullptr && *env != '\0') {
    Backend b{};
    if (parse_backend(env, b) && backend_available(b)) return b;
  }
  return detect_backend();
}

}  // namespace

bool backend_available(Backend b) {
  switch (b) {
    case Backend::scalar:
      return true;
    case Backend::avx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::avx2:
      return "avx2";
    case Backend::scalar:
      break;
  }
  return "scalar";
}

bool parse_backend(const char* name, Backend& out) {
  if (std::strcmp(name, "scalar") == 0) {
    out = Backend::scalar;
  } else if (std::strcmp(name, "avx2") == 0) {
    out = Backend::avx2;
  } else {
    return false;
  }
  return true;
}

const KernelTable& table_for(Backend b) {
  switch (b) {
    case Backend::avx2:
      return detail::avx2_table();
    case Backend::scalar:
      break;
  }
  return detail::scalar_table();
}

const KernelTable& kernels() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    t = &table_for(initial_backend());
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

Backend active_backend() { return kernels().backend; }

void force_backend(Backend b) {
  dsp::require(backend_available(b),
               "simd::force_backend: backend unavailable on this host");
  g_active.store(&table_for(b), std::memory_order_release);
}

}  // namespace datc::simd
