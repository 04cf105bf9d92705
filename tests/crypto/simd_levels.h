// Test helpers that force each ChaCha20 backend in turn.
#pragma once

#include "crypto/cpu_features.h"

namespace interedge::crypto {

// Restores the auto-detected SIMD level after a test forces a backend.
class simd_level_guard {
 public:
  simd_level_guard() : saved_(active_simd_level()) {}
  ~simd_level_guard() { set_simd_level(saved_); }

 private:
  simd_level saved_;
};

// Runs fn(level) with each backend this CPU has forced active.
template <typename Fn>
void for_each_simd_level(Fn fn) {
  simd_level_guard guard;
  for (simd_level level : {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
    set_simd_level(level);
    if (active_simd_level() == level) fn(level);
  }
}

}  // namespace interedge::crypto
