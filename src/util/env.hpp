// Strict environment-variable parsing for the few EMC_* knobs that stay
// process-wide: EMC_WORKERS and EMC_KERNEL_LATENCY_US (device/context.cpp)
// and the test harness's EMC_FUZZ_SEED/EMC_FUZZ_ROUNDS. Everything else is
// tuned through its options struct only.
//
// Policy: a value is taken only when it parses COMPLETELY as an integer
// inside the knob's sane range; empty, non-numeric, trailing junk, or
// out-of-range values fall back to the caller's default. A typo in a job
// script degrades to stock behavior instead of silently arming the wrong
// configuration.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace emc::util {

/// Strict integer env parse: the value is used iff it parses completely and
/// lies in [lo, hi]; otherwise `def`.
inline std::int64_t env_int_or(const char* name, std::int64_t def,
                               std::int64_t lo, std::int64_t hi) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(env, &end, 10);
    // errno check: strtoll clamps overflow to LLONG_MIN/MAX, which would
    // otherwise sneak past a range check whose bound is the type's limit.
    if (errno == 0 && end != env && *end == '\0' && parsed >= lo &&
        parsed <= hi) {
      return parsed;
    }
  }
  return def;
}

}  // namespace emc::util
