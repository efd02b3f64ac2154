// Failpoints — deterministic fault injection for robustness testing.
//
// A failpoint is a named site in the code ("arena.alloc", "engine.publish")
// that can be armed to fail on demand: the site calls should_fail()/
// maybe_throw() on its hot path, and an armed configuration decides, per
// hit, whether the site fires. With nothing armed the cost is one relaxed
// atomic load — the sites stay in release builds, so CI exercises the exact
// binaries that serve traffic.
//
// Arming, two ways:
//   env   EMC_FAILPOINT=<site>:<spec>[,<site>:<spec>]*   (parsed lazily at
//         first use; the WHOLE value is rejected if any entry is malformed
//         or names an unknown site — same strictness as EMC_WORKERS, a typo
//         disarms everything rather than arming the wrong thing)
//   code  failpoint::configure("engine.publish", "1") from a test, undone
//         with disable()/disable_all().
//
// Spec grammar (who fires, deterministically):
//   "0.25"  probability mode: each hit fires iff a hash of the per-site hit
//           index lands under p — deterministic for a given hit sequence,
//           so a failing run replays. p must be in (0, 1].
//   "7"     one-shot: fires on exactly the 7th hit, then never again —
//           "fail once, let the retry succeed".
//   "7+"    persistent: fires on every hit from the 7th on ("1+" = always
//           fail — the knob for pinning permanent-degradation behavior).
//
// Scoping: ScopedSuspend suppresses every failpoint on the constructing
// thread until it is destroyed. Harnesses wrap the operations that are
// setup rather than the system under test (e.g. a writer's update batches,
// which no ingest policy retries, or reference oracle builds) so faults
// land only on the recovery paths under test.
//
// Site catalog (each named site throws where a real system would fail):
//   arena.alloc      device scratch-arena backing allocation -> bad_alloc
//                    (simulated device OOM)
//   device.launch    kernel launch on any ThreadPool -> InjectedFault
//                    (launch failure / device lost)
//   engine.snapshot  an epoch's lazy Csr build -> InjectedFault
//   engine.publish   Session artifact publish (refresh()/view()) -> InjectedFault
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace emc::util::failpoint {

/// The exception injected sites throw (arena.alloc throws std::bad_alloc
/// instead — a simulated OOM should look like one).
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at failpoint '" + site + "'") {}
};

// Site names (the catalog above). Sites are a closed set: configure()
// rejects unknown names so a typo'd site cannot arm silently inert.
inline constexpr const char* kArenaAlloc = "arena.alloc";
inline constexpr const char* kDeviceLaunch = "device.launch";
inline constexpr const char* kSnapshot = "engine.snapshot";
inline constexpr const char* kPublish = "engine.publish";

namespace detail {
/// Number of armed sites, or -1 before the EMC_FAILPOINT env has been
/// parsed. Exposed only for the armed() fast path.
extern std::atomic<int> g_armed;
/// Parses EMC_FAILPOINT once; returns the armed-site count.
int init_from_env();
bool should_fail_slow(const char* site);
}  // namespace detail

/// True iff any site is armed. One relaxed load on the steady path.
inline bool armed() {
  const int s = detail::g_armed.load(std::memory_order_relaxed);
  return s < 0 ? detail::init_from_env() > 0 : s > 0;
}

/// Counts a hit at `site` and returns true iff the site fires this hit.
inline bool should_fail(const char* site) {
  return armed() && detail::should_fail_slow(site);
}

/// Throws InjectedFault when the site fires.
inline void maybe_throw(const char* site) {
  if (should_fail(site)) throw InjectedFault(site);
}

/// Arms `site` with `spec` (grammar above). Returns false — arming nothing —
/// on an unknown site or malformed spec. Resets the site's hit counters.
bool configure(const char* site, const char* spec);

/// Parses a full "<site>:<spec>[,...]" string (the EMC_FAILPOINT format) and
/// arms every entry. Strict: returns -1 and arms NOTHING if any entry is
/// malformed; otherwise returns the number of sites armed.
int configure_from_string(const char* value);

void disable(const char* site);
/// Disarms every site and zeroes all counters (test teardown).
void disable_all();

/// Per-site counters: evaluations seen / faults fired.
std::uint64_t hits(const char* site);
std::uint64_t fired(const char* site);
/// Process-wide injected-fault count across all sites.
std::uint64_t total_fired();

/// Suppresses every failpoint on THIS thread for the scope's lifetime
/// (suspended hits are not counted). Nestable.
class ScopedSuspend {
 public:
  ScopedSuspend();
  ~ScopedSuspend();
  ScopedSuspend(const ScopedSuspend&) = delete;
  ScopedSuspend& operator=(const ScopedSuspend&) = delete;
};

}  // namespace emc::util::failpoint
