#include "util/failpoint.hpp"

#include <array>
#include <cstdlib>
#include <mutex>
#include <string_view>

namespace emc::util::failpoint {

namespace detail {
std::atomic<int> g_armed{-1};
}  // namespace detail

namespace {

enum class Mode : std::uint8_t { kOff, kProbability, kOneShot, kPersistent };

// mode/probability/nth are written under g_config_mutex but read lock-free
// by should_fail_slow; each is read independently, so relaxed suffices.
struct Site {
  const char* name;
  std::atomic<Mode> mode{Mode::kOff};
  std::atomic<double> probability{0.0};
  std::atomic<std::uint64_t> nth{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fired{0};
};

// The closed site catalog. Fixed storage: hot-path lookups never allocate
// and site pointers stay valid forever.
std::array<Site, 4> g_sites{{{kArenaAlloc}, {kDeviceLaunch}, {kSnapshot},
                             {kPublish}}};
std::mutex g_config_mutex;  // serializes mode/probability/nth writes
std::atomic<std::uint64_t> g_total_fired{0};
std::once_flag g_env_once;
thread_local int tl_suspended = 0;

Site* find(std::string_view name) {
  for (Site& site : g_sites) {
    if (name == site.name) return &site;
  }
  return nullptr;
}

int armed_count_locked() {
  int count = 0;
  for (const Site& site : g_sites) {
    count += site.mode.load(std::memory_order_relaxed) != Mode::kOff ? 1 : 0;
  }
  return count;
}

/// splitmix64: the per-hit coin for probability mode. Deterministic in the
/// hit index, so a given hit sequence always fires the same subset.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Strict spec parse (see the header grammar). Returns false on any
/// malformed input; out-params are written only on success.
bool parse_spec(std::string_view spec, Mode* mode, double* probability,
                std::uint64_t* nth) {
  if (spec.empty()) return false;
  // Integer forms first: "<n>" (one-shot) and "<n>+" (persistent). "1.0"
  // contains a non-digit so it falls through to the probability parse.
  bool persistent = false;
  std::string_view digits = spec;
  if (digits.back() == '+') {
    persistent = true;
    digits.remove_suffix(1);
  }
  bool all_digits = !digits.empty();
  for (const char c : digits) all_digits = all_digits && c >= '0' && c <= '9';
  if (all_digits) {
    const std::string owned(digits);
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(owned.c_str(), &end, 10);
    if (errno != 0 || end == owned.c_str() || *end != '\0' || n < 1) {
      return false;
    }
    *mode = persistent ? Mode::kPersistent : Mode::kOneShot;
    *nth = n;
    return true;
  }
  if (persistent) return false;  // "+" only composes with the integer form
  const std::string owned(spec);
  char* end = nullptr;
  errno = 0;
  const double p = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end == owned.c_str() || *end != '\0' || !(p > 0.0) ||
      p > 1.0) {
    return false;
  }
  *mode = Mode::kProbability;
  *probability = p;
  return true;
}

}  // namespace

namespace detail {

int init_from_env() {
  std::call_once(g_env_once, [] {
    const char* env = std::getenv("EMC_FAILPOINT");
    const int armed = env != nullptr ? configure_from_string(env) : 0;
    // configure_from_string already stored the real count on success; a
    // parse failure (-1) arms nothing.
    if (armed <= 0) {
      int expected = -1;
      g_armed.compare_exchange_strong(expected, 0);
    }
  });
  return g_armed.load(std::memory_order_relaxed);
}

bool should_fail_slow(const char* site_name) {
  if (tl_suspended > 0) return false;
  Site* site = find(site_name);
  if (site == nullptr) return false;
  const Mode mode = site->mode.load(std::memory_order_relaxed);
  if (mode == Mode::kOff) return false;
  const std::uint64_t hit = site->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (mode) {
    case Mode::kProbability:
      // Top 53 bits of the mixed hit index as a uniform double in [0, 1).
      fire = static_cast<double>(mix(hit) >> 11) * 0x1.0p-53 <
             site->probability.load(std::memory_order_relaxed);
      break;
    case Mode::kOneShot:
      fire = hit == site->nth.load(std::memory_order_relaxed);
      break;
    case Mode::kPersistent:
      fire = hit >= site->nth.load(std::memory_order_relaxed);
      break;
    case Mode::kOff:
      break;
  }
  if (fire) {
    site->fired.fetch_add(1, std::memory_order_relaxed);
    g_total_fired.fetch_add(1, std::memory_order_relaxed);
  }
  return fire;
}

}  // namespace detail

bool configure(const char* site_name, const char* spec) {
  detail::init_from_env();  // settle the env state before overriding it
  Mode mode = Mode::kOff;
  double probability = 0.0;
  std::uint64_t nth = 0;
  if (!parse_spec(spec, &mode, &probability, &nth)) return false;
  const std::lock_guard<std::mutex> lock(g_config_mutex);
  Site* site = find(site_name);
  if (site == nullptr) return false;
  site->mode.store(mode, std::memory_order_relaxed);
  site->probability.store(probability, std::memory_order_relaxed);
  site->nth.store(nth, std::memory_order_relaxed);
  site->hits.store(0, std::memory_order_relaxed);
  site->fired.store(0, std::memory_order_relaxed);
  detail::g_armed.store(armed_count_locked(), std::memory_order_relaxed);
  return true;
}

int configure_from_string(const char* value) {
  // Validate every entry BEFORE arming any (strict all-or-nothing).
  struct Entry {
    Site* site;
    Mode mode;
    double probability;
    std::uint64_t nth;
  };
  std::array<Entry, g_sites.size()> entries;
  std::size_t count = 0;
  std::string_view rest(value);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view entry =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    // A comma promises another entry: "a:1," and "a:1,,b:1" are malformed,
    // not silently tolerated.
    if (comma != std::string_view::npos && rest.empty()) return -1;
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos || count == entries.size()) return -1;
    Site* site = find(entry.substr(0, colon));
    Mode mode = Mode::kOff;
    double probability = 0.0;
    std::uint64_t nth = 0;
    if (site == nullptr ||
        !parse_spec(entry.substr(colon + 1), &mode, &probability, &nth)) {
      return -1;
    }
    entries[count++] = {site, mode, probability, nth};
  }
  const std::lock_guard<std::mutex> lock(g_config_mutex);
  for (std::size_t i = 0; i < count; ++i) {
    entries[i].site->mode.store(entries[i].mode, std::memory_order_relaxed);
    entries[i].site->probability.store(entries[i].probability,
                                       std::memory_order_relaxed);
    entries[i].site->nth.store(entries[i].nth, std::memory_order_relaxed);
    entries[i].site->hits.store(0, std::memory_order_relaxed);
    entries[i].site->fired.store(0, std::memory_order_relaxed);
  }
  const int armed = armed_count_locked();
  detail::g_armed.store(armed, std::memory_order_relaxed);
  return armed;
}

void disable(const char* site_name) {
  detail::init_from_env();
  const std::lock_guard<std::mutex> lock(g_config_mutex);
  if (Site* site = find(site_name)) {
    site->mode.store(Mode::kOff, std::memory_order_relaxed);
    detail::g_armed.store(armed_count_locked(), std::memory_order_relaxed);
  }
}

void disable_all() {
  detail::init_from_env();
  const std::lock_guard<std::mutex> lock(g_config_mutex);
  for (Site& site : g_sites) {
    site.mode.store(Mode::kOff, std::memory_order_relaxed);
    site.hits.store(0, std::memory_order_relaxed);
    site.fired.store(0, std::memory_order_relaxed);
  }
  detail::g_armed.store(0, std::memory_order_relaxed);
}

std::uint64_t hits(const char* site_name) {
  const Site* site = find(site_name);
  return site != nullptr ? site->hits.load(std::memory_order_relaxed) : 0;
}

std::uint64_t fired(const char* site_name) {
  const Site* site = find(site_name);
  return site != nullptr ? site->fired.load(std::memory_order_relaxed) : 0;
}

std::uint64_t total_fired() {
  return g_total_fired.load(std::memory_order_relaxed);
}

ScopedSuspend::ScopedSuspend() { ++tl_suspended; }
ScopedSuspend::~ScopedSuspend() { --tl_suspended; }

}  // namespace emc::util::failpoint
