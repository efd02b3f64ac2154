#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bcc/bcc.hpp"
#include "device/context.hpp"
#include "device/primitives.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"
#include "shard/shard.hpp"
#include "support/fuzz_env.hpp"
#include "util/failpoint.hpp"
#include "util/flags.hpp"

namespace emc::util {
namespace {

Flags make_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(Flags, EqualsSyntax) {
  Flags flags = make_flags({"--nodes=42"});
  EXPECT_EQ(flags.get_int("nodes", 0), 42);
  flags.finish();
}

TEST(Flags, SpaceSyntax) {
  Flags flags = make_flags({"--name", "hello"});
  EXPECT_EQ(flags.get_string("name", ""), "hello");
  flags.finish();
}

TEST(Flags, DefaultsApplyWhenAbsent) {
  Flags flags = make_flags({});
  EXPECT_EQ(flags.get_int("nodes", 7), 7);
  EXPECT_EQ(flags.get_string("algo", "tv"), "tv");
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 1.5), 1.5);
  EXPECT_TRUE(flags.get_bool("verify", true));
  flags.finish();
}

TEST(Flags, BareBooleanIsTrue) {
  Flags flags = make_flags({"--verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  flags.finish();
}

TEST(Flags, BooleanSpellings) {
  Flags on = make_flags({"--a=true", "--b=1", "--c=yes"});
  EXPECT_TRUE(on.get_bool("a", false));
  EXPECT_TRUE(on.get_bool("b", false));
  EXPECT_TRUE(on.get_bool("c", false));
  on.finish();
  Flags off = make_flags({"--a=false", "--b=0", "--c=no"});
  EXPECT_FALSE(off.get_bool("a", true));
  EXPECT_FALSE(off.get_bool("b", true));
  EXPECT_FALSE(off.get_bool("c", true));
  off.finish();
}

TEST(Flags, NegativeAndLargeIntegers) {
  Flags flags = make_flags({"--delta=-3", "--big=8589934592"});
  EXPECT_EQ(flags.get_int("delta", 0), -3);
  EXPECT_EQ(flags.get_int("big", 0), 8'589'934'592LL);
  flags.finish();
}

TEST(Flags, MixedStyles) {
  Flags flags = make_flags({"--a=1", "--b", "2", "--c"});
  EXPECT_EQ(flags.get_int("a", 0), 1);
  EXPECT_EQ(flags.get_int("b", 0), 2);
  EXPECT_TRUE(flags.get_bool("c", false));
  flags.finish();
}

TEST(DeviceWorkers, ValidEmcWorkersIsHonored) {
  ASSERT_EQ(setenv("EMC_WORKERS", "3", 1), 0);
  EXPECT_EQ(device::Context(0).workers(), 3u);
  unsetenv("EMC_WORKERS");
}

TEST(DeviceWorkers, InvalidEmcWorkersFallsBackToHardwareConcurrency) {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  for (const char* bad :
       {"0", "-3", "abc", "", "2x", "1e3", "999999999999"}) {
    ASSERT_EQ(setenv("EMC_WORKERS", bad, 1), 0);
    EXPECT_EQ(device::Context(0).workers(), hardware)
        << "EMC_WORKERS=\"" << bad << "\"";
  }
  unsetenv("EMC_WORKERS");
  EXPECT_EQ(device::Context(0).workers(), hardware);
}

// EMC_FUZZ_SEED / EMC_FUZZ_ROUNDS use the same strict policy as
// EMC_WORKERS: complete parse within the knob's range, else the default.

TEST(FuzzEnv, ValidOverridesAreHonored) {
  ASSERT_EQ(setenv("EMC_FUZZ_SEED", "12345", 1), 0);
  ASSERT_EQ(setenv("EMC_FUZZ_ROUNDS", "7", 1), 0);
  EXPECT_EQ(test_support::fuzz_seed(42), 12345u);
  EXPECT_EQ(test_support::fuzz_rounds(100), 7);
  ASSERT_EQ(setenv("EMC_FUZZ_SEED", "0", 1), 0);  // 0 is a valid seed
  EXPECT_EQ(test_support::fuzz_seed(42), 0u);
  unsetenv("EMC_FUZZ_SEED");
  unsetenv("EMC_FUZZ_ROUNDS");
}

TEST(FuzzEnv, InvalidOverridesFallBackToDefault) {
  for (const char* bad : {"abc", "", "2x", "1e3", "-1", "99999999999999999"}) {
    ASSERT_EQ(setenv("EMC_FUZZ_ROUNDS", bad, 1), 0);
    EXPECT_EQ(test_support::fuzz_rounds(100), 100)
        << "EMC_FUZZ_ROUNDS=\"" << bad << "\"";
  }
  ASSERT_EQ(setenv("EMC_FUZZ_ROUNDS", "0", 1), 0);  // rounds must be >= 1
  EXPECT_EQ(test_support::fuzz_rounds(100), 100);
  // The last entry overflows int64: strtoll clamps it to LLONG_MAX, which
  // would pass a naive range check — the errno guard must reject it.
  for (const char* bad : {"abc", "", "7seven", "-5",
                          "92233720368547758071"}) {
    ASSERT_EQ(setenv("EMC_FUZZ_SEED", bad, 1), 0);
    EXPECT_EQ(test_support::fuzz_seed(42), 42u)
        << "EMC_FUZZ_SEED=\"" << bad << "\"";
  }
  unsetenv("EMC_FUZZ_SEED");
  unsetenv("EMC_FUZZ_ROUNDS");
  EXPECT_EQ(test_support::fuzz_seed(42), 42u);
  EXPECT_EQ(test_support::fuzz_rounds(100), 100);
}

// EMC_SERVE_QUEUE_BOUND / EMC_SERVE_DEADLINE_US (the dispatcher's overload
// knobs) follow the same strict policy; a typo'd bound must degrade to
// "unbounded / no deadline", never to a surprise admission behavior.

TEST(ServeEnv, QueueBoundAndDeadlineOverridesAreHonored) {
  ASSERT_EQ(setenv("EMC_SERVE_QUEUE_BOUND", "128", 1), 0);
  ASSERT_EQ(setenv("EMC_SERVE_DEADLINE_US", "2500", 1), 0);
  EXPECT_EQ(serve::resolve_queue_bound(0), 128u);
  EXPECT_EQ(serve::resolve_default_ttl({}).count(), 2500);
  // Explicit DispatcherOptions win over the environment.
  EXPECT_EQ(serve::resolve_queue_bound(16), 16u);
  EXPECT_EQ(serve::resolve_default_ttl(std::chrono::microseconds(9)).count(),
            9);
  unsetenv("EMC_SERVE_QUEUE_BOUND");
  unsetenv("EMC_SERVE_DEADLINE_US");
  EXPECT_EQ(serve::resolve_queue_bound(0), 0u);      // unbounded
  EXPECT_EQ(serve::resolve_default_ttl({}).count(), 0);  // no deadline
}

TEST(ServeEnv, InvalidValuesFallBackToUnset) {
  for (const char* bad : {"0", "-5", "abc", "", "64k", "1e3",
                          "99999999999999999999"}) {
    ASSERT_EQ(setenv("EMC_SERVE_QUEUE_BOUND", bad, 1), 0);
    ASSERT_EQ(setenv("EMC_SERVE_DEADLINE_US", bad, 1), 0);
    EXPECT_EQ(serve::resolve_queue_bound(0), 0u)
        << "EMC_SERVE_QUEUE_BOUND=\"" << bad << "\"";
    EXPECT_EQ(serve::resolve_default_ttl({}).count(), 0)
        << "EMC_SERVE_DEADLINE_US=\"" << bad << "\"";
  }
  // In-type but out-of-range: bound caps at 2^30, deadline at 10^9 us.
  ASSERT_EQ(setenv("EMC_SERVE_QUEUE_BOUND", "1073741825", 1), 0);
  ASSERT_EQ(setenv("EMC_SERVE_DEADLINE_US", "1000000001", 1), 0);
  EXPECT_EQ(serve::resolve_queue_bound(0), 0u);
  EXPECT_EQ(serve::resolve_default_ttl({}).count(), 0);
  unsetenv("EMC_SERVE_QUEUE_BOUND");
  unsetenv("EMC_SERVE_DEADLINE_US");
}

// EMC_BCC_EAGER shares the strict grammar: a 0/1 switch (build the BCC
// index at publish instead of on first demand). A typo must leave lazy
// builds — never silently flip eagerness.

TEST(BccEnv, EagerOverrideIsHonored) {
  ASSERT_EQ(setenv("EMC_BCC_EAGER", "1", 1), 0);
  EXPECT_TRUE(bcc::resolve_bcc_eager());
  ASSERT_EQ(setenv("EMC_BCC_EAGER", "0", 1), 0);  // explicit off is valid
  EXPECT_FALSE(bcc::resolve_bcc_eager());
  unsetenv("EMC_BCC_EAGER");
  EXPECT_FALSE(bcc::resolve_bcc_eager());
}

TEST(BccEnv, InvalidValuesFallBackToDefaults) {
  for (const char* bad : {"-1", "2", "abc", "", "1x", "1e3", "yes",
                          "99999999999999999999"}) {
    ASSERT_EQ(setenv("EMC_BCC_EAGER", bad, 1), 0);
    EXPECT_FALSE(bcc::resolve_bcc_eager()) << "EMC_BCC_EAGER=\"" << bad
                                           << "\"";
  }
  unsetenv("EMC_BCC_EAGER");
}

// The EMC_INGEST_* knobs share the strict policy, with per-knob ranges:
// queue bound and max batch in [1, 2^30], linger in [0, 1e9] us (0 is a
// real setting — opportunistic batching), publish pacing in [1, 1e9].

TEST(IngestEnv, OverridesAreHonoredAndOptionsWin) {
  ASSERT_EQ(setenv("EMC_INGEST_QUEUE_BOUND", "1024", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_MAX_BATCH", "512", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_LINGER_US", "750", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_PUBLISH_EVERY", "8", 1), 0);
  EXPECT_EQ(ingest::resolve_queue_bound(0), 1024u);
  EXPECT_EQ(ingest::resolve_max_batch(0), 512u);
  EXPECT_EQ(ingest::resolve_linger(std::chrono::microseconds(-1)).count(),
            750);
  EXPECT_EQ(ingest::resolve_publish_every(0), 8u);
  // Explicit IngestorOptions win over the environment; linger 0 is an
  // explicit setting, not "unset".
  EXPECT_EQ(ingest::resolve_queue_bound(16), 16u);
  EXPECT_EQ(ingest::resolve_max_batch(32), 32u);
  EXPECT_EQ(ingest::resolve_linger(std::chrono::microseconds(0)).count(), 0);
  EXPECT_EQ(ingest::resolve_publish_every(3), 3u);
  unsetenv("EMC_INGEST_QUEUE_BOUND");
  unsetenv("EMC_INGEST_MAX_BATCH");
  unsetenv("EMC_INGEST_LINGER_US");
  unsetenv("EMC_INGEST_PUBLISH_EVERY");
  EXPECT_EQ(ingest::resolve_queue_bound(0), 65536u);
  EXPECT_EQ(ingest::resolve_max_batch(0), 2048u);
  EXPECT_EQ(ingest::resolve_linger(std::chrono::microseconds(-1)).count(),
            200);
  EXPECT_EQ(ingest::resolve_publish_every(0), 1u);
}

TEST(IngestEnv, InvalidValuesFallBackToDefaults) {
  for (const char* bad : {"-5", "abc", "", "64k", "1e3",
                          "99999999999999999999"}) {
    ASSERT_EQ(setenv("EMC_INGEST_QUEUE_BOUND", bad, 1), 0);
    ASSERT_EQ(setenv("EMC_INGEST_MAX_BATCH", bad, 1), 0);
    ASSERT_EQ(setenv("EMC_INGEST_LINGER_US", bad, 1), 0);
    ASSERT_EQ(setenv("EMC_INGEST_PUBLISH_EVERY", bad, 1), 0);
    EXPECT_EQ(ingest::resolve_queue_bound(0), 65536u)
        << "EMC_INGEST_QUEUE_BOUND=\"" << bad << "\"";
    EXPECT_EQ(ingest::resolve_max_batch(0), 2048u)
        << "EMC_INGEST_MAX_BATCH=\"" << bad << "\"";
    EXPECT_EQ(ingest::resolve_linger(std::chrono::microseconds(-1)).count(),
              200)
        << "EMC_INGEST_LINGER_US=\"" << bad << "\"";
    EXPECT_EQ(ingest::resolve_publish_every(0), 1u)
        << "EMC_INGEST_PUBLISH_EVERY=\"" << bad << "\"";
  }
  // "0" splits the knobs: linger accepts it, the counted knobs do not.
  ASSERT_EQ(setenv("EMC_INGEST_QUEUE_BOUND", "0", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_MAX_BATCH", "0", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_LINGER_US", "0", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_PUBLISH_EVERY", "0", 1), 0);
  EXPECT_EQ(ingest::resolve_queue_bound(0), 65536u);
  EXPECT_EQ(ingest::resolve_max_batch(0), 2048u);
  EXPECT_EQ(ingest::resolve_linger(std::chrono::microseconds(-1)).count(), 0);
  EXPECT_EQ(ingest::resolve_publish_every(0), 1u);
  // In-type but out-of-range: sizes cap at 2^30, times/counts at 10^9.
  ASSERT_EQ(setenv("EMC_INGEST_QUEUE_BOUND", "1073741825", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_MAX_BATCH", "1073741825", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_LINGER_US", "1000000001", 1), 0);
  ASSERT_EQ(setenv("EMC_INGEST_PUBLISH_EVERY", "1000000001", 1), 0);
  EXPECT_EQ(ingest::resolve_queue_bound(0), 65536u);
  EXPECT_EQ(ingest::resolve_max_batch(0), 2048u);
  EXPECT_EQ(ingest::resolve_linger(std::chrono::microseconds(-1)).count(),
            200);
  EXPECT_EQ(ingest::resolve_publish_every(0), 1u);
  unsetenv("EMC_INGEST_QUEUE_BOUND");
  unsetenv("EMC_INGEST_MAX_BATCH");
  unsetenv("EMC_INGEST_LINGER_US");
  unsetenv("EMC_INGEST_PUBLISH_EVERY");
}

// EMC_SHARD_COUNT follows the same strict contract: explicit
// ShardedOptions.shards wins, a valid complete in-range parse is honored,
// and anything else degrades to the default of 4 shards.

TEST(ShardEnv, ShardCountIsHonoredAndOptionsWin) {
  ASSERT_EQ(setenv("EMC_SHARD_COUNT", "6", 1), 0);
  EXPECT_EQ(shard::resolve_shard_count(0), 6u);
  EXPECT_EQ(shard::resolve_shard_count(2), 2u);  // options beat the env
  ASSERT_EQ(setenv("EMC_SHARD_COUNT", "1", 1), 0);   // range floor
  EXPECT_EQ(shard::resolve_shard_count(0), 1u);
  ASSERT_EQ(setenv("EMC_SHARD_COUNT", "1024", 1), 0);  // range ceiling
  EXPECT_EQ(shard::resolve_shard_count(0), 1024u);
  unsetenv("EMC_SHARD_COUNT");
  EXPECT_EQ(shard::resolve_shard_count(0), 4u);  // documented default
}

TEST(ShardEnv, InvalidShardCountFallsBackToDefault) {
  for (const char* bad : {"-5", "abc", "", "4k", "1e1", "0", "1025",
                          "99999999999999999999"}) {
    ASSERT_EQ(setenv("EMC_SHARD_COUNT", bad, 1), 0);
    EXPECT_EQ(shard::resolve_shard_count(0), 4u)
        << "EMC_SHARD_COUNT=\"" << bad << "\"";
  }
  unsetenv("EMC_SHARD_COUNT");
}

// EMC_FAILPOINT's spec grammar ("0.25" | "7" | "7+") is strict, and a full
// config string arms all-or-nothing — a typo disarms everything rather than
// arming the wrong site. Only the engine.publish site is used here: this
// binary's other tests never hit it, while arming device.launch would fault
// the primitive runs below.

TEST(FailpointSpec, AcceptsTheDocumentedGrammar) {
  namespace fp = failpoint;
  EXPECT_TRUE(fp::configure(fp::kPublish, "1"));     // one-shot, first hit
  EXPECT_TRUE(fp::configure(fp::kPublish, "7"));     // one-shot, nth hit
  EXPECT_TRUE(fp::configure(fp::kPublish, "7+"));    // persistent from nth
  EXPECT_TRUE(fp::configure(fp::kPublish, "1+"));    // always fail
  EXPECT_TRUE(fp::configure(fp::kPublish, "0.25"));  // probability
  EXPECT_TRUE(fp::configure(fp::kPublish, "1.0"));   // p == 1 is allowed
  fp::disable_all();
  EXPECT_FALSE(fp::armed());
}

TEST(FailpointSpec, RejectsMalformedSpecsAndUnknownSites) {
  namespace fp = failpoint;
  for (const char* bad : {"", "0", "0+", "0.0", "1.5", "-1", "abc", "0.25x",
                          "7seven", "+", "1++", "0.5+"}) {
    EXPECT_FALSE(fp::configure(fp::kPublish, bad))
        << "spec \"" << bad << "\" should be rejected";
  }
  EXPECT_FALSE(fp::configure("no.such.site", "1"));
  EXPECT_FALSE(fp::armed());
}

TEST(FailpointSpec, ConfigStringArmsAllOrNothing) {
  namespace fp = failpoint;
  EXPECT_EQ(fp::configure_from_string("arena.alloc:1,engine.publish:0.5"), 2);
  EXPECT_TRUE(fp::armed());
  fp::disable_all();
  // One malformed entry must disarm the WHOLE string.
  for (const char* bad :
       {"arena.alloc:1,bogus.site:0.5", "arena.alloc:1,engine.publish:1.5",
        "arena.alloc", "arena.alloc:", ":1", "arena.alloc:1,"}) {
    EXPECT_EQ(fp::configure_from_string(bad), -1)
        << "EMC_FAILPOINT \"" << bad << "\" should arm nothing";
    EXPECT_FALSE(fp::armed());
  }
  fp::disable_all();
}

TEST(FailpointSpec, OneShotFiresExactlyOnceAndCountersTrack) {
  namespace fp = failpoint;
  ASSERT_TRUE(fp::configure(fp::kPublish, "2"));
  EXPECT_FALSE(fp::should_fail(fp::kPublish));  // hit 1
  EXPECT_TRUE(fp::should_fail(fp::kPublish));   // hit 2: fires
  EXPECT_FALSE(fp::should_fail(fp::kPublish));  // hit 3: spent
  EXPECT_EQ(fp::hits(fp::kPublish), 3u);
  EXPECT_EQ(fp::fired(fp::kPublish), 1u);
  fp::disable_all();
  EXPECT_EQ(fp::hits(fp::kPublish), 0u);  // teardown zeroes the counters
}

TEST(FailpointSpec, ScopedSuspendMasksTheCallingThread) {
  namespace fp = failpoint;
  ASSERT_TRUE(fp::configure(fp::kPublish, "1+"));  // always fail...
  {
    fp::ScopedSuspend suspend;
    EXPECT_FALSE(fp::should_fail(fp::kPublish));  // ...except when suspended
    EXPECT_EQ(fp::hits(fp::kPublish), 0u);  // suspended hits are not counted
  }
  EXPECT_TRUE(fp::should_fail(fp::kPublish));
  fp::disable_all();
}

TEST(FailpointSpec, ReconfigureRacesTheHotPathSafely) {
  namespace fp = failpoint;
  // One thread evaluates the site while another re-arms and disarms it.
  // The hot path reads the site's spec without the config lock, so every
  // field it reads must be atomic (ThreadSanitizer reports plain fields).
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) fp::should_fail(fp::kPublish);
  });
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(fp::configure(fp::kPublish, i % 2 == 0 ? "0.5" : "3+"));
    fp::disable_all();
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_FALSE(fp::armed());
}

TEST(DeviceLatencyModel, SequentialAndExplicitContextsAreFree) {
  EXPECT_DOUBLE_EQ(device::Context::sequential().launch_overhead(), 0.0);
  EXPECT_DOUBLE_EQ(device::Context(3).launch_overhead(), 0.0);
}

TEST(DeviceLatencyModel, DeviceChargesConfiguredLatency) {
  // Explicit override via constructor.
  const device::Context ctx(1, 100e-6);
  EXPECT_DOUBLE_EQ(ctx.launch_overhead(), 100e-6);
}

TEST(DeviceLatencyModel, LatencyDoesNotChangeResults) {
  const device::Context fast(2, 0.0);
  const device::Context slow(2, 20e-6);
  std::vector<std::int64_t> in(10'000, 3), a(10'000), b(10'000);
  device::inclusive_scan(fast, in.data(), in.size(), a.data());
  device::inclusive_scan(slow, in.data(), in.size(), b.data());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace emc::util
