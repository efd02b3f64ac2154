#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "device/context.hpp"
#include "device/primitives.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
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

TEST(DeviceLatency, ValidEmcKernelLatencyIsHonored) {
  ASSERT_EQ(setenv("EMC_KERNEL_LATENCY_US", "120", 1), 0);
  EXPECT_DOUBLE_EQ(device::Context::device_launch_overhead(), 120e-6);
  ASSERT_EQ(setenv("EMC_KERNEL_LATENCY_US", "0", 1), 0);  // model off
  EXPECT_DOUBLE_EQ(device::Context::device_launch_overhead(), 0.0);
  ASSERT_EQ(setenv("EMC_KERNEL_LATENCY_US", "1000000", 1), 0);  // ceiling
  EXPECT_DOUBLE_EQ(device::Context::device_launch_overhead(), 1.0);
  unsetenv("EMC_KERNEL_LATENCY_US");
  EXPECT_DOUBLE_EQ(device::Context::device_launch_overhead(), 50e-6);
}

TEST(DeviceLatency, InvalidEmcKernelLatencyKeepsTheDefault) {
  // Junk and negatives used to switch the latency model off silently.
  for (const char* bad : {"abc", "-50", "", "12.5", "50us", "1000001",
                          "92233720368547758071"}) {
    ASSERT_EQ(setenv("EMC_KERNEL_LATENCY_US", bad, 1), 0);
    EXPECT_DOUBLE_EQ(device::Context::device_launch_overhead(), 50e-6)
        << "EMC_KERNEL_LATENCY_US=\"" << bad << "\"";
  }
  unsetenv("EMC_KERNEL_LATENCY_US");
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

// The options structs are the only way to tune ingest, serving and
// sharding: the environment variables that once overrode them are ignored,
// and values with no meaning clamp at construction.

/// Every retired override, set to a valid non-default value.
constexpr std::array<std::pair<const char*, const char*>, 8> kRetiredEnv{{
    {"EMC_INGEST_QUEUE_BOUND", "1024"},
    {"EMC_INGEST_MAX_BATCH", "512"},
    {"EMC_INGEST_LINGER_US", "750"},
    {"EMC_INGEST_PUBLISH_EVERY", "8"},
    {"EMC_SERVE_QUEUE_BOUND", "1"},
    {"EMC_SERVE_DEADLINE_US", "1"},
    {"EMC_SHARD_COUNT", "6"},
    {"EMC_BCC_EAGER", "1"},
}};

/// Stages inserts {i, i+1} for i < `path`, then an erase and an insert of
/// {0, 1}, in a paused Ingestor over an empty graph; then resumes and
/// stops it. Returns the ring capacity and the drained stats.
std::pair<std::size_t, ingest::IngestorStats> drive_ingestor(
    ingest::IngestorOptions options, NodeId path) {
  engine::Engine engine({.device_workers = 1});
  dynamic::DynamicGraph graph(engine.device(), graph::EdgeList{path + 1, {}});
  engine::Session session = engine.session(graph);
  options.start_paused = true;
  ingest::Ingestor ingestor(engine, graph, session, options);
  std::vector<graph::Edge> edges;
  for (NodeId i = 0; i < path; ++i) edges.push_back({i, i + 1});
  ingestor.insert(edges);
  ingestor.erase({{0, 1}});
  ingestor.insert({{0, 1}});
  ingestor.resume();
  ingestor.stop();
  return {ingestor.queue().bound(), ingestor.stats()};
}

TEST(OptionDefaults, RetiredEnvOverridesAreIgnored) {
  for (const auto& [name, value] : kRetiredEnv) {
    ASSERT_EQ(setenv(name, value, 1), 0);
  }

  // Ingest: a 65536-update ring (Reject admission refuses nothing),
  // batches cut at 2048 (3000 inserts make two, the erase and the last
  // insert one each), a publish per batch and a 200us linger.
  ingest::IngestorOptions defaults;
  defaults.admission = ingest::Admission::kReject;
  const auto [bound, stats] = drive_ingestor(defaults, 3000);
  EXPECT_EQ(bound, 65536u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.max_batch, 2048u);
  EXPECT_EQ(stats.publishes, 4u);
  ingest::UpdateQueue queue(16, ingest::Admission::kBlock);
  const ingest::Batcher batcher(queue, ingest::BatcherOptions{});
  EXPECT_EQ(batcher.options().max_batch, 2048u);
  EXPECT_EQ(batcher.options().linger, std::chrono::microseconds(200));

  // Serve: unbounded lanes and no default deadline, so every request
  // staged in a paused Reject-admission lane is answered, however long
  // it waited.
  engine::Engine engine({.device_workers = 1});
  const graph::EdgeList triangle{3, {{0, 1}, {1, 2}, {2, 0}}};
  engine::Session session = engine.session(triangle);
  serve::Dispatcher dispatcher(
      session.view(),
      {.start_paused = true, .admission = serve::Admission::kReject});
  std::vector<decltype(dispatcher.submit(engine::Same2Ecc{}))> replies;
  for (int i = 0; i < 3; ++i) {
    replies.push_back(dispatcher.submit(engine::Same2Ecc{{{0, 1}}}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  dispatcher.resume();
  for (auto& reply : replies) EXPECT_EQ(reply.get().status, serve::Status::kOk);
  dispatcher.stop();
  EXPECT_EQ(dispatcher.stats().rejected, 0u);
  EXPECT_EQ(dispatcher.stats().expired, 0u);

  // BCC: a publish leaves the index to its first reader.
  const engine::View view = session.view();
  const std::uint64_t before = engine.device_launches();
  view.run(engine::Articulations{});
  EXPECT_GT(engine.device_launches(), before);

  // Shard: K = 4.
  EXPECT_EQ(shard::ShardedGraph(8, shard::ShardedOptions{}).shards(), 4u);

  for (const auto& [name, value] : kRetiredEnv) unsetenv(name);
}

TEST(OptionDefaults, MeaninglessValuesClampAtConstruction) {
  // A zero ring bound acts as 1: the first update is admitted, the rest
  // are refused.
  ingest::IngestorOptions ring;
  ring.queue_bound = 0;
  ring.admission = ingest::Admission::kReject;
  const auto [bound, refused] = drive_ingestor(ring, 4);
  EXPECT_EQ(bound, 1u);
  EXPECT_EQ(refused.accepted, 1u);
  EXPECT_EQ(refused.rejected, 5u);

  // Zero max_batch and publish_every act as 1: every update is its own
  // batch and its own publish.
  ingest::IngestorOptions pacing;
  pacing.max_batch = 0;
  pacing.publish_every = 0;
  const ingest::IngestorStats stats = drive_ingestor(pacing, 4).second;
  EXPECT_EQ(stats.batches, 6u);
  EXPECT_EQ(stats.max_batch, 1u);
  EXPECT_EQ(stats.publishes, 6u);

  // A negative linger acts as 0: no added wait at any depth.
  ingest::UpdateQueue queue(16, ingest::Admission::kBlock);
  const ingest::Batcher batcher(
      queue, {.max_batch = 0, .linger = std::chrono::microseconds(-5)});
  EXPECT_EQ(batcher.options().max_batch, 1u);
  EXPECT_EQ(batcher.effective_linger(0).count(), 0);
  EXPECT_EQ(batcher.effective_linger(64).count(), 0);

  // Zero shards act as 1.
  EXPECT_EQ(shard::ShardedGraph(8, shard::ShardedOptions{.shards = 0}).shards(),
            1u);
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
