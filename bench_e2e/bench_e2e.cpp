// bench_e2e — the end-to-end benchmark of the unsharded serving stack:
//
//   producer -> Ingestor (ring, batcher, writer apply) -> publish hook
//     (Session::refresh + Dispatcher::publish) -> Dispatcher lanes
//     (coalesce, View::run, scatter) -> futures reaped by the client
//
// driven open-loop from a seed. Usage:
//
//   bench_e2e --workload <road-insert|road-churn|kron-read> --seed <n>
//             --seconds <load window> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics (set-up time, request latency,
// update-to-visible latency, CPU per request, peak RSS); --trace 1
// replays the same schedule twice on fresh services, untraced then traced,
// and prints the per-layer metrics, the visibility-path attribution and
// the tracing overhead. Either way the correctness gate runs after the
// load, and the last stdout line is one JSON object
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is nonzero if the gate fails. METRICS.md describes every
// metric and workload.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bcc/bcc.hpp"
#include "gate.hpp"
#include "harness.hpp"
#include "load.hpp"
#include "metrics.hpp"
#include "service.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace e2e;

constexpr int kSetups = 5;  // setup_s is the median of this many set-ups
constexpr std::size_t kDirectCalls = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
      if (!a.trace && std::strcmp(value, "0") != 0) return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Median ns of single-request View::run calls per family on `view`.
std::vector<Metric> direct_answer_ns(const emc::engine::View& view, const Inputs& in) {
  namespace eng = emc::engine;
  view.bcc_index();  // build off the clock, so SameBcc times the lookup
  std::vector<Metric> out;
  for (int f = 0; f < kNumFamilies; ++f) {
    std::vector<double> ns;
    ns.reserve(kDirectCalls);
    for (std::size_t i = 0; i < kDirectCalls; ++i) {
      const Query& q = in.capacity[i % in.capacity.size()];
      const auto begin = Clock::now();
      switch (f) {
        case kSame2Ecc: view.run(eng::Same2Ecc{{{q.u, q.v}}}); break;
        case kBridgesOnPath: view.run(eng::BridgesOnPath{{{q.u, q.v}}}); break;
        case kLca: view.run(eng::LcaBatch{{{q.u, q.v}}}); break;
        case kComponentSize: view.run(eng::ComponentSize{{q.u}}); break;
        case kSameBcc: view.run(eng::SameBcc{{{q.u, q.v}}}); break;
        default: view.run(eng::CcMembership{{q.u}}); break;
      }
      ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - begin).count());
    }
    out.push_back({std::string("engine.answer_ns.") + family_name(f),
                   percentile(ns, 0.5), "ns"});
  }
  return out;
}

/// Cold BccIndex build on the final epoch (median of three), in ms.
double bcc_build_ms(emc::engine::Engine& eng, const emc::engine::View& view) {
  std::vector<double> ms;
  for (int r = 0; r < 3; ++r) {
    const auto lock = eng.device().exclusive();
    const auto begin = Clock::now();
    const emc::bcc::BccIndex index =
        emc::bcc::BccIndex::build(eng.device(), view.edges(), view.forest());
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - begin).count());
    if (index.vertex_block.size() != static_cast<std::size_t>(view.num_nodes())) {
      return kMissedSentinel;
    }
  }
  return percentile(ms, 0.5);
}

void print_e2e(const char* label, const EndToEnd& e) {
  std::printf("# %s: %zu requests p50 %.1fus p99 %.1fus p999 %.1fus (%zu failed; "
              "per %zu sub-windows highest reportable p%.4g, whole window p%.4g); "
              "%zu updates visible p50 %.2fms p99 %.2fms mean %.2fms (%zu failed; "
              "per sub-window highest reportable p%.4g)\n",
              label, e.queries, e.query_p50_us, e.query_p99_us, e.query_p999_us,
              e.failed_queries, e.windows, 100 * highest_reportable(e.queries / e.windows),
              100 * highest_reportable(e.queries), e.updates, e.visible_p50_ms,
              e.visible_p99_ms, e.visible_mean_ms, e.failed_updates,
              100 * highest_reportable(e.updates / e.windows));
}

/// Open-loop health and whether the workload loaded the layer it was
/// chosen for (printed; they describe the run, not the program's answers).
void print_health(const Workload& w, const Inputs& in, const PassResult& p) {
  const std::vector<double> late = lateness(p);
  std::printf("# health: generator late p50 %.1fus p99 %.1fus; ingest lag %s, "
              "outstanding requests %s through the window\n",
              percentile(late, 0.5) * 1e6, percentile(late, 0.99) * 1e6,
              lag_growing(w, p) ? "GROWING" : "bounded",
              outstanding_growing(w, p) ? "GROWING" : "bounded");
  std::printf("# layers: %llu replayed + %llu rebuilt publishes, %zu insert + %zu "
              "erase batches (%zu erase bursts scheduled)\n",
              static_cast<unsigned long long>(p.replays),
              static_cast<unsigned long long>(p.rebuilds), p.ingest.insert_batches,
              p.ingest.erase_batches, in.erase_bursts);
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr, "usage: bench_e2e --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  // Pinned configuration: every knob is set through the options structs,
  // so an EMC_* override would silently change what is measured.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "EMC_", 4) == 0) {
      std::fprintf(stderr, "refusing to run with %s set: the benchmark pins "
                           "its configuration\n", *env);
      return 2;
    }
  }
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == args.workload; });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *it;
  now_s();  // fix the time origin

  const Inputs in = generate(w, args.seed, args.seconds);
  const emc::serve::DispatcherOptions dopt = dispatcher_options();
  const emc::ingest::IngestorOptions iopt = ingest_options(w);
  std::printf("# workload %s (seed %llu, %.3gs window, trace %d, nproc %ld): %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), w.why.c_str());
  std::printf("# inputs: %d nodes, %zu generated edges, %zu updates, %zu requests "
              "at %.0f/s (%s vertices)\n",
              in.graph.num_nodes, in.graph.edges.size(), in.updates.size(),
              in.queries.size(), w.read_rate, w.zipf ? "zipf" : "uniform");
  std::printf("# config: engine device_workers=%u multicore_workers=%u calibrate=0; "
              "ingest queue_bound=%zu admission=block max_batch=%zu linger=%lldus "
              "adaptive=%d publish_every=%zu; serve workers=%u queue_bound=%zu "
              "admission=block max_coalesce=%zu window=%lldus\n",
              kDeviceWorkers, kMulticoreWorkers, iopt.queue_bound, iopt.max_batch,
              static_cast<long long>(iopt.linger.count()), iopt.adaptive_linger ? 1 : 0,
              iopt.publish_every, dopt.workers, dopt.queue_bound, dopt.max_coalesce,
              static_cast<long long>(dopt.coalesce_window.count()));

  emc::engine::Engine engine(engine_options());
  std::vector<Metric> metrics;
  std::unique_ptr<Service> svc;
  PassResult pass;
  EndToEnd untraced;
  std::size_t attempted = 0, failed = 0;
  double rss_mb = 0.0;
  std::vector<double> setups;

  if (!args.trace) {
    for (int r = 0; r < kSetups; ++r) {
      svc.reset();
      const double begin = now_s();
      svc = std::make_unique<Service>(engine, in, w, /*traced=*/false);
      setups.push_back(now_s() - begin);
    }
    pass = run_load(*svc, in, args.seconds);
    // Before the gate, whose sequential references are not the program's.
    rss_mb = peak_rss_mb();
    untraced = summarize(pass, w.period_s);
  } else {
    {
      Service plain(engine, in, w, /*traced=*/false);
      const PassResult first = run_load(plain, in, args.seconds);
      untraced = summarize(first, w.period_s);
      attempted += untraced.queries + untraced.updates;
      failed += untraced.failed_queries + untraced.failed_updates + first.unresolved;
    }
    svc = std::make_unique<Service>(engine, in, w, /*traced=*/true);
    pass = run_load(*svc, in, args.seconds);
  }
  const EndToEnd e = summarize(pass, w.period_s);
  attempted += e.queries + e.updates;
  failed += e.failed_queries + e.failed_updates;
  print_e2e(args.trace ? "untraced" : "load", untraced);
  if (args.trace) print_e2e("traced", e);
  print_health(w, in, pass);

  const GateResult gate = run_gate(*svc, in, pass);
  attempted += gate.checked;
  failed += gate.mismatches;
  for (const std::string& problem : gate.problems) std::printf("# GATE: %s\n", problem.c_str());
  std::printf("# gate: %zu checks, %zu mismatches\n", gate.checked, gate.mismatches);

  if (!args.trace) {
    metrics = {
        {"setup_s", percentile(setups, 0.5), "s"},
        {"query_cpu_us", closed_loop(*svc->dispatcher, in).cpu_us, "us"},
        {"visible_p50_ms", e.visible_p50_ms, "ms"},
        {"visible_p99_ms", e.visible_p99_ms, "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    metrics = per_layer(w, pass, untraced, e);
    const emc::engine::View view = svc->dispatcher->current_view();
    for (Metric& m : direct_answer_ns(view, in)) metrics.push_back(std::move(m));
    metrics.push_back({"bcc.index_build_ms", bcc_build_ms(engine, view), "ms"});
    metrics.push_back({"serve.closed_loop_qps", closed_loop(*svc->dispatcher, in).qps, "1/s"});
  }
  const double error_frac =
      static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, attempted));
  std::printf("# error_frac %.6g (%zu failed of %zu attempted)\n", error_frac, failed,
              attempted);
  svc.reset();
  const bool correct = failed == 0;
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
