// Turning one load window's records into the benchmark's metrics: the
// end-to-end summary (tracing off) and the per-layer breakdown (tracing
// on), including the visibility-path attribution.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "load.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A percentile that landed on a failed sample has no finite value; it is
/// reported as this sentinel (a run with failures is not correct anyway).
inline constexpr double kMissedSentinel = 1e9;

inline double finite(double x) { return std::isfinite(x) ? x : kMissedSentinel; }

inline std::vector<PublishEvent> publish_events(const WriterLog& log) {
  std::vector<PublishEvent> out;
  out.reserve(log.publishes.size());
  for (const PublishRecord& p : log.publishes) {
    out.push_back({p.return_s, p.epoch, p.ok});
  }
  return out;
}

/// Request latency per request (seconds, kMissed unless kOk).
inline std::vector<double> query_latencies(const PassResult& p, int family = -1) {
  std::vector<double> out;
  out.reserve(p.queries.size());
  for (std::size_t i = 0; i < p.queries.size(); ++i) {
    const QueryRecord& q = p.queries[i];
    if (family >= 0 && q.family != family) continue;
    out.push_back(q.resolved && q.status == emc::serve::Status::kOk
                      ? q.resolve_s - q.due_s
                      : kMissed);
  }
  return out;
}

struct EndToEnd {
  double query_p50_us = 0, query_p99_us = 0, query_p999_us = 0;
  double visible_p50_ms = 0, visible_p99_ms = 0, visible_mean_ms = 0;
  std::size_t queries = 0, updates = 0;
  std::size_t failed_queries = 0, failed_updates = 0;
  std::size_t windows = 0;
};

/// Median over consecutive sub-windows of `period_s` (by due time) of the
/// q-th percentile of each sub-window's samples. A sub-window spans one
/// write period, so every one holds the same write pattern, and the median
/// discards a sub-window that a transient stall of the host inflated.
inline double windowed(const std::vector<double>& due_s,
                       const std::vector<double>& latency, double begin_s,
                       double period_s, std::size_t windows, double q) {
  std::vector<std::vector<double>> split(windows);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const auto k = static_cast<std::size_t>((due_s[i] - begin_s) / period_s);
    split[std::min(k, windows - 1)].push_back(latency[i]);
  }
  std::vector<double> per_window;
  for (const auto& w : split) {
    if (!w.empty()) per_window.push_back(percentile(w, q));
  }
  std::sort(per_window.begin(), per_window.end());
  if (per_window.empty()) return 0.0;
  const std::size_t m = per_window.size();
  return m % 2 == 1 ? per_window[m / 2]
                    : (per_window[m / 2 - 1] + per_window[m / 2]) / 2;
}

inline EndToEnd summarize(const PassResult& p, double period_s) {
  EndToEnd e;
  e.windows = std::max<std::size_t>(1, static_cast<std::size_t>(p.seconds / period_s + 1e-9));
  const std::vector<double> q = query_latencies(p);
  std::vector<double> q_due;
  for (const QueryRecord& r : p.queries) q_due.push_back(r.due_s);
  e.queries = q.size();
  e.failed_queries = static_cast<std::size_t>(
      std::count(q.begin(), q.end(), kMissed));
  e.query_p50_us = finite(windowed(q_due, q, p.begin_s, period_s, e.windows, 0.5) * 1e6);
  e.query_p99_us = finite(windowed(q_due, q, p.begin_s, period_s, e.windows, 0.99) * 1e6);
  e.query_p999_us = finite(percentile(q, 0.999) * 1e6);
  const std::vector<double> v =
      visibility(p.update_due_s, p.log.batches, publish_events(p.log));
  e.updates = v.size();
  const auto missed = static_cast<std::size_t>(std::count(v.begin(), v.end(), kMissed));
  e.failed_updates = std::max(missed, e.updates - std::min(e.updates, p.log.effective));
  e.visible_p50_ms =
      finite(windowed(p.update_due_s, v, p.begin_s, period_s, e.windows, 0.5) * 1e3);
  e.visible_p99_ms =
      finite(windowed(p.update_due_s, v, p.begin_s, period_s, e.windows, 0.99) * 1e3);
  e.visible_mean_ms = missed == 0 ? mean(v) * 1e3 : kMissedSentinel;
  return e;
}

/// Mean shares of the visibility path (traced run), in ms per update. They
/// telescope: due -> push returned -> on_apply -> hook entered -> refresh
/// returned -> publish returned.
struct Attribution {
  double submit_ms = 0, queue_apply_ms = 0, pacing_ms = 0, refresh_ms = 0,
         publish_ms = 0;
  std::vector<double> wait_apply_s, pacing_s;  // per update
  double sum() const {
    return submit_ms + queue_apply_ms + pacing_ms + refresh_ms + publish_ms;
  }
};

inline Attribution attribute(const PassResult& p) {
  Attribution a;
  const auto& batches = p.log.batches;
  const std::vector<std::size_t> batch = batch_of_update(p.update_due_s.size(), batches);
  const std::vector<std::size_t> pub = publish_of_batch(batches, publish_events(p.log));
  std::size_t n = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i] == kNone || pub[batch[i]] == kNone) continue;
    const AppliedBatch& b = batches[batch[i]];
    const PublishRecord& r = p.log.publishes[pub[batch[i]]];
    a.submit_ms += p.update_submitted_s[i] - p.update_due_s[i];
    a.queue_apply_ms += b.apply_s - p.update_submitted_s[i];
    a.pacing_ms += r.begin_s - b.apply_s;
    a.refresh_ms += r.refreshed_s - r.begin_s;
    a.publish_ms += r.return_s - r.refreshed_s;
    a.wait_apply_s.push_back(b.apply_s - p.update_submitted_s[i]);
    a.pacing_s.push_back(r.begin_s - b.apply_s);
    ++n;
  }
  const double scale = n == 0 ? 0.0 : 1e3 / static_cast<double>(n);
  a.submit_ms *= scale;
  a.queue_apply_ms *= scale;
  a.pacing_ms *= scale;
  a.refresh_ms *= scale;
  a.publish_ms *= scale;
  return a;
}

/// Writer time per batch ending at on_apply: from the later of the
/// previous writer event (batch applied or publish returned) and the
/// return of the push holding the batch's last update.
inline std::vector<double> apply_intervals(const PassResult& p) {
  std::vector<double> out;
  const auto& batches = p.log.batches;
  const auto& pubs = p.log.publishes;
  std::size_t next_update = 0, pc = 0;
  double last_event = p.begin_s;
  for (const AppliedBatch& b : batches) {
    while (pc < pubs.size() && pubs[pc].return_s <= b.apply_s) {
      last_event = std::max(last_event, pubs[pc++].return_s);
    }
    next_update += b.raw_updates;
    double start = last_event;
    if (next_update > 0 && next_update <= p.update_submitted_s.size()) {
      start = std::max(start, p.update_submitted_s[next_update - 1]);
    }
    out.push_back(b.apply_s - start);
    last_event = b.apply_s;
  }
  return out;
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// How late the two generator threads sent (seconds): due time to the
/// start of each request submit and each update push.
inline std::vector<double> lateness(const PassResult& p) {
  std::vector<double> late;
  for (const QueryRecord& q : p.queries) late.push_back(q.submit_s - q.due_s);
  for (const PushRecord& r : p.pushes) late.push_back(r.begin_s - r.due_s);
  return late;
}

/// Whether the ingest lag or the outstanding requests stop draining within
/// a write period (slack: one burst or batch of updates, 64 requests).
inline bool lag_growing(const Workload& w, const PassResult& p) {
  return growing(p.lag_samples, samples_per_period(w),
                 static_cast<double>(std::max(w.burst, kMaxBatch)));
}
inline bool outstanding_growing(const Workload& w, const PassResult& p) {
  return growing(p.outstanding_samples, samples_per_period(w), 64.0);
}

inline std::vector<Metric> per_layer(const Workload& w, const PassResult& p,
                                     const EndToEnd& untraced,
                                     const EndToEnd& traced) {
  std::vector<Metric> m;
  const auto add = [&](const std::string& name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  const auto pct = [](const std::vector<double>& v, double q, double scale) {
    return finite(percentile(v, q) * scale);
  };

  // Request latency, open loop from due time. Reported here rather than
  // end to end: at tens of microseconds it follows the host's vCPU
  // scheduling more than the program (see METRICS.md).
  add("serve.query_p50_us", traced.query_p50_us, "us");
  add("serve.query_p99_us", traced.query_p99_us, "us");
  add("serve.query_p999_us", traced.query_p999_us, "us");

  // loadgen: how late the two generator threads sent, and backlog health.
  add("loadgen.late_p99_us", pct(lateness(p), 0.99, 1e6), "us");
  const bool backlog = lag_growing(w, p) || outstanding_growing(w, p);
  add("loadgen.backlog_growing", backlog ? 1.0 : 0.0, "bool");

  // ingest
  std::vector<double> block;
  for (const PushRecord& r : p.pushes) block.push_back(r.end_s - r.begin_s);
  const Attribution a = attribute(p);
  add("ingest.submit_block_p99_us", pct(block, 0.99, 1e6), "us");
  add("ingest.wait_apply_p50_ms", pct(a.wait_apply_s, 0.5, 1e3), "ms");
  add("ingest.pacing_wait_p50_ms", pct(a.pacing_s, 0.5, 1e3), "ms");
  add("ingest.batch_mean_updates",
      ratio(static_cast<double>(p.ingest.applied), static_cast<double>(p.ingest.batches)),
      "count");
  add("ingest.max_queue_depth", static_cast<double>(p.ingest.max_queue_depth), "count");
  add("ingest.lag_max",
      p.lag_samples.empty() ? 0.0 : *std::max_element(p.lag_samples.begin(), p.lag_samples.end()),
      "count");

  // dynamic
  const std::vector<double> apply = apply_intervals(p);
  add("dynamic.apply_p50_ms", pct(apply, 0.5, 1e3), "ms");
  add("dynamic.apply_p99_ms", pct(apply, 0.99, 1e3), "ms");

  // engine: publish paths (refresh + install, per publish)
  std::vector<double> replay, rebuild, install;
  double launches = 0;
  for (const PublishRecord& r : p.log.publishes) {
    if (r.replay) replay.push_back(r.return_s - r.begin_s);
    if (r.rebuild) rebuild.push_back(r.return_s - r.begin_s);
    install.push_back(r.return_s - r.refreshed_s);
    launches += static_cast<double>(r.launches);
  }
  add("engine.publish_replay_p50_ms", pct(replay, 0.5, 1e3), "ms");
  add("engine.publish_replay_p99_ms", pct(replay, 0.99, 1e3), "ms");
  add("engine.publish_rebuild_p50_ms", pct(rebuild, 0.5, 1e3), "ms");
  add("engine.publish_rebuild_p99_ms", pct(rebuild, 0.99, 1e3), "ms");
  add("engine.replay_frac",
      ratio(static_cast<double>(p.replays), static_cast<double>(p.replays + p.rebuilds)),
      "ratio");
  add("engine.launches_per_publish",
      ratio(launches, static_cast<double>(p.log.publishes.size())), "count");
  const auto& e0 = p.engine_before;
  const auto& e1 = p.engine_after;
  const double device = static_cast<double>(e1.device_query_batches - e0.device_query_batches);
  const double host = static_cast<double>(e1.host_query_batches - e0.host_query_batches);
  add("engine.device_batch_frac", ratio(device, device + host), "ratio");
  add("engine.host_fallbacks", static_cast<double>(e1.host_fallbacks - e0.host_fallbacks),
      "count");

  // serve
  std::vector<double> submit;
  for (const QueryRecord& q : p.queries) submit.push_back(q.submitted_s - q.submit_s);
  const auto& s = p.serve;
  add("serve.submit_p99_us", pct(submit, 0.99, 1e6), "us");
  add("serve.install_p50_ms", pct(install, 0.5, 1e3), "ms");
  add("serve.requests_per_round",
      ratio(static_cast<double>(s.answered), static_cast<double>(s.rounds)), "count");
  add("serve.dedup_frac",
      ratio(static_cast<double>(s.coalesce_cache_hits), static_cast<double>(s.answered)),
      "ratio");
  add("serve.max_queue_depth", static_cast<double>(s.max_queue_depth), "count");
  add("serve.stale_served_frac",
      ratio(static_cast<double>(s.stale_served), static_cast<double>(s.answered)), "ratio");
  for (int f = 0; f < kNumFamilies; ++f) {
    add(std::string("serve.") + family_name(f) + ".p99_us",
        pct(query_latencies(p, f), 0.99, 1e6), "us");
  }

  // bcc: the first SameBcc reply of each epoch pays that epoch's build.
  std::map<std::uint64_t, double> first;  // epoch -> latency of first reply
  std::map<std::uint64_t, double> first_at;
  for (const QueryRecord& q : p.queries) {
    if (q.family != kSameBcc || q.status != emc::serve::Status::kOk) continue;
    auto it = first_at.find(q.epoch);
    if (it == first_at.end() || q.resolve_s < it->second) {
      first_at[q.epoch] = q.resolve_s;
      first[q.epoch] = q.resolve_s - q.due_s;
    }
  }
  std::vector<double> first_reply;
  for (const auto& [epoch, latency] : first) first_reply.push_back(latency);
  add("bcc.first_reply_p50_ms", pct(first_reply, 0.5, 1e3), "ms");
  std::set<std::uint64_t> published;
  for (const PublishRecord& r : p.log.publishes) {
    if (r.ok) published.insert(r.epoch);
  }
  std::size_t built = 0;
  for (const std::uint64_t epoch : published) built += first.count(epoch);
  add("bcc.epochs_built_frac",
      ratio(static_cast<double>(built), static_cast<double>(published.size())), "ratio");

  // Attribution of the visibility path and the tracing overhead.
  add("attr.submit_ms", a.submit_ms, "ms");
  add("attr.queue_apply_ms", a.queue_apply_ms, "ms");
  add("attr.pacing_ms", a.pacing_ms, "ms");
  add("attr.refresh_ms", a.refresh_ms, "ms");
  add("attr.publish_ms", a.publish_ms, "ms");
  add("attr.sum_over_untraced_visible", ratio(a.sum(), untraced.visible_mean_ms), "ratio");
  add("overhead.query_p50_us", traced.query_p50_us - untraced.query_p50_us, "us");
  add("overhead.query_p99_us", traced.query_p99_us - untraced.query_p99_us, "us");
  add("overhead.query_p999_us", traced.query_p999_us - untraced.query_p999_us, "us");
  add("overhead.visible_p50_ms", traced.visible_p50_ms - untraced.visible_p50_ms, "ms");
  add("overhead.visible_p99_ms", traced.visible_p99_ms - untraced.visible_p99_ms, "ms");
  return m;
}

}  // namespace e2e
