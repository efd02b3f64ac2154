// The open-loop load window: one producer thread replays the update
// schedule into the Ingestor, the calling thread replays the request
// schedule into the Dispatcher and reaps the replies. Both time every
// operation from its due time, not from when it was sent.
#pragma once

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <variant>
#include <vector>

#include "harness.hpp"
#include "service.hpp"
#include "workloads.hpp"

namespace e2e {

using ByteReply = emc::serve::Reply<std::vector<std::uint8_t>>;
using NodeReply = emc::serve::Reply<std::vector<NodeId>>;
using AnyFuture = std::variant<std::future<ByteReply>, std::future<NodeReply>>;

inline AnyFuture submit(emc::serve::Dispatcher& d, const Query& q) {
  namespace eng = emc::engine;
  switch (q.family) {
    case kSame2Ecc: return d.submit(eng::Same2Ecc{{{q.u, q.v}}});
    case kBridgesOnPath: return d.submit(eng::BridgesOnPath{{{q.u, q.v}}});
    case kLca: return d.submit(eng::LcaBatch{{{q.u, q.v}}});
    case kComponentSize: return d.submit(eng::ComponentSize{{q.u}});
    case kSameBcc: return d.submit(eng::SameBcc{{{q.u, q.v}}});
    default: return d.submit(eng::CcMembership{{q.u}});
  }
}

inline bool ready(const AnyFuture& f) {
  return std::visit(
      [](const auto& fut) {
        return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
      },
      f);
}

/// Status and epoch of a resolved reply, plus its single answer value
/// (what the correctness gate compares).
struct Outcome {
  emc::serve::Status status = emc::serve::Status::kFaulted;
  std::uint64_t epoch = 0;
  std::int64_t value = 0;
};

inline Outcome take(AnyFuture& f) {
  return std::visit(
      [](auto& fut) {
        auto reply = fut.get();
        Outcome o{reply.status, reply.epoch, 0};
        if (reply.ok() && !reply.value.empty()) o.value = reply.value[0];
        return o;
      },
      f);
}

/// Sleeps wake within microseconds of their deadline instead of the
/// default 50us timer slack (this thread only).
inline void tight_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Backlog gauges are sampled every kSampleS during the load window.
inline constexpr double kSampleS = 0.1;

inline std::size_t samples_per_period(const Workload& w) {
  return static_cast<std::size_t>(w.period_s / kSampleS + 0.5);
}

struct QueryRecord {
  double due_s = 0.0;  // absolute (same origin as now_s)
  double submit_s = 0.0;
  double submitted_s = 0.0;  // submit() returned
  double resolve_s = 0.0;
  std::uint64_t epoch = 0;
  Family family = kSame2Ecc;
  emc::serve::Status status = emc::serve::Status::kFaulted;
  bool resolved = false;
};

struct PushRecord {
  double due_s = 0.0;  // of the first update in the push
  double begin_s = 0.0;
  double end_s = 0.0;
};

struct PassResult {
  double begin_s = 0.0;  // schedule origin
  double seconds = 0.0;
  std::vector<QueryRecord> queries;
  std::vector<PushRecord> pushes;
  std::vector<double> update_due_s;        // absolute
  std::vector<double> update_submitted_s;  // its push returned
  std::size_t accepted = 0;
  std::vector<double> lag_samples;
  std::vector<double> outstanding_samples;
  std::size_t unresolved = 0;
  WriterLog log;
  emc::ingest::IngestorStats ingest;
  emc::serve::DispatcherStats serve;
  emc::engine::EngineStats engine_before;
  emc::engine::EngineStats engine_after;
  std::uint64_t replays = 0;
  std::uint64_t rebuilds = 0;
};

inline void record(QueryRecord& q, const Outcome& o, double now) {
  q.resolve_s = now;
  q.status = o.status;
  q.epoch = o.epoch;
  q.resolved = true;
}

inline PassResult run_load(Service& svc, const Inputs& in, double seconds) {
  // Warm-up, off the clock: one request per family in the mix, so lazy
  // first-use work on the initial epoch (the BccIndex) is not charged to
  // the window. Every later epoch pays its own.
  for (std::size_t i = 0; i < in.gate.size(); i += kGatePerFamily) {
    AnyFuture f = submit(*svc.dispatcher, in.gate[i]);
    take(f);
  }
  PassResult r;
  r.seconds = seconds;
  r.engine_before = svc.engine().stats();
  const std::uint64_t replays0 = svc.session->publish_replays();
  const std::uint64_t rebuilds0 = svc.session->publish_rebuilds();
  r.begin_s = now_s() + 0.05;
  const double t0 = r.begin_s;

  r.update_due_s.resize(in.updates.size());
  r.update_submitted_s.resize(in.updates.size());
  for (std::size_t i = 0; i < in.updates.size(); ++i) {
    r.update_due_s[i] = t0 + in.updates[i].due_s;
  }
  r.pushes.reserve(in.updates.size());

  std::thread producer([&] {
    tight_timer_slack();
    std::vector<emc::ingest::Update> due;
    std::size_t i = 0;
    while (i < in.updates.size()) {
      std::this_thread::sleep_until(to_clock(r.update_due_s[i]));
      const std::size_t first = i;
      const double now = now_s();
      due.clear();
      while (i < in.updates.size() && r.update_due_s[i] <= now) {
        const Update& u = in.updates[i];
        due.push_back({u.edge,
                       u.erase ? emc::ingest::UpdateKind::kErase
                               : emc::ingest::UpdateKind::kInsert,
                       0, 0});
        ++i;
      }
      if (due.empty()) continue;
      PushRecord push{r.update_due_s[first], now_s(), 0.0};
      r.accepted += svc.ingestor->submit(due);
      push.end_s = now_s();
      for (std::size_t k = first; k < i; ++k) r.update_submitted_s[k] = push.end_s;
      r.pushes.push_back(push);
    }
  });

  r.queries.resize(in.queries.size());
  struct Inflight {
    std::size_t index;
    AnyFuture future;
  };
  std::array<std::deque<Inflight>, kNumFamilies> inflight;
  std::size_t outstanding = 0;
  const auto reap = [&] {
    const double now = now_s();
    for (auto& lane : inflight) {
      while (!lane.empty() && ready(lane.front().future)) {
        record(r.queries[lane.front().index], take(lane.front().future), now);
        lane.pop_front();
        --outstanding;
      }
    }
  };
  // The client spins: a sleeping client would add its own wake-up latency
  // (large and host-dependent inside a VM) to every measured request, both
  // when sending at the due time and when noticing a reply.
  double next_sample = t0;
  std::size_t next = 0;
  while (next < in.queries.size()) {
    const double now = now_s();
    while (next < in.queries.size() && t0 + in.queries[next].due_s <= now) {
      const Query& q = in.queries[next];
      QueryRecord& rec = r.queries[next];
      rec.due_s = t0 + q.due_s;
      rec.family = q.family;
      rec.submit_s = now_s();
      AnyFuture f = submit(*svc.dispatcher, q);
      rec.submitted_s = now_s();
      inflight[q.family].push_back({next, std::move(f)});
      ++outstanding;
      ++next;
    }
    reap();
    if (now >= next_sample) {
      r.lag_samples.push_back(static_cast<double>(svc.ingestor->lag()));
      r.outstanding_samples.push_back(static_cast<double>(outstanding));
      next_sample = now + kSampleS;
    }
  }
  // Drain: every future must resolve; one still pending after a minute
  // counts as unresolved (a correctness failure).
  for (auto& lane : inflight) {
    for (Inflight& f : lane) {
      const bool done = std::visit(
          [](const auto& fut) {
            return fut.wait_for(std::chrono::seconds(60)) ==
                   std::future_status::ready;
          },
          f.future);
      if (!done) {
        ++r.unresolved;
        continue;
      }
      record(r.queries[f.index], take(f.future), now_s());
    }
    lane.clear();
  }
  producer.join();
  svc.ingestor->flush();
  r.log = svc.log;
  r.ingest = svc.ingestor->stats();
  r.serve = svc.dispatcher->stats();
  r.engine_after = svc.engine().stats();
  r.replays = svc.session->publish_replays() - replays0;
  r.rebuilds = svc.session->publish_rebuilds() - rebuilds0;
  return r;
}

/// Process CPU time (user + system) in seconds. Time the hypervisor steals
/// from the VM is not charged to the process.
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

struct ClosedLoop {
  double qps = 0.0;     // kOk replies per wall second
  double cpu_us = 0.0;  // process CPU microseconds per kOk reply
};

/// Closed loop: keeps kCapacityOutstanding single-pair requests from the
/// workload's mix in flight for kCapacityPhases back-to-back phases of
/// kCapacitySeconds; the median phase's rate and CPU cost per reply.
inline ClosedLoop closed_loop(emc::serve::Dispatcher& d, const Inputs& in) {
  std::vector<AnyFuture> slots;
  std::size_t next = 0;
  const auto fresh = [&] {
    return submit(d, in.capacity[next++ % in.capacity.size()]);
  };
  for (std::size_t i = 0; i < kCapacityOutstanding; ++i) slots.push_back(fresh());
  std::vector<double> rates, costs;
  for (int phase = 0; phase < kCapacityPhases; ++phase) {
    std::size_t ok = 0;
    const double begin = now_s();
    const double cpu = process_cpu_s();
    while (now_s() - begin < kCapacitySeconds) {
      for (AnyFuture& slot : slots) {
        if (take(slot).status == emc::serve::Status::kOk) ++ok;
        slot = fresh();
      }
    }
    const auto replies = static_cast<double>(std::max<std::size_t>(ok, 1));
    rates.push_back(static_cast<double>(ok) / (now_s() - begin));
    costs.push_back((process_cpu_s() - cpu) * 1e6 / replies);
  }
  for (AnyFuture& slot : slots) take(slot);
  return {percentile(rates, 0.5), percentile(costs, 0.5)};
}

}  // namespace e2e
