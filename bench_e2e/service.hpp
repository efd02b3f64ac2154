// The system under test as one unit: DynamicGraph -> Session -> Ingestor
// attached to a Dispatcher, plus the writer-side records the benchmark
// keeps (on_apply callback and a publish hook installed after
// attach_ingestor). Everything here runs the library's public API only.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// The process's time origin; every record is in seconds since it.
inline Clock::time_point origin() {
  static const Clock::time_point t = Clock::now();
  return t;
}

inline double now_s() {
  return std::chrono::duration<double>(Clock::now() - origin()).count();
}

inline Clock::time_point to_clock(double s) {
  return origin() + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
}

/// One return of the publish hook. The traced fields stay 0 untraced.
struct PublishRecord {
  double begin_s = 0.0;      // hook entered (traced)
  double refreshed_s = 0.0;  // Session::refresh() returned (traced)
  double return_s = 0.0;     // Dispatcher::publish(Session&) returned
  std::uint64_t epoch = 0;
  bool ok = false;
  bool replay = false;   // traced: the refresh replayed the delta
  bool rebuild = false;  // traced: the refresh ran the full pipeline
  std::uint64_t launches = 0;  // traced: device launches during the hook
};

/// Written by the Ingestor's writer thread only; read after flush().
struct WriterLog {
  std::vector<AppliedBatch> batches;
  std::size_t effective = 0;
  std::vector<PublishRecord> publishes;
};

class Service {
 public:
  Service(emc::engine::Engine& engine, const Inputs& in, const Workload& w,
          bool traced)
      : engine_(engine), traced_(traced) {
    log.batches.reserve(1 << 16);
    log.publishes.reserve(1 << 16);
    graph = std::make_unique<emc::dynamic::DynamicGraph>(engine.device(), in.graph);
    session.emplace(engine.session(*graph));
    dispatcher = std::make_unique<emc::serve::Dispatcher>(session->view(),
                                                          dispatcher_options());
    emc::ingest::IngestorOptions options = ingest_options(w);
    options.on_apply = [this](const emc::ingest::Batch& batch,
                              std::uint64_t epoch_after, std::size_t effective) {
      log.batches.push_back({batch.raw_updates, epoch_after, now_s()});
      log.effective += effective;
    };
    ingestor = std::make_unique<emc::ingest::Ingestor>(engine, *graph, *session,
                                                       options);
    dispatcher->attach_ingestor(*ingestor);
    ingestor->set_publisher(
        [this](emc::engine::Session& s) { return publish(s); });
  }

  ~Service() {
    ingestor->stop();  // before the Dispatcher: it owns the publish hook
    dispatcher->stop();
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  emc::engine::Engine& engine() const { return engine_; }

  WriterLog log;
  std::unique_ptr<emc::dynamic::DynamicGraph> graph;
  std::optional<emc::engine::Session> session;
  // The Ingestor is destroyed after the Dispatcher it is attached to.
  std::unique_ptr<emc::ingest::Ingestor> ingestor;
  std::unique_ptr<emc::serve::Dispatcher> dispatcher;

 private:
  bool publish(emc::engine::Session& s) {
    PublishRecord r;
    if (traced_) {
      r.begin_s = now_s();
      const std::uint64_t replays = s.publish_replays();
      const std::uint64_t rebuilds = s.publish_rebuilds();
      const std::uint64_t launches = engine_.device_launches();
      s.refresh();
      r.refreshed_s = now_s();
      r.replay = s.publish_replays() > replays;
      r.rebuild = s.publish_rebuilds() > rebuilds;
      r.ok = dispatcher->publish(s);
      r.return_s = now_s();
      r.launches = engine_.device_launches() - launches;
    } else {
      r.ok = dispatcher->publish(s);
      r.return_s = now_s();
    }
    r.epoch = s.epoch();
    log.publishes.push_back(r);
    return r.ok;
  }

  emc::engine::Engine& engine_;
  bool traced_;
};

}  // namespace e2e
