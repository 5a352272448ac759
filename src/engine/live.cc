#include "engine/live.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"

namespace hcd {
namespace {

std::shared_ptr<const SnapshotState> BuildInitialState(
    Graph graph, const LiveEngineOptions& options) {
  HcdEngine engine(std::move(graph), options.engine);
  if (options.initial_flat != nullptr) {
    const Status s = engine.AdoptFlat(options.initial_flat);
    HCD_CHECK(s.ok()) << "LiveEngine initial_flat rejected: " << s.message();
  }
  return engine.Snapshot().state();
}

}  // namespace

LiveEngine::LiveEngine(Graph graph, LiveEngineOptions options)
    : options_(options),
      manager_(BuildInitialState(std::move(graph), options)),
      // The state owns the (moved) graph now; the dynamic index copies its
      // adjacency into the mutable representation.
      dynamic_(manager_.Current()->graph(), options.hash_degree_threshold) {}

Status LiveEngine::ApplyBatch(std::span<const EdgeUpdate> updates,
                              BatchApplyReport* report) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Timer total;
  ScopedSpan span("live.apply_batch");
  span.AddArg("updates", updates.size());

  BatchApplyReport local;
  BatchApplyReport& rep = report != nullptr ? *report : local;
  rep = BatchApplyReport{};

  ApplyBatchOptions batch_options;
  batch_options.parallel = options_.parallel_batches;
  batch_options.verify_with_bz = options_.verify_batches;
  Timer apply_timer;
  {
    ScopedSpan apply_span("live.apply");
    const Status s = dynamic_.ApplyBatch(updates, &rep.stats, batch_options);
    if (!s.ok()) return s;
    apply_span.AddArg("applied", rep.stats.applied);
  }
  rep.apply_seconds = apply_timer.Seconds();

  const std::shared_ptr<const SnapshotState> old_state = manager_.Current();
  if (rep.stats.applied == 0) {
    // Net no-op: the graph is unchanged, so the published generation
    // already serves it — advancing the epoch would only churn caches.
    rep.epoch = old_state->epoch();
    rep.total_seconds = total.Seconds();
    return Status::Ok();
  }

  Timer refreeze_timer;
  std::shared_ptr<const Graph> new_graph;
  std::shared_ptr<const CoreDecomposition> new_cd;
  std::shared_ptr<const FlatHcdIndex> new_flat;
  {
    ScopedSpan refreeze_span("live.refreeze");
    new_graph = std::make_shared<const Graph>(dynamic_.ToGraph());
    CoreDecomposition cd;
    cd.coreness = dynamic_.CorenessValues();
    cd.k_max = dynamic_.KMax();
    new_cd = std::make_shared<const CoreDecomposition>(std::move(cd));

    std::vector<VertexId> touched = rep.stats.changed_vertices;
    touched.reserve(touched.size() + 2 * rep.stats.applied_edges.size());
    for (const auto& [u, v] : rep.stats.applied_edges) {
      touched.push_back(u);
      touched.push_back(v);
    }
    RebuildOptions rebuild_options;
    rebuild_options.full_rebuild_threshold = options_.full_rebuild_threshold;
    const RebuildPlan plan =
        PlanRebuild(old_state->flat(), touched, rebuild_options);
    rep.full_rebuild = plan.full_rebuild;
    rep.dirty_fraction = plan.dirty_fraction;
    refreeze_span.AddArg("dirty_fraction", plan.dirty_fraction);
    refreeze_span.AddArg("full", plan.full_rebuild ? 1 : 0);

    FlatHcdIndex flat;
    const Status s = ApplyRebuild(plan, old_state->flat(), *new_graph,
                                  *new_cd, &flat);
    if (!s.ok()) return s;
    new_flat = std::make_shared<const FlatHcdIndex>(std::move(flat));
  }
  rep.refreeze_seconds = refreeze_timer.Seconds();

  {
    ScopedSpan publish_span("live.publish");
    rep.epoch = old_state->epoch() + 1;
    publish_span.AddArg("epoch", rep.epoch);
    manager_.Publish(SnapshotState::Create(std::move(new_graph),
                                           std::move(new_cd),
                                           std::move(new_flat), rep.epoch));
    rep.published = true;
  }
  rep.total_seconds = total.Seconds();
  span.AddArg("epoch", rep.epoch);

  if (MetricsRegistry* registry = MetricsRegistry::Current()) {
    registry
        ->GetGauge("hcd_snapshot_epoch",
                   "Epoch of the currently published live snapshot")
        ->Set(static_cast<double>(rep.epoch));
    registry
        ->GetHistogram(
            "hcd_batch_apply_seconds",
            "End-to-end latency of one live batch (apply + refreeze + "
            "publish)")
        ->Observe(rep.total_seconds);
    registry
        ->GetCounter(
            "hcd_subcores_touched_total",
            "Subcore clusters processed by batch-dynamic maintenance")
        ->Increment(rep.stats.subcores_touched);
  }
  return Status::Ok();
}

}  // namespace hcd
