#ifndef HCD_ENGINE_LIVE_H_
#define HCD_ENGINE_LIVE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "core/dynamic.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "hcd/rebuild.h"

namespace hcd {

/// Epoch-published holder of the current serve-phase generation: RCU with
/// shared_ptr as the grace period. The writer Publishes a fresh
/// SnapshotState; readers Acquire whatever generation is current. A
/// reader that acquired an old generation keeps serving from it
/// unperturbed — it holds plain shared ownership, never a lock — and the
/// old state is destroyed when its last reader drops it.
///
/// Publication is a mutex-guarded pointer swap plus a lock-free epoch
/// gauge, rather than std::atomic<std::shared_ptr>: libstdc++ implements
/// the latter with a spinlock bit whose relaxed-RMW unlock defeats
/// ThreadSanitizer's happens-before tracking (TSan does not model release
/// sequences through other threads' relaxed RMWs), so every hot-swap test
/// would report spurious races. Acquire()'s critical section is one
/// shared_ptr copy; steady-state readers that want to skip even that use
/// a SnapshotReader, which only touches the mutex when Epoch() moves.
class SnapshotManager {
 public:
  explicit SnapshotManager(std::shared_ptr<const SnapshotState> initial)
      : epoch_(initial->epoch()), state_(std::move(initial)) {}

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// The current generation as a serving view. Callable from any thread
  /// at any time; the lock is held only for the pointer copy, never while
  /// the snapshot is being queried.
  QuerySnapshot Acquire() const { return QuerySnapshot(Current()); }

  /// The current generation's state (e.g. for a writer deriving the next
  /// one).
  std::shared_ptr<const SnapshotState> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  /// Epoch of the current generation. Lock-free; safe to poll from reader
  /// hot loops.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Swaps in the next generation. Single writer at a time (LiveEngine
  /// serializes its writers); readers may Acquire concurrently.
  void Publish(std::shared_ptr<const SnapshotState> next) {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_.store(next->epoch(), std::memory_order_release);
    state_ = std::move(next);
  }

 private:
  std::atomic<uint64_t> epoch_;
  mutable std::mutex mu_;
  std::shared_ptr<const SnapshotState> state_;  ///< guarded by mu_
};

/// A reader's cached handle onto a SnapshotManager. The steady-state path
/// is genuinely lock-free: each Snapshot() call is one atomic epoch load
/// plus a local shared_ptr copy, and the manager's mutex is touched only
/// at generation boundaries (when the epoch gauge moved since the last
/// call). One SnapshotReader per reader thread; not thread-safe itself.
class SnapshotReader {
 public:
  explicit SnapshotReader(const SnapshotManager& manager)
      : manager_(&manager) {}

  /// The freshest generation this reader has observed. May lag the
  /// writer by one publish — exactly the staleness RCU readers already
  /// tolerate mid-query.
  QuerySnapshot Snapshot() {
    const uint64_t epoch = manager_->Epoch();
    if (cached_ == nullptr || epoch != cached_epoch_) {
      cached_ = manager_->Current();
      cached_epoch_ = cached_->epoch();
    }
    return QuerySnapshot(cached_);
  }

  /// Epoch of the generation the last Snapshot() call returned (0 before
  /// the first call). Lets a serving worker key caches / responses off the
  /// generation it actually holds, not the possibly-newer published one.
  uint64_t observed_epoch() const { return cached_epoch_; }

 private:
  const SnapshotManager* manager_;
  std::shared_ptr<const SnapshotState> cached_;
  uint64_t cached_epoch_ = 0;
};

struct LiveEngineOptions {
  /// Options for the initial full build (algo, threads).
  EngineOptions engine;
  /// Optional prebuilt core flat index (loaded or mmapped from a snapshot)
  /// adopted into the initial build, skipping hierarchy construction: the
  /// engine still computes coreness over the graph (once: the dynamic
  /// index reuses it and shares the graph), but the forest build + freeze
  /// are replaced by the snapshot. Must be kCore and cover exactly
  /// the graph's vertices (checked; mismatches abort the constructor). A
  /// mapped index keeps its snapshot file mapped for as long as the initial
  /// generation is referenced; later batches re-freeze into owned storage.
  std::shared_ptr<const FlatHcdIndex> initial_flat;
};

/// Everything one ApplyBatch did, for benches and tests.
struct BatchApplyReport {
  uint64_t epoch = 0;  ///< epoch published by this batch (or current, if
                       ///< the batch was a no-op and nothing was published)
  bool published = false;
  bool full_rebuild = false;
  double dirty_fraction = 0.0;
  double apply_seconds = 0.0;     ///< coreness maintenance (ApplyBatch)
  double refreeze_seconds = 0.0;  ///< rebuild plan + splice + search index
  double total_seconds = 0.0;
  BatchStats stats;
};

/// A serving hierarchy over a mutating graph. One writer thread (or
/// several, serialized internally) applies edge batches; any number of
/// reader threads Acquire() snapshots and query them. Each batch runs
/// batch-dynamic coreness maintenance (DynamicCoreIndex::ApplyBatch),
/// re-freezes only the trees the batch touched (PlanRebuild/ApplyRebuild,
/// falling back to a full rebuild once a quarter of the vertices are
/// dirty), then publishes the new generation with an incremented epoch.
///
/// Observability: spans "live.apply_batch" > "live.apply" /
/// "live.refreeze" (> "live.to_graph") / "live.publish" per batch; with a MetricsRegistry
/// installed, gauge `hcd_snapshot_epoch`, histogram
/// `hcd_batch_apply_seconds` and counter `hcd_subcores_touched_total`.
class LiveEngine {
 public:
  explicit LiveEngine(Graph graph, LiveEngineOptions options = {});

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// Current-generation serving view; any thread, any time. Reader hot
  /// loops should prefer a SnapshotReader over manager() — it skips the
  /// manager's brief pointer-copy lock while the epoch is unchanged.
  QuerySnapshot Snapshot() const { return manager_.Acquire(); }

  /// Epoch of the published generation (0 until the first batch lands).
  uint64_t Epoch() const { return manager_.Epoch(); }

  const SnapshotManager& manager() const { return manager_; }

  /// Writer-side view of the maintained graph + coreness. Not synchronized
  /// with ApplyBatch — only meaningful from the (one) writer thread
  /// between batches, when its base is the published generation's graph
  /// and it holds no edited rows.
  const DynamicCoreIndex& dynamic() const { return dynamic_; }

  /// Applies one batch end to end: coreness maintenance, incremental
  /// re-freeze, epoch publish. Serialized against concurrent ApplyBatch
  /// calls; readers are never blocked. On a validation error nothing is
  /// published and the writer-side state is unchanged. A batch whose net
  /// effect is empty publishes nothing (the epoch does not advance).
  Status ApplyBatch(std::span<const EdgeUpdate> updates,
                    BatchApplyReport* report = nullptr);

 private:
  std::mutex writer_mu_;
  SnapshotManager manager_;
  DynamicCoreIndex dynamic_;  ///< writer-side; guarded by writer_mu_
};

}  // namespace hcd

#endif  // HCD_ENGINE_LIVE_H_
