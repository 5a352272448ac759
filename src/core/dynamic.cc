#include "core/dynamic.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "common/trace.h"
#include "parallel/omp_utils.h"

namespace hcd {

namespace {

/// Inserts v, absent, into a sorted row.
void InsertSorted(std::vector<VertexId>& row, VertexId v) {
  HCD_DCHECK(!std::binary_search(row.begin(), row.end(), v));
  row.insert(std::lower_bound(row.begin(), row.end(), v), v);
}

/// Erases v, present, from a sorted row.
void EraseSorted(std::vector<VertexId>& row, VertexId v) {
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  HCD_DCHECK(it != row.end() && *it == v);
  row.erase(it);
}

}  // namespace

// ---------------------------------------------------------------------------
// DynamicCoreIndex
// ---------------------------------------------------------------------------

DynamicCoreIndex::DynamicCoreIndex(std::shared_ptr<const Graph> base,
                                   const CoreDecomposition& cd)
    : base_(std::move(base)), coreness_(cd.coreness) {
  HCD_CHECK(base_ != nullptr) << "DynamicCoreIndex: null base graph";
  HCD_CHECK_EQ(coreness_.size(), size_t{base_->NumVertices()})
      << "DynamicCoreIndex: coreness must cover every base vertex";
  slot_.assign(coreness_.size(), kUnedited);
  num_edges_ = base_->NumEdges();
  scratch_.EnsureSize(coreness_.size());
}

DynamicCoreIndex::DynamicCoreIndex(const Graph& graph)
    : DynamicCoreIndex(std::make_shared<const Graph>(graph),
                       BzCoreDecomposition(graph)) {}

std::vector<VertexId>& DynamicCoreIndex::Materialize(VertexId v) {
  if (slot_[v] == kUnedited) {
    slot_[v] = static_cast<uint32_t>(edited_.size());
    const std::span<const VertexId> row = base_->Neighbors(v);
    edited_.emplace_back(row.begin(), row.end());
  }
  return edited_[slot_[v]];
}

uint32_t DynamicCoreIndex::KMax() const {
  uint32_t k = 0;
  for (uint32_t c : coreness_) k = std::max(k, c);
  return k;
}

bool DynamicCoreIndex::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  const uint32_t slot = slot_[u];
  return slot == kUnedited ? base_->HasEdge(u, v)
                           : std::binary_search(edited_[slot].begin(),
                                                edited_[slot].end(), v);
}

Graph DynamicCoreIndex::ToGraph() const {
  const VertexId n = NumVertices();
  std::vector<EdgeIndex> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + Neighbors(v).size();
  }
  std::vector<VertexId> flat(offsets[n]);
#pragma omp parallel for schedule(guided, 256) \
    if (static_cast<int64_t>(n) >= kParallelGrain)
  for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
    const VertexId v = static_cast<VertexId>(vi);
    const std::span<const VertexId> row = Neighbors(v);
    std::copy(row.begin(), row.end(),
              flat.begin() + static_cast<std::ptrdiff_t>(offsets[v]));
  }
  return Graph(std::move(offsets), std::move(flat));
}

std::shared_ptr<const Graph> DynamicCoreIndex::Commit() {
  base_ = std::make_shared<const Graph>(ToGraph());
  std::fill(slot_.begin(), slot_.end(), kUnedited);
  edited_.clear();
  return base_;
}

void DynamicCoreIndex::InsertEdgeImpl(VertexId u, VertexId v,
                                      Scratch& scratch) {
  InsertSorted(EditedRow(u), v);
  InsertSorted(EditedRow(v), u);

  const uint32_t k = std::min(coreness_[u], coreness_[v]);

  // Purecore pruning: a vertex can only rise to k+1 if more than k of its
  // neighbors sit at coreness >= k (its MCD), and the risen set is
  // connected to the new edge through such vertices; BFS only through
  // them.
  auto mcd_above_k = [&](VertexId w) {
    uint32_t mcd = 0;
    for (VertexId x : Neighbors(w)) {
      if (coreness_[x] >= k && ++mcd > k) return true;
    }
    return false;
  };
  std::vector<VertexId> sub;
  std::vector<VertexId>& stack = scratch.stack;
  stack.clear();
  for (VertexId r : {u, v}) {
    if (coreness_[r] == k && !scratch.in_sub[r] && mcd_above_k(r)) {
      scratch.in_sub[r] = 1;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    VertexId w = stack.back();
    stack.pop_back();
    sub.push_back(w);
    for (VertexId x : Neighbors(w)) {
      if (coreness_[x] == k && !scratch.in_sub[x] && mcd_above_k(x)) {
        scratch.in_sub[x] = 1;
        stack.push_back(x);
      }
    }
  }

  // Candidate degree toward level k+1: neighbors already above k plus
  // candidate subcore members (pruned equal-coreness neighbors stay at k
  // and cannot support level k+1).
  for (VertexId w : sub) {
    uint32_t cd = 0;
    for (VertexId x : Neighbors(w)) {
      cd += coreness_[x] > k || scratch.in_sub[x];
    }
    scratch.cd[w] = cd;
  }
  // Peel members that cannot reach degree k+1.
  for (VertexId w : sub) {
    if (scratch.cd[w] <= k) stack.push_back(w);
  }
  while (!stack.empty()) {
    VertexId w = stack.back();
    stack.pop_back();
    if (!scratch.in_sub[w]) continue;
    scratch.in_sub[w] = 0;  // peeled out of the candidate set
    for (VertexId x : Neighbors(w)) {
      if (scratch.in_sub[x] && scratch.cd[x]-- == k + 1) stack.push_back(x);
    }
  }
  for (VertexId w : sub) {
    if (scratch.in_sub[w]) {
      coreness_[w] = k + 1;
      scratch.in_sub[w] = 0;
    }
  }
}

void DynamicCoreIndex::RemoveEdgeImpl(VertexId u, VertexId v,
                                      Scratch& scratch) {
  EraseSorted(EditedRow(u), v);
  EraseSorted(EditedRow(v), u);

  const uint32_t k = std::min(coreness_[u], coreness_[v]);
  if (k == 0) return;

  // The subcore: vertices of coreness exactly k reachable from the lost
  // edge through coreness-k vertices.
  std::vector<VertexId> sub;
  std::vector<VertexId>& stack = scratch.stack;
  stack.clear();
  for (VertexId r : {u, v}) {
    if (coreness_[r] == k && !scratch.in_sub[r]) {
      scratch.in_sub[r] = 1;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    VertexId w = stack.back();
    stack.pop_back();
    sub.push_back(w);
    for (VertexId x : Neighbors(w)) {
      if (coreness_[x] == k && !scratch.in_sub[x]) {
        scratch.in_sub[x] = 1;
        stack.push_back(x);
      }
    }
  }

  // Support at level k: neighbors of coreness >= k.
  for (VertexId w : sub) {
    uint32_t cd = 0;
    for (VertexId x : Neighbors(w)) cd += coreness_[x] >= k;
    scratch.cd[w] = cd;
  }
  for (VertexId w : sub) {
    if (scratch.cd[w] < k) stack.push_back(w);
  }
  while (!stack.empty()) {
    VertexId w = stack.back();
    stack.pop_back();
    if (!scratch.in_sub[w]) continue;
    scratch.in_sub[w] = 0;
    coreness_[w] = k - 1;
    for (VertexId x : Neighbors(w)) {
      // x loses w's support at level k whether x is in the subcore or has
      // higher coreness; only subcore members track cd.
      if (scratch.in_sub[x] && scratch.cd[x]-- == k) stack.push_back(x);
    }
  }
  for (VertexId w : sub) scratch.in_sub[w] = 0;
}

Status DynamicCoreIndex::InsertEdge(VertexId u, VertexId v) {
  if (u >= NumVertices() || v >= NumVertices()) {
    return Status::InvalidArgument("vertex out of range");
  }
  if (u == v) return Status::InvalidArgument("self-loop");
  if (HasEdge(u, v)) return Status::InvalidArgument("edge already present");
  scratch_.EnsureSize(NumVertices());
  Materialize(u);
  Materialize(v);
  InsertEdgeImpl(u, v, scratch_);
  ++num_edges_;
  return Status::Ok();
}

Status DynamicCoreIndex::RemoveEdge(VertexId u, VertexId v) {
  if (u >= NumVertices() || v >= NumVertices() || u == v || !HasEdge(u, v)) {
    return Status::NotFound("edge not present");
  }
  scratch_.EnsureSize(NumVertices());
  Materialize(u);
  Materialize(v);
  RemoveEdgeImpl(u, v, scratch_);
  --num_edges_;
  return Status::Ok();
}

Status DynamicCoreIndex::ApplyBatch(std::span<const EdgeUpdate> updates,
                                    BatchStats* stats) {
  ScopedSpan span("dynamic.apply_batch");
  span.AddArg("updates", updates.size());
  const VertexId n = NumVertices();
  BatchStats local;
  BatchStats& st = stats != nullptr ? *stats : local;
  st = BatchStats{};
  st.requested = updates.size();

  // Validate before mutating anything: a bad batch is rejected whole.
  for (const EdgeUpdate& up : updates) {
    if (up.u >= n || up.v >= n) {
      return Status::InvalidArgument("vertex out of range in batch");
    }
    if (up.u == up.v) return Status::InvalidArgument("self-loop in batch");
  }

  // Dedup to the batch's net effect: replay the ops per edge against the
  // current graph, so insert-then-remove cancels, repeats are redundant,
  // and every surviving edge appears exactly once as a toggle.
  struct NetUpdate {
    VertexId u, v;
    EdgeOp op;
  };
  auto key_of = [](VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (uint64_t{a} << 32) | b;
  };
  std::unordered_map<uint64_t, std::pair<bool, bool>> sim;  // initial, now
  std::vector<uint64_t> first_seen;
  sim.reserve(updates.size() * 2);
  size_t toggles = 0;
  for (const EdgeUpdate& up : updates) {
    const uint64_t key = key_of(up.u, up.v);
    auto it = sim.find(key);
    if (it == sim.end()) {
      const bool present = HasEdge(up.u, up.v);
      it = sim.emplace(key, std::make_pair(present, present)).first;
      first_seen.push_back(key);
    }
    const bool want_present = up.op == EdgeOp::kInsert;
    if (want_present == it->second.second) {
      ++st.redundant;
      continue;
    }
    it->second.second = want_present;
    ++toggles;
  }
  std::vector<NetUpdate> pending;
  pending.reserve(first_seen.size());
  int64_t edge_delta = 0;
  for (uint64_t key : first_seen) {
    const auto [initial, now] = sim[key];
    if (initial == now) continue;
    const VertexId u = static_cast<VertexId>(key >> 32);
    const VertexId v = static_cast<VertexId>(key & 0xffffffffu);
    pending.push_back({u, v, now ? EdgeOp::kInsert : EdgeOp::kRemove});
    edge_delta += now ? 1 : -1;
    st.applied_edges.emplace_back(u, v);
  }
  st.applied = pending.size();
  st.deduped = toggles - pending.size();

  // Every row the batch writes belongs to an endpoint: materialise them
  // all now, serially, so no round below ever grows `edited_` or writes
  // `slot_` while clusters read them concurrently.
  for (const NetUpdate& nu : pending) {
    Materialize(nu.u);
    Materialize(nu.v);
  }

  std::vector<uint32_t> before;
  if (stats != nullptr) before = coreness_;

  scratch_.EnsureSize(n);
  const bool run_parallel = pending.size() > 1 && MaxThreads() > 1;
  if (!run_parallel) {
    // Sequential fallback: the plain single-edge schedule, exact at every
    // step, one subcore per update.
    st.rounds = pending.empty() ? 0 : 1;
    st.subcores_touched = pending.size();
    for (const NetUpdate& nu : pending) {
      if (nu.op == EdgeOp::kInsert) {
        InsertEdgeImpl(nu.u, nu.v, scratch_);
      } else {
        RemoveEdgeImpl(nu.u, nu.v, scratch_);
      }
    }
  } else {
    // Round-based parallel schedule (see header): per round, take the
    // stratum of pending updates at the minimal current root coreness K,
    // split it into clusters by connected component of the coreness-K
    // subgraph (merging clusters that share any endpoint vertex), and run
    // the clusters concurrently. Every applied update re-checks that its
    // root coreness still equals K at application time and is deferred to
    // a later round otherwise — during a round coreness values only leave
    // K (to K+1 on inserts, K-1 on deletes), never enter it, so the
    // K-components can only shrink and distinct clusters stay disjoint
    // for the round's whole lifetime.
    std::vector<Scratch> pool(static_cast<size_t>(MaxThreads()));
    std::vector<NetUpdate> work = std::move(pending);
    while (!work.empty()) {
      ++st.rounds;
      uint32_t kmin = std::numeric_limits<uint32_t>::max();
      for (const NetUpdate& nu : work) {
        kmin = std::min(kmin, std::min(coreness_[nu.u], coreness_[nu.v]));
      }
      std::vector<size_t> stratum;
      std::vector<NetUpdate> rest;
      for (size_t i = 0; i < work.size(); ++i) {
        const NetUpdate& nu = work[i];
        if (std::min(coreness_[nu.u], coreness_[nu.v]) == kmin) {
          stratum.push_back(i);
        } else {
          rest.push_back(nu);
        }
      }

      // Union-find over stratum positions; vertices claim their owning
      // update, collisions merge clusters.
      std::vector<size_t> parent(stratum.size());
      std::iota(parent.begin(), parent.end(), size_t{0});
      auto find = [&parent](size_t x) {
        while (parent[x] != x) {
          parent[x] = parent[parent[x]];
          x = parent[x];
        }
        return x;
      };
      auto unite = [&](size_t a, size_t b) {
        a = find(a);
        b = find(b);
        if (a != b) parent[std::max(a, b)] = std::min(a, b);
      };
      std::unordered_map<VertexId, size_t> owner;
      auto claim = [&](VertexId x, size_t pos) {
        auto [it, inserted] = owner.emplace(x, pos);
        if (!inserted) {
          unite(pos, it->second);
          return false;
        }
        return true;
      };
      std::vector<VertexId> bfs;
      for (size_t p = 0; p < stratum.size(); ++p) {
        const NetUpdate& nu = work[stratum[p]];
        for (VertexId e : {nu.u, nu.v}) {
          if (!claim(e, p)) continue;
          if (coreness_[e] != kmin) continue;  // endpoint above K: claimed
                                               // only to detect sharing
          bfs.assign(1, e);
          while (!bfs.empty()) {
            const VertexId w = bfs.back();
            bfs.pop_back();
            for (VertexId x : Neighbors(w)) {
              if (coreness_[x] == kmin && claim(x, p)) bfs.push_back(x);
            }
          }
        }
      }

      std::vector<std::vector<size_t>> clusters;
      std::unordered_map<size_t, size_t> slot_of_root;
      for (size_t p = 0; p < stratum.size(); ++p) {
        const size_t root = find(p);
        auto [it, inserted] = slot_of_root.emplace(root, clusters.size());
        if (inserted) clusters.emplace_back();
        clusters[it->second].push_back(p);
      }
      st.subcores_touched += clusters.size();

      std::vector<std::vector<NetUpdate>> deferred(clusters.size());
      if (clusters.size() == 1) {
        for (size_t p : clusters[0]) {
          const NetUpdate& nu = work[stratum[p]];
          if (std::min(coreness_[nu.u], coreness_[nu.v]) != kmin) {
            deferred[0].push_back(nu);
            continue;
          }
          if (nu.op == EdgeOp::kInsert) {
            InsertEdgeImpl(nu.u, nu.v, scratch_);
          } else {
            RemoveEdgeImpl(nu.u, nu.v, scratch_);
          }
        }
      } else {
        ++st.parallel_rounds;
#pragma omp parallel for schedule(dynamic, 1)
        for (int64_t c = 0; c < static_cast<int64_t>(clusters.size()); ++c) {
          Scratch& scratch = pool[static_cast<size_t>(ThreadId())];
          scratch.EnsureSize(n);
          for (size_t p : clusters[static_cast<size_t>(c)]) {
            const NetUpdate& nu = work[stratum[p]];
            if (std::min(coreness_[nu.u], coreness_[nu.v]) != kmin) {
              deferred[static_cast<size_t>(c)].push_back(nu);
              continue;
            }
            if (nu.op == EdgeOp::kInsert) {
              InsertEdgeImpl(nu.u, nu.v, scratch);
            } else {
              RemoveEdgeImpl(nu.u, nu.v, scratch);
            }
          }
        }
      }
      for (const auto& d : deferred) {
        rest.insert(rest.end(), d.begin(), d.end());
      }
      work = std::move(rest);
    }
  }
  num_edges_ = static_cast<EdgeIndex>(static_cast<int64_t>(num_edges_) +
                                      edge_delta);

  if (stats != nullptr) {
    for (VertexId v = 0; v < n; ++v) {
      if (coreness_[v] != before[v]) st.changed_vertices.push_back(v);
    }
    st.coreness_changed = st.changed_vertices.size();
  }
  span.AddArg("applied", st.applied);
  span.AddArg("rounds", st.rounds);
  span.AddArg("subcores", st.subcores_touched);
  return Status::Ok();
}

}  // namespace hcd
