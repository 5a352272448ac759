#include "parallel/wf_union_find.h"

namespace hcd {

WaitFreeUnionFind::WaitFreeUnionFind(VertexId n, const VertexId* vertex_rank)
    : n_(n),
      parent_(new std::atomic<VertexId>[n]),
      uf_rank_(new std::atomic<uint32_t>[n]),
      pivot_(new std::atomic<VertexId>[n]),
      vertex_rank_(vertex_rank) {
  // Relaxed initialization is fine: the structure is published to worker
  // threads through the synchronization of whatever shares it (e.g. an
  // OpenMP parallel region entry).
  for (VertexId v = 0; v < n; ++v) {
    parent_[v].store(v, std::memory_order_relaxed);
    uf_rank_[v].store(0, std::memory_order_relaxed);
    pivot_[v].store(v, std::memory_order_relaxed);
  }
}

VertexId WaitFreeUnionFind::Find(VertexId v) {
  HCD_DCHECK(v < n_);
  while (true) {
    VertexId p = parent_[v].load(std::memory_order_acquire);
    if (p == v) return v;
    VertexId gp = parent_[p].load(std::memory_order_acquire);
    if (p == gp) return p;
    // Path halving with a plain store: gp is an ancestor of v at read time
    // and links only ever move roots under other roots, so ancestors stay
    // ancestors — any interleaving of such stores preserves the forest
    // invariant (no CAS needed).
    parent_[v].store(gp, std::memory_order_release);
    v = gp;
  }
}

void WaitFreeUnionFind::PropagatePivot(VertexId x, VertexId cand) {
  while (true) {
    VertexId r = Find(x);
    VertexId cur = pivot_[r].load();
    while (RankLess(cand, cur)) {
      if (pivot_[r].compare_exchange_weak(cur, cand)) break;
    }
    // If r is still a root, every later linker of r will read pivot_[r]
    // after our update (their pivot read follows their parent CAS). If r
    // was linked away before our update became visible to the linker, we
    // observe parent_[r] != r here and push the candidate to the new root
    // ourselves.
    if (parent_[r].load() == r) return;
    x = r;
  }
}

VertexId WaitFreeUnionFind::Union(VertexId u, VertexId v) {
  HCD_DCHECK(u < n_);
  HCD_DCHECK(v < n_);
  while (true) {
    VertexId ru = Find(u);
    VertexId rv = Find(v);
    if (ru == rv) return ru;
    uint32_t rank_u = uf_rank_[ru].load();
    uint32_t rank_v = uf_rank_[rv].load();
    if (rank_u < rank_v || (rank_u == rank_v && ru < rv)) {
      std::swap(ru, rv);
      std::swap(rank_u, rank_v);
    }
    // Link the lower-UF-rank root rv under ru.
    VertexId expected = rv;
    if (!parent_[rv].compare_exchange_strong(expected, ru)) continue;
    if (rank_u == rank_v) uf_rank_[ru].fetch_add(1);
    // rv is no longer a root; its pivot value is final. Deliver it to the
    // (current) root. Concurrent updaters of pivot_[rv] that lose the race
    // with our load re-propagate on their own (see PropagatePivot).
    PropagatePivot(ru, pivot_[rv].load());
    return ru;
  }
}

bool WaitFreeUnionFind::SameSet(VertexId u, VertexId v) {
  while (true) {
    VertexId ru = Find(u);
    VertexId rv = Find(v);
    if (ru == rv) return true;
    // ru may have stopped being a root because of a concurrent union; only
    // then can the answer have changed under us.
    if (parent_[ru].load() == ru) return false;
  }
}

VertexId WaitFreeUnionFind::GetPivot(VertexId v) { return pivot_[Find(v)].load(); }

}  // namespace hcd
