// Micro-benchmarks (google-benchmark) for the primitive operations: union-
// find variants, vertex rank, the two preprocessing flavors, primary-value
// passes, and the construction algorithms, on a fixed mid-size graph.

#include <benchmark/benchmark.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/core_decomposition.h"
#include "core/julienne.h"
#include "engine/live.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/lcps.h"
#include "hcd/phcd.h"
#include "hcd/vertex_rank.h"
#include "parallel/union_find.h"
#include "parallel/wf_union_find.h"
#include "search/bks.h"
#include "search/pbks.h"
#include "search/preprocess.h"
#include "server/client.h"
#include "server/server.h"

namespace {

struct Fixture {
  hcd::Graph graph = hcd::BarabasiAlbert(50000, 8, 77);
  hcd::CoreDecomposition cd = hcd::BzCoreDecomposition(graph);
  hcd::VertexRank vr = hcd::ComputeVertexRank(cd);
  hcd::HcdForest forest = hcd::PhcdBuild(graph, cd);
  hcd::FlatHcdIndex flat = hcd::Freeze(forest);
  hcd::CorenessNeighborCounts pre = hcd::PreprocessCorenessCounts(graph, cd);
};

const Fixture& GetFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_SequentialUnionFind(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    hcd::UnionFind uf(f.graph.NumVertices(), f.vr.rank.data());
    for (hcd::VertexId v = 0; v < f.graph.NumVertices(); ++v) {
      for (hcd::VertexId u : f.graph.Neighbors(v)) {
        if (u > v) uf.Union(u, v);
      }
    }
    benchmark::DoNotOptimize(uf.GetPivot(0));
  }
  state.SetItemsProcessed(state.iterations() * f.graph.NumEdges());
}
BENCHMARK(BM_SequentialUnionFind);

void BM_WaitFreeUnionFind(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    hcd::WaitFreeUnionFind uf(f.graph.NumVertices(), f.vr.rank.data());
    for (hcd::VertexId v = 0; v < f.graph.NumVertices(); ++v) {
      for (hcd::VertexId u : f.graph.Neighbors(v)) {
        if (u > v) uf.Union(u, v);
      }
    }
    benchmark::DoNotOptimize(uf.GetPivot(0));
  }
  state.SetItemsProcessed(state.iterations() * f.graph.NumEdges());
}
BENCHMARK(BM_WaitFreeUnionFind);

void BM_BzCoreDecomposition(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::BzCoreDecomposition(f.graph));
  }
}
BENCHMARK(BM_BzCoreDecomposition);

void BM_JulienneCoreDecomposition(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::JulienneCoreDecomposition(f.graph));
  }
}
BENCHMARK(BM_JulienneCoreDecomposition);

void BM_PkcCoreDecomposition(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::PkcCoreDecomposition(f.graph));
  }
}
BENCHMARK(BM_PkcCoreDecomposition);

void BM_VertexRank(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::ComputeVertexRank(f.cd));
  }
}
BENCHMARK(BM_VertexRank);

void BM_PbksPreprocess(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::PreprocessCorenessCounts(f.graph, f.cd));
  }
}
BENCHMARK(BM_PbksPreprocess);

void BM_BksIndex(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::BuildBksIndex(f.graph, f.cd));
  }
}
BENCHMARK(BM_BksIndex);

void BM_LcpsBuild(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::LcpsBuild(f.graph, f.cd));
  }
}
BENCHMARK(BM_LcpsBuild);

void BM_PhcdBuild(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::PhcdBuild(f.graph, f.cd));
  }
}
BENCHMARK(BM_PhcdBuild);

void BM_Freeze(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hcd::Freeze(f.forest));
  }
  state.SetItemsProcessed(state.iterations() * f.flat.NumNodes());
}
BENCHMARK(BM_Freeze);

void BM_TypeAPrimary(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hcd::PbksTypeAPrimary(f.graph, f.cd, f.flat, f.pre));
  }
}
BENCHMARK(BM_TypeAPrimary);

// Tracer overhead, disabled path: no tracer installed, so the ScopedSpan
// pair is one relaxed atomic load plus a null test. This is the cost every
// instrumented call site pays in a normal (untraced) run.
void BM_ScopedSpanDisabled(benchmark::State& state) {
  if (hcd::Tracer::Current() != nullptr) {
    state.SkipWithError("a tracer is unexpectedly installed");
    return;
  }
  for (auto _ : state) {
    hcd::ScopedSpan span("bench.disabled");
    span.AddArg("i", 1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanDisabled);

// Tracer overhead, enabled path: two clock reads plus one buffer append per
// span. Drained periodically so iteration count, not memory, bounds the
// run; the drain runs outside the timing window.
void BM_ScopedSpanEnabled(benchmark::State& state) {
  hcd::Tracer tracer;
  tracer.Install();
  size_t since_drain = 0;
  for (auto _ : state) {
    {
      hcd::ScopedSpan span("bench.enabled");
      span.AddArg("i", 1);
      benchmark::ClobberMemory();
    }
    if (++since_drain >= (size_t{1} << 16)) {
      state.PauseTiming();
      since_drain = 0;
      tracer.Drain();
      state.ResumeTiming();
    }
  }
  tracer.Uninstall();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanEnabled);

void BM_TypeBPrimary(benchmark::State& state) {
  const auto& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hcd::PbksTypeBPrimary(f.graph, f.cd, f.flat, f.vr, f.pre));
  }
}
BENCHMARK(BM_TypeBPrimary);

// One served query over the loopback socket protocol, instruments live.
// The server resolves every counter/histogram once at construction, so the
// per-request path must perform ZERO registry lookups — each lookup takes
// the registry mutex and two map walks, which would serialize the worker
// pool. The reported `registry_lookups_per_request` counter is asserted
// to be exactly 0 (the row errors otherwise, so a regression fails the
// smoke run, not just shifts a number).
void BM_ServedQuery(benchmark::State& state) {
  hcd::Graph graph = hcd::BarabasiAlbert(5000, 8, 78);
  hcd::LiveEngine live(std::move(graph));
  hcd::MetricsRegistry registry;
  registry.Install();
  {
    hcd::server::ServerOptions options;
    options.workers = 1;
    hcd::server::QueryServer server(&live.manager(), options);
    hcd::server::QueryClient client;
    if (!server.Start().ok() ||
        !client.Connect("127.0.0.1", server.port()).ok()) {
      registry.Uninstall();
      state.SkipWithError("could not start the loopback server");
      return;
    }
    const uint64_t lookups_before = registry.lookup_count();
    hcd::server::QueryRequest request;
    hcd::server::QueryResponse response;
    uint64_t requests = 0;
    for (auto _ : state) {
      request.metric = hcd::kAllMetrics[requests % std::size(hcd::kAllMetrics)];
      request.k = static_cast<uint32_t>(requests % 4);
      ++requests;
      if (!client.Query(request, &response).ok()) {
        state.SkipWithError("query failed");
        break;
      }
      benchmark::DoNotOptimize(response.score);
    }
    const uint64_t lookups = registry.lookup_count() - lookups_before;
    state.counters["registry_lookups_per_request"] = benchmark::Counter(
        requests == 0 ? 0.0
                      : static_cast<double>(lookups) /
                            static_cast<double>(requests));
    if (lookups != 0) {
      state.SkipWithError("the per-request serve path hit the registry");
    }
    server.Stop();
  }
  registry.Uninstall();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServedQuery);

}  // namespace

BENCHMARK_MAIN();
