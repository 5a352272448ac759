#include "bench/bench_datasets.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sys/stat.h>

#include "common/timer.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace hcd::bench {
namespace {

struct Spec {
  const char* name;
  const char* role;
  std::function<Graph(bool small)> make;
};

/// The ten-dataset suite. Construction parameters are chosen so the suite
/// spans the regimes of Table II: skewed degree (BA/RMAT), very high k_max
/// (deep onion), huge |T| (broad planted hierarchy), and near-uniform giant
/// components (Gnm), in ascending edge count.
const Spec kSpecs[] = {
    {"AS", "as-skitter: sparse skewed internet topology",
     [](bool s) { return RMatGraph500(s ? 12 : 16, s ? 16000 : 250000, 11); }},
    {"LJ", "livejournal: social network, preferential attachment",
     [](bool s) {
       return BarabasiAlbertVarying(s ? 8000 : 120000, 1, 20, 12);
     }},
    {"H", "hollywood: very high k_max collaboration core",
     [](bool s) {
       return PlantedHierarchy(OnionSpec(s ? 40 : 120, s ? 50 : 150), 13);
     }},
    {"O", "orkut: dense near-uniform social graph",
     [](bool s) {
       return ErdosRenyiGnm(s ? 20000 : 80000, s ? 100000 : 1600000, 14);
     }},
    {"HJ", "human-jung: very dense connectome",
     [](bool s) {
       return ErdosRenyiGnm(s ? 4000 : 15000, s ? 75000 : 1200000, 15);
     }},
    {"A", "arabic-2005: web crawl with many tree nodes",
     [](bool s) {
       return PlantedHierarchy(BranchingSpec(3, s ? 27 : 51, 6, 2, s ? 20 : 60),
                               16);
     }},
    {"IT", "it-2004: larger skewed web crawl",
     [](bool s) { return RMatGraph500(s ? 13 : 17, s ? 90000 : 1400000, 17); }},
    {"FS", "friendster: giant near-uniform component, few tree nodes",
     [](bool s) {
       return ErdosRenyiGnm(s ? 25000 : 400000, s ? 112000 : 1800000, 18);
     }},
    {"SK", "sk-2005: dense skewed web crawl",
     [](bool s) {
       return BarabasiAlbertVarying(s ? 6000 : 90000, 2, 44, 19);
     }},
    {"UK", "uk-2007: largest crawl, deep and broad hierarchy",
     [](bool s) {
       return PlantedHierarchy(
           BranchingSpec(3, s ? 21 : 45, 6, 3, s ? 12 : 25), 20);
     }},
};

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

bool SmallBenchRequested() {
  const char* env = std::getenv("HCD_BENCH_SMALL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TriangleCensus CountTriangles(const Graph& g) {
  TriangleCensus census;
  std::vector<uint8_t> mark(g.NumVertices(), 0);
  auto degree_less = [&](VertexId a, VertexId b) {
    return g.Degree(a) < g.Degree(b) || (g.Degree(a) == g.Degree(b) && a < b);
  };
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : g.Neighbors(v)) mark[u] = 1;
    for (VertexId u : g.Neighbors(v)) {
      if (!degree_less(u, v)) continue;
      for (VertexId w : g.Neighbors(u)) {
        if (mark[w] && degree_less(w, u)) {
          ++census.count;
          census.clique_work += g.Degree(w);
        }
      }
    }
    for (VertexId u : g.Neighbors(v)) mark[u] = 0;
  }
  return census;
}

uint64_t TriangleCap() {
  constexpr uint64_t kTriangleCap = 8000000;
  constexpr uint64_t kTriangleCapSmall = 1000000;
  return SmallBenchRequested() ? kTriangleCapSmall : kTriangleCap;
}

std::vector<BenchDataset> LoadBenchSuite(bool small) {
  small = small || SmallBenchRequested();
  ::mkdir("bench_data", 0755);
  std::vector<BenchDataset> suite;
  for (const Spec& spec : kSpecs) {
    BenchDataset ds;
    ds.name = spec.name;
    ds.role = spec.role;
    const std::string cache = std::string("bench_data/") + spec.name +
                              (small ? "_small" : "") + ".bin";
    if (FileExists(cache) && LoadBinary(cache, &ds.graph).ok()) {
      suite.push_back(std::move(ds));
      continue;
    }
    Timer timer;
    ds.graph = spec.make(small);
    std::fprintf(stderr, "[bench_data] generated %s (n=%u m=%llu) in %.1fs\n",
                 spec.name, ds.graph.NumVertices(),
                 static_cast<unsigned long long>(ds.graph.NumEdges()),
                 timer.Seconds());
    Status s = SaveBinary(ds.graph, cache);
    if (!s.ok()) {
      std::fprintf(stderr, "[bench_data] cache write failed: %s\n",
                   s.ToString().c_str());
    }
    suite.push_back(std::move(ds));
  }
  return suite;
}

}  // namespace hcd::bench
