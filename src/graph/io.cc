#include "graph/io.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/replace_file.h"
#include "graph/binary_format.h"
#include "graph/ingest.h"

namespace hcd {
namespace {

/// Writes one fixed-size record block; false on a short write.
template <typename T>
bool WriteAll(std::FILE* f, const T* data, size_t count) {
  return count == 0 || std::fwrite(data, sizeof(T), count, f) == count;
}

}  // namespace

Status LoadEdgeListText(const std::string& path, Graph* graph) {
  return IngestEdgeListText(path, IngestOptions{}, graph);
}

Status SaveEdgeListText(const Graph& graph, const std::string& path) {
  return ReplaceFile(path, [&graph](std::FILE* f) {
    if (std::fprintf(f, "# undirected simple graph: n=%u m=%" PRIu64 "\n",
                     graph.NumVertices(), graph.NumEdges()) < 0) {
      return false;
    }
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (VertexId u : graph.Neighbors(v)) {
        if (v < u && std::fprintf(f, "%u %u\n", v, u) < 0) return false;
      }
    }
    return true;
  });
}

Status SaveBinary(const Graph& graph, const std::string& path) {
  const uint64_t n = graph.NumVertices();
  const uint64_t adj_size = graph.AdjArray().size();
  std::vector<EdgeIndex> offsets(n + 1);
  for (VertexId v = 0; v < n; ++v) offsets[v] = graph.AdjOffset(v);
  offsets[n] = adj_size;
  return ReplaceFile(path, [&](std::FILE* f) {
    return WriteAll(f, &internal::kBinaryMagic, 1) &&
           WriteAll(f, &internal::kBinaryVersion, 1) && WriteAll(f, &n, 1) &&
           WriteAll(f, &adj_size, 1) &&
           WriteAll(f, offsets.data(), offsets.size()) &&
           WriteAll(f, graph.AdjArray().data(), adj_size);
  });
}

Status LoadBinary(const std::string& path, Graph* graph) {
  return IngestBinary(path, IngestOptions{}, graph);
}

}  // namespace hcd
