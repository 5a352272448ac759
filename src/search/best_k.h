#ifndef HCD_SEARCH_BEST_K_H_
#define HCD_SEARCH_BEST_K_H_

#include <vector>

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "search/metrics.h"

namespace hcd {

/// Result of the "finding the best k" extension (Section VI): the score of
/// the whole k-core set K_k (all k-cores together) for every k, and the k
/// maximizing it.
struct BestKResult {
  uint32_t best_k = 0;
  double best_score = 0.0;
  /// scores[k]: score of K_k, 0 <= k <= k_max.
  std::vector<double> scores;
  /// per_k[k]: primary values of K_k.
  std::vector<PrimaryValues> per_k;
};

/// Computes the primary values of every k-core set with the PBKS paradigm —
/// vertex-centric contributions keyed by coreness level instead of tree
/// node (PBKS's own CountTypeATallies and CountTypeBTallies passes, over
/// the orientation rank of vertex_rank.h), followed by a
/// suffix sum over descending k — and scores them with `metric`. Parallel;
/// O(n) work for type-A metrics and O(m^1.5) for type-B, after O(m)
/// preprocessing.
BestKResult FindBestK(const Graph& graph, const CoreDecomposition& cd,
                      Metric metric);

}  // namespace hcd

#endif  // HCD_SEARCH_BEST_K_H_
