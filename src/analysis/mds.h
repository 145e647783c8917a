// Metric multidimensional scaling (Figure 1).
//
// The paper embeds the pairwise Jaccard matrix into 2-D with sklearn's
// metric MDS (SMACOF stress majorization).  We implement both stages from
// scratch: classical (Torgerson) MDS via double-centering and power
// iteration for a good initialization, then SMACOF iterations with the
// Guttman transform until the stress improvement stalls.
#pragma once

#include <cstddef>
#include <vector>

#include "src/analysis/jaccard.h"
#include "src/exec/thread_pool.h"

namespace rs::analysis {

/// A 2-D embedding point.
struct Point2 {
  double x = 0;
  double y = 0;
};

/// SMACOF configuration.
struct MdsOptions {
  std::size_t max_iterations = 300;
  /// Stop when relative stress improvement falls below this.
  double tolerance = 1e-7;
};

/// Result of an embedding.
struct MdsResult {
  std::vector<Point2> points;       // one per matrix row
  double stress = 0;                // raw stress sigma = sum (d_ij - delta_ij)^2
  double normalized_stress = 0;     // stress / sum delta_ij^2
  std::size_t iterations = 0;
};

/// Classical (Torgerson) MDS to 2-D: eigendecomposition of the
/// double-centered squared-distance matrix via deflated power iteration.
MdsResult classical_mds(const DistanceMatrix& dist);

/// Metric MDS via SMACOF, initialized from classical MDS.
/// `pool` parallelizes the Guttman transform and stress evaluation per
/// iteration; results are bitwise-identical for any worker count (fixed
/// chunking, per-row partials combined in row order).
MdsResult smacof_mds(const DistanceMatrix& dist, const MdsOptions& options = {},
                     rs::exec::ThreadPool* pool = nullptr);

/// Raw stress of an embedding against a distance matrix.  Accumulates
/// per-row partial sums and combines them in row order, so the value is
/// identical whether computed serially or on a pool.
double embedding_stress(const DistanceMatrix& dist,
                        const std::vector<Point2>& points,
                        rs::exec::ThreadPool* pool = nullptr);

}  // namespace rs::analysis
