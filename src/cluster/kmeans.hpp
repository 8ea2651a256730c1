// K-means clustering (Lloyd's algorithm with k-means++ seeding).
//
// The paper's central node runs K-means on the stored measurements z_t at
// every time step (§V-B); this implementation supports arbitrary point
// dimension so the same code serves per-resource scalar clustering, joint
// full-vector clustering, temporal-window clustering (Fig. 5) and the
// offline whole-series baseline.
//
// Seeding runs on the dispatchable SIMD kernels of common/kernels.hpp over
// a dimension-major (SoA) copy of the points, and each Lloyd iteration is
// one fused kernel pass (assignment, inertia, cluster sums and counts) over
// a chunk-interleaved copy, one SIMD lane per 256-point chunk; the scalar
// and SIMD paths are bit-identical (DESIGN.md "Memory layout & SIMD
// kernels"). Callers on the per-slot hot path pass a KMeansScratch via
// kmeans_into() so repeated runs perform no steady-state allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/soa.hpp"

namespace resmon {
class ThreadPool;
}

namespace resmon::cluster {

struct KMeansOptions {
  std::size_t max_iterations = 100;
  std::size_t restarts = 2;    ///< independent k-means++ restarts; best kept.
  double tolerance = 1e-10;    ///< stop when inertia improvement is below.
  /// Optional worker pool for the Lloyd passes.
  /// Results are bit-identical with and without a pool: the loops use a
  /// fixed chunk partition and merge per-chunk partials in chunk order
  /// (see common/thread_pool.hpp), and all RNG draws (seeding) stay on the
  /// calling thread. Non-owning; nullptr = serial. Regions smaller than an
  /// internal work threshold run serially even with a pool (identical
  /// results — only the execution venue changes).
  ThreadPool* pool = nullptr;
};

struct KMeansResult {
  std::vector<std::size_t> assignment;  ///< point index -> cluster in [0,k)
  Matrix centroids;                     ///< k x d
  double inertia = 0.0;                 ///< sum of squared distances
  std::size_t iterations = 0;           ///< Lloyd iterations of best restart
};

/// Reusable buffers for kmeans_into(). Owned by long-lived callers
/// (DynamicClusterTracker) so the per-step path allocates nothing once
/// warm. The Lloyd iterations run on fixed 256-point chunks: the `full` =
/// n / 256 whole chunks are SIMD lanes, padded with zero lanes to `stride`
/// (a multiple of kern::kLloydLaneWidth), and a partial tail chunk is one
/// more lane of its own. Chunk c's partials sit in lane c of the arrays
/// below; the tail's sit after the `stride` lane slots.
struct KMeansScratch {
  SoaMatrix soa;              ///< dimension-major points: k-means++ seeding
  std::vector<double> dist2;  ///< k-means++ seeding distances
  /// The whole chunks, chunk-interleaved for the fused Lloyd kernel:
  /// lanes[(p * d + dim) * stride + l] is coordinate `dim` of point p of
  /// chunk l (point l * 256 + p). The tail chunk is read from the points.
  std::vector<double> lanes;
  /// The whole chunks' assignment in the same order (lane_assign[p * stride
  /// + l]), copied to point order when a run ends or a repair needs it.
  std::vector<std::size_t> lane_assign;
  /// Per-chunk inertia, cluster sums and counts of one pass: chunk l at
  /// lane_inertia[l], lane_sums[(j * d + dim) * stride + l] and
  /// lane_counts[j * stride + l]; the tail at lane_inertia[stride],
  /// lane_sums[stride * k * d + j * d + dim], lane_counts[stride * k + j].
  std::vector<double> lane_inertia;
  std::vector<double> lane_sums;
  std::vector<std::uint64_t> lane_counts;
  Matrix sums;  ///< lane_sums merged in chunk order (k x d)
  std::vector<std::size_t> counts;
  KMeansResult candidate;  ///< losing restart, kept for buffer reuse
};

/// Cluster the rows of `points` (n x d) into k groups. Requires 1 <= k <= n.
/// Deterministic given the Rng state. Empty clusters are repaired by
/// stealing the point farthest from its centroid.
KMeansResult kmeans(const Matrix& points, std::size_t k, Rng& rng,
                    const KMeansOptions& options = {});

/// Allocation-free variant: result buffers in `out` and every internal
/// buffer in `scratch` are reused across calls. Identical results to
/// kmeans().
void kmeans_into(const Matrix& points, std::size_t k, Rng& rng,
                 const KMeansOptions& options, KMeansScratch& scratch,
                 KMeansResult& out);

/// Mean of each cluster's member rows for an externally supplied assignment
/// (used to recompute centroids of baseline clusterings on fresh data).
/// Clusters with no members get a row of zeros and are reported in
/// `empty_out` when non-null.
Matrix centroids_of(const Matrix& points,
                    const std::vector<std::size_t>& assignment, std::size_t k,
                    std::vector<bool>* empty_out = nullptr);

/// In-place variant of centroids_of reusing the caller's buffers.
void centroids_of_into(const Matrix& points,
                       const std::vector<std::size_t>& assignment,
                       std::size_t k, std::vector<std::size_t>& counts,
                       Matrix& centroids, std::vector<bool>* empty_out);

/// Sum of squared distances from each row to its assigned centroid.
double inertia_of(const Matrix& points,
                  const std::vector<std::size_t>& assignment,
                  const Matrix& centroids);

}  // namespace resmon::cluster
