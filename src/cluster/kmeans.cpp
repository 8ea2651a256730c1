#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/kernels.hpp"
#include "common/thread_pool.hpp"

namespace resmon::cluster {

namespace {

/// Fixed chunk size of the Lloyd pass: each chunk is one SIMD lane with its
/// own partials, merged in chunk order. Determinism requires the chunk
/// partition to depend only on the point count, never on the thread count,
/// so this is a constant — do not derive it from pool size.
constexpr std::size_t kPointGrain = 256;

/// Minimum n*k*d work per parallel region before a pool is worth waking:
/// below this, dispatch overhead exceeds the loop body and threads hurt
/// (the cluster_forecast_speedup < 1 anti-scaling documented in
/// docs/PERFORMANCE.md). The chunk partition is unchanged — only the
/// execution venue — so results stay bit-identical.
constexpr std::size_t kMinParallelWork = std::size_t{1} << 19;

/// Lanes (whole chunks) per pool task of the Lloyd pass: 16 chunks, 4096
/// points, in whole lane vectors. Unlike kPointGrain it only moves work
/// between threads; each chunk's partials are the same in any task.
constexpr std::size_t kLaneGrain = 4 * kern::kLloydLaneWidth;

ThreadPool* effective_pool(const KMeansOptions& options, std::size_t n,
                           std::size_t k, std::size_t d) {
  if (options.pool == nullptr) return nullptr;
  return n * k * d >= kMinParallelWork ? options.pool : nullptr;
}

/// k-means++ seeding: first centroid uniform, then proportional to squared
/// distance from the nearest chosen centroid. Distances run on the SoA
/// kernel; the RNG scan stays sequential on the calling thread.
void seed_centroids_into(const SoaMatrix& soa, std::size_t k, Rng& rng,
                         std::vector<double>& dist2, Matrix& centroids) {
  const std::size_t n = soa.rows();
  const std::size_t d = soa.cols();
  centroids.resize(k, d);

  dist2.assign(n, std::numeric_limits<double>::max());
  std::size_t first = rng.index(n);
  for (std::size_t c = 0; c < d; ++c) centroids(0, c) = soa(first, c);

  for (std::size_t j = 1; j < k; ++j) {
    kern::min_distance_update(soa.col_ptrs(), d, centroids.row(j - 1).data(),
                              0, n, dist2.data());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += dist2[i];
    std::size_t chosen = 0;
    if (total > 0.0) {
      double r = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        r -= dist2[i];
        if (r <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.index(n);  // all points coincide with chosen centroids
    }
    for (std::size_t c = 0; c < d; ++c) centroids(j, c) = soa(chosen, c);
  }
}

/// Where each chunk of n points sits in the fused Lloyd pass: the `full`
/// whole chunks are SIMD lanes, padded with zero lanes to `stride` (a whole
/// number of lane vectors); the partial `tail` chunk, if any, is one more
/// lane of its own, read straight from the row-major points. Every
/// per-chunk array in KMeansScratch uses this layout.
struct LaneLayout {
  explicit LaneLayout(std::size_t n)
      : full(n / kPointGrain),
        stride((full + kern::kLloydLaneWidth - 1) / kern::kLloydLaneWidth *
               kern::kLloydLaneWidth),
        tail(n % kPointGrain) {}
  std::size_t full;
  std::size_t stride;
  std::size_t tail;
};

/// Refills scratch.lanes, the chunk-interleaved copy of the whole chunks:
/// lanes[(p * d + dim) * stride + l] = points(l * kPointGrain + p, dim),
/// and 0.0 in the padding lanes l >= full.
void interleave_points(const Matrix& points, KMeansScratch& scratch) {
  const LaneLayout lay(points.rows());
  const std::size_t d = points.cols();
  scratch.lanes.resize(kPointGrain * d * lay.stride);
  for (std::size_t p = 0; p < kPointGrain; ++p) {
    double* row_p = scratch.lanes.data() + p * d * lay.stride;
    for (std::size_t l = 0; l < lay.stride; ++l) {
      for (std::size_t dim = 0; dim < d; ++dim) {
        row_p[dim * lay.stride + l] =
            l < lay.full ? points(l * kPointGrain + p, dim) : 0.0;
      }
    }
  }
}

/// One fused Lloyd pass over every chunk (kern::lloyd_lanes): the whole
/// chunks, split across the pool by lane blocks, write their assignment to
/// scratch.lane_assign (lane order); the tail chunk writes its own straight
/// into `assignment` (a single lane is point order). Each chunk's inertia,
/// sums and counts land in the scratch lane arrays.
void lloyd_pass(const Matrix& points, std::size_t k, const Matrix& centroids,
                ThreadPool* pool, KMeansScratch& scratch,
                std::vector<std::size_t>& assignment) {
  const LaneLayout lay(points.rows());
  const std::size_t d = points.cols();
  const double* c = centroids.data().data();
  run_chunked(pool, lay.stride, kLaneGrain,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                kern::lloyd_lanes(scratch.lanes.data(), d, lay.stride,
                                  kPointGrain, c, k, begin, end,
                                  scratch.lane_assign.data(),
                                  scratch.lane_inertia.data(),
                                  scratch.lane_sums.data(),
                                  scratch.lane_counts.data());
              });
  if (lay.tail > 0) {
    const std::size_t first = lay.full * kPointGrain;
    kern::lloyd_lanes(points.data().data() + first * d, d, 1, lay.tail, c, k,
                      0, 1, assignment.data() + first,
                      scratch.lane_inertia.data() + lay.stride,
                      scratch.lane_sums.data() + lay.stride * k * d,
                      scratch.lane_counts.data() + lay.stride * k);
  }
}

/// Copies the whole chunks' assignment from lane order to point order.
void unscramble_assignment(const LaneLayout& lay,
                           const std::vector<std::size_t>& lane_assign,
                           std::vector<std::size_t>& assignment) {
  for (std::size_t l = 0; l < lay.full; ++l) {
    for (std::size_t p = 0; p < kPointGrain; ++p) {
      assignment[l * kPointGrain + p] = lane_assign[p * lay.stride + l];
    }
  }
}

/// Merges the chunk partials of one pass in chunk order — whole chunks,
/// then the tail — into the cluster sums and counts; returns the inertia.
/// Each sum starts at 0.0, as the per-chunk partials do, so the operation
/// sequence is the same at every thread count and on both kernel paths.
double merge_partials(const LaneLayout& lay, std::size_t k, std::size_t d,
                      KMeansScratch& scratch) {
  const bool has_tail = lay.tail > 0;
  double inertia = 0.0;
  for (std::size_t c = 0; c < lay.full; ++c) {
    inertia += scratch.lane_inertia[c];
  }
  if (has_tail) inertia += scratch.lane_inertia[lay.stride];
  const double* tail_sums = scratch.lane_sums.data() + lay.stride * k * d;
  const std::uint64_t* tail_counts =
      scratch.lane_counts.data() + lay.stride * k;
  for (std::size_t j = 0; j < k; ++j) {
    std::size_t count = has_tail ? tail_counts[j] : 0;
    for (std::size_t c = 0; c < lay.full; ++c) {
      count += scratch.lane_counts[j * lay.stride + c];
    }
    scratch.counts[j] = count;
    for (std::size_t dim = 0; dim < d; ++dim) {
      const double* lane =
          scratch.lane_sums.data() + (j * d + dim) * lay.stride;
      double sum = 0.0;
      for (std::size_t c = 0; c < lay.full; ++c) sum += lane[c];
      if (has_tail) sum += tail_sums[j * d + dim];
      scratch.sums(j, dim) = sum;
    }
  }
  return inertia;
}

void run_once_into(const Matrix& points, std::size_t k, Rng& rng,
                   const KMeansOptions& options, KMeansScratch& scratch,
                   KMeansResult& result) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  ThreadPool* pool = effective_pool(options, n, k, d);
  const LaneLayout lay(n);

  result.iterations = 0;
  seed_centroids_into(scratch.soa, k, rng, scratch.dist2, result.centroids);
  result.assignment.assign(n, 0);

  double prev_inertia = std::numeric_limits<double>::max();
  scratch.counts.assign(k, 0);
  scratch.sums.resize(k, d);
  scratch.lane_assign.resize(kPointGrain * lay.stride);
  scratch.lane_inertia.resize(lay.stride + 1);
  scratch.lane_sums.resize((lay.stride + 1) * k * d);
  scratch.lane_counts.resize((lay.stride + 1) * k);

  // The whole chunks' assignment stays in lane order until it is needed in
  // point order: by an empty-cluster repair, or once the run ends.
  bool in_lane_order = false;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    lloyd_pass(points, k, result.centroids, pool, scratch, result.assignment);
    in_lane_order = true;
    const double inertia = merge_partials(lay, k, d, scratch);

    for (std::size_t j = 0; j < k; ++j) {
      if (scratch.counts[j] == 0) {
        if (in_lane_order) {
          unscramble_assignment(lay, scratch.lane_assign, result.assignment);
          in_lane_order = false;
        }
        // Empty cluster: seize the point farthest from its own centroid.
        std::size_t worst = 0;
        double worst_d2 = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d2 = squared_distance(
              result.centroids.row(result.assignment[i]), points.row(i));
          if (d2 > worst_d2) {
            worst_d2 = d2;
            worst = i;
          }
        }
        result.assignment[worst] = j;
        for (std::size_t c = 0; c < d; ++c) {
          result.centroids(j, c) = points(worst, c);
        }
        continue;
      }
      for (std::size_t c = 0; c < d; ++c) {
        result.centroids(j, c) =
            scratch.sums(j, c) / static_cast<double>(scratch.counts[j]);
      }
    }

    if (prev_inertia - inertia < options.tolerance) {
      result.inertia = inertia;
      break;
    }
    prev_inertia = inertia;
    result.inertia = inertia;
  }
  if (in_lane_order) {
    unscramble_assignment(lay, scratch.lane_assign, result.assignment);
  }
}

}  // namespace

void kmeans_into(const Matrix& points, std::size_t k, Rng& rng,
                 const KMeansOptions& options, KMeansScratch& scratch,
                 KMeansResult& out) {
  RESMON_REQUIRE(points.rows() > 0, "kmeans: no points");
  RESMON_REQUIRE(k >= 1 && k <= points.rows(),
                 "kmeans: k must be in [1, #points]");

  scratch.soa.assign_from(points);
  interleave_points(points, scratch);
  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);
  run_once_into(points, k, rng, options, scratch, out);
  for (std::size_t r = 1; r < restarts; ++r) {
    KMeansResult& candidate = scratch.candidate;
    run_once_into(points, k, rng, options, scratch, candidate);
    // Same winner the old `candidate.inertia < best.inertia` pick kept;
    // swapping (not copying) recycles the loser's buffers.
    if (candidate.inertia < out.inertia) std::swap(out, candidate);
  }
}

KMeansResult kmeans(const Matrix& points, std::size_t k, Rng& rng,
                    const KMeansOptions& options) {
  KMeansScratch scratch;
  KMeansResult out;
  kmeans_into(points, k, rng, options, scratch, out);
  return out;
}

void centroids_of_into(const Matrix& points,
                       const std::vector<std::size_t>& assignment,
                       std::size_t k, std::vector<std::size_t>& counts,
                       Matrix& centroids, std::vector<bool>* empty_out) {
  RESMON_REQUIRE(assignment.size() == points.rows(),
                 "centroids_of: assignment size mismatch");
  centroids.resize(k, points.cols());
  counts.assign(k, 0);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    RESMON_REQUIRE(assignment[i] < k, "centroids_of: cluster out of range");
    ++counts[assignment[i]];
    axpy(1.0, points.row(i), centroids.row(assignment[i]));
  }
  if (empty_out != nullptr) empty_out->assign(k, false);
  for (std::size_t j = 0; j < k; ++j) {
    if (counts[j] == 0) {
      if (empty_out != nullptr) (*empty_out)[j] = true;
      continue;
    }
    for (std::size_t c = 0; c < points.cols(); ++c) {
      centroids(j, c) /= static_cast<double>(counts[j]);
    }
  }
}

Matrix centroids_of(const Matrix& points,
                    const std::vector<std::size_t>& assignment, std::size_t k,
                    std::vector<bool>* empty_out) {
  Matrix centroids;
  std::vector<std::size_t> counts;
  centroids_of_into(points, assignment, k, counts, centroids, empty_out);
  return centroids;
}

double inertia_of(const Matrix& points,
                  const std::vector<std::size_t>& assignment,
                  const Matrix& centroids) {
  RESMON_REQUIRE(assignment.size() == points.rows(),
                 "inertia_of: assignment size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < points.rows(); ++i) {
    s += squared_distance(centroids.row(assignment[i]), points.row(i));
  }
  return s;
}

}  // namespace resmon::cluster
