#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "common/soa.hpp"
#include "common/thread_pool.hpp"

namespace resmon::cluster {
namespace {

/// Three well-separated 2-D blobs of `per_blob` points each.
Matrix make_blobs(std::size_t per_blob, Rng& rng) {
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 10.0}, {-10.0, 10.0}};
  Matrix points(3 * per_blob, 2);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      points(b * per_blob + i, 0) = centers[b][0] + rng.normal(0.0, 0.3);
      points(b * per_blob + i, 1) = centers[b][1] + rng.normal(0.0, 0.3);
    }
  }
  return points;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  Rng rng(1);
  const Matrix points = make_blobs(20, rng);
  const KMeansResult r = kmeans(points, 3, rng);

  // All points of one blob share one label, and labels differ across blobs.
  std::set<std::size_t> labels;
  for (std::size_t b = 0; b < 3; ++b) {
    const std::size_t label = r.assignment[b * 20];
    labels.insert(label);
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(r.assignment[b * 20 + i], label) << "blob " << b;
    }
  }
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeans, CentroidsNearBlobCenters) {
  Rng rng(2);
  const Matrix points = make_blobs(30, rng);
  const KMeansResult r = kmeans(points, 3, rng);
  // Each true center must be within 1.0 of some centroid.
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 10.0}, {-10.0, 10.0}};
  for (const auto& c : centers) {
    double best = 1e9;
    for (std::size_t j = 0; j < 3; ++j) {
      const double d2 = (r.centroids(j, 0) - c[0]) * (r.centroids(j, 0) - c[0]) +
                        (r.centroids(j, 1) - c[1]) * (r.centroids(j, 1) - c[1]);
      best = std::min(best, d2);
    }
    EXPECT_LT(best, 1.0);
  }
}

TEST(KMeans, KEqualsOneGivesGlobalMean) {
  Matrix points{{0.0}, {2.0}, {4.0}};
  Rng rng(3);
  const KMeansResult r = kmeans(points, 1, rng);
  EXPECT_NEAR(r.centroids(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(r.inertia, 8.0, 1e-12);
}

TEST(KMeans, KEqualsNIsZeroInertiaOnDistinctPoints) {
  Matrix points{{0.0}, {5.0}, {9.0}, {13.0}};
  Rng rng(4);
  const KMeansResult r = kmeans(points, 4, rng);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
  std::set<std::size_t> labels(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(labels.size(), 4u);
}

TEST(KMeans, AllIdenticalPointsAreHandled) {
  Matrix points(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    points(i, 0) = 1.0;
    points(i, 1) = 2.0;
  }
  Rng rng(5);
  const KMeansResult r = kmeans(points, 3, rng);
  EXPECT_LE(r.inertia, 1e-12);
}

TEST(KMeans, ValidatesArguments) {
  Matrix points{{0.0}, {1.0}};
  Rng rng(6);
  EXPECT_THROW(kmeans(points, 0, rng), InvalidArgument);
  EXPECT_THROW(kmeans(points, 3, rng), InvalidArgument);
  EXPECT_THROW(kmeans(Matrix(), 1, rng), InvalidArgument);
}

TEST(KMeans, InertiaNeverIncreasesWithLargerK) {
  Rng rng(7);
  Matrix points(40, 1);
  for (std::size_t i = 0; i < 40; ++i) points(i, 0) = rng.uniform();
  double prev = 1e18;
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    Rng local(99);
    const KMeansResult r = kmeans(points, k, local, {.restarts = 4});
    EXPECT_LE(r.inertia, prev + 1e-9) << "k = " << k;
    prev = r.inertia;
  }
}

TEST(KMeans, AssignmentIsNearestCentroid) {
  Rng rng(8);
  Matrix points(25, 2);
  for (std::size_t i = 0; i < 25; ++i) {
    points(i, 0) = rng.uniform();
    points(i, 1) = rng.uniform();
  }
  const KMeansResult r = kmeans(points, 4, rng);
  for (std::size_t i = 0; i < 25; ++i) {
    const double own =
        squared_distance(points.row(i), r.centroids.row(r.assignment[i]));
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_LE(own,
                squared_distance(points.row(i), r.centroids.row(j)) + 1e-9);
    }
  }
}

TEST(CentroidsOf, ComputesMemberMeans) {
  Matrix points{{0.0}, {2.0}, {10.0}};
  const std::vector<std::size_t> assignment{0, 0, 1};
  const Matrix c = centroids_of(points, assignment, 2);
  EXPECT_NEAR(c(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(c(1, 0), 10.0, 1e-12);
}

TEST(CentroidsOf, ReportsEmptyClusters) {
  Matrix points{{1.0}, {2.0}};
  const std::vector<std::size_t> assignment{0, 0};
  std::vector<bool> empty;
  const Matrix c = centroids_of(points, assignment, 3, &empty);
  EXPECT_FALSE(empty[0]);
  EXPECT_TRUE(empty[1]);
  EXPECT_TRUE(empty[2]);
  EXPECT_DOUBLE_EQ(c(1, 0), 0.0);
}

TEST(InertiaOf, MatchesKMeansInertia) {
  Rng rng(9);
  Matrix points(30, 2);
  for (std::size_t i = 0; i < 30; ++i) {
    points(i, 0) = rng.uniform();
    points(i, 1) = rng.uniform();
  }
  const KMeansResult r = kmeans(points, 3, rng);
  EXPECT_NEAR(inertia_of(points, r.assignment, r.centroids), r.inertia,
              1e-9);
}

// ---------------------------------------------------------------------------
// Frozen reference: the two-pass Lloyd iteration as it was before the fused
// chunk-lane kernel (a nearest-centroid pass writing best_j / best_d2, then
// a per-point update loop into per-chunk sums and counts merged in chunk
// order). kmeans_into must reproduce it bit for bit: same assignment,
// centroids, inertia, iteration count and RNG state afterwards.

constexpr std::size_t kRefGrain = 256;

struct RefRun {
  KMeansResult result;
  std::size_t repairs = 0;  ///< empty-cluster repairs across all restarts
};

void reference_run_once(const Matrix& points, const SoaMatrix& soa,
                        std::size_t k, Rng& rng, const KMeansOptions& options,
                        KMeansResult& result, std::size_t& repairs) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();

  // k-means++ seeding, unchanged (same kernel, same point-order scan).
  result.centroids.resize(k, d);
  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  const std::size_t first = rng.index(n);
  for (std::size_t c = 0; c < d; ++c) result.centroids(0, c) = soa(first, c);
  for (std::size_t j = 1; j < k; ++j) {
    kern::min_distance_update(soa.col_ptrs(), d,
                              result.centroids.row(j - 1).data(), 0, n,
                              dist2.data());
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
      chosen = rng.index(n);
    }
    for (std::size_t c = 0; c < d; ++c) {
      result.centroids(j, c) = soa(chosen, c);
    }
  }

  result.iterations = 0;
  result.assignment.assign(n, 0);
  std::vector<double> best_d2(n);
  std::vector<std::size_t> best_j(n);
  const std::size_t chunks = (n + kRefGrain - 1) / kRefGrain;
  std::vector<double> chunk_inertia(chunks);
  std::vector<Matrix> chunk_sums(chunks, Matrix(k, d));
  std::vector<std::vector<std::size_t>> chunk_counts(
      chunks, std::vector<std::size_t>(k, 0));
  double prev_inertia = std::numeric_limits<double>::max();

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        double acc = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
          const double diff = soa(i, c) - result.centroids(j, c);
          acc += diff * diff;
        }
        if (j == 0 || acc < best_d2[i]) {
          best_d2[i] = acc;
          best_j[i] = j;
        }
      }
    }
    for (std::size_t ch = 0; ch < chunks; ++ch) {
      double local = 0.0;
      const std::size_t end = std::min(n, (ch + 1) * kRefGrain);
      for (std::size_t i = ch * kRefGrain; i < end; ++i) {
        result.assignment[i] = best_j[i];
        local += best_d2[i];
      }
      chunk_inertia[ch] = local;
    }
    double inertia = 0.0;
    for (std::size_t ch = 0; ch < chunks; ++ch) inertia += chunk_inertia[ch];

    for (std::size_t ch = 0; ch < chunks; ++ch) {
      Matrix& local_sums = chunk_sums[ch];
      std::fill(local_sums.data().begin(), local_sums.data().end(), 0.0);
      std::fill(chunk_counts[ch].begin(), chunk_counts[ch].end(), 0);
      const std::size_t end = std::min(n, (ch + 1) * kRefGrain);
      for (std::size_t i = ch * kRefGrain; i < end; ++i) {
        const std::size_t j = result.assignment[i];
        ++chunk_counts[ch][j];
        axpy(1.0, points.row(i), local_sums.row(j));
      }
    }
    Matrix sums(k, d);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t ch = 0; ch < chunks; ++ch) {
      sums += chunk_sums[ch];
      for (std::size_t j = 0; j < k; ++j) counts[j] += chunk_counts[ch][j];
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (counts[j] == 0) {
        ++repairs;
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
        result.centroids(j, c) = sums(j, c) / static_cast<double>(counts[j]);
      }
    }

    if (prev_inertia - inertia < options.tolerance) {
      result.inertia = inertia;
      break;
    }
    prev_inertia = inertia;
    result.inertia = inertia;
  }
}

RefRun reference_kmeans(const Matrix& points, std::size_t k, Rng& rng,
                        const KMeansOptions& options) {
  SoaMatrix soa;
  soa.assign_from(points);
  RefRun run;
  reference_run_once(points, soa, k, rng, options, run.result, run.repairs);
  for (std::size_t r = 1; r < std::max<std::size_t>(1, options.restarts);
       ++r) {
    KMeansResult candidate;
    reference_run_once(points, soa, k, rng, options, candidate, run.repairs);
    if (candidate.inertia < run.result.inertia) {
      std::swap(run.result, candidate);
    }
  }
  return run;
}

/// Runs kmeans_into (through one scratch reused across `calls` runs, as
/// the per-slot tracker does) and the reference from the same RNG seed and
/// asserts bitwise equality of every output and of the next RNG draw.
std::size_t expect_matches_reference(const Matrix& points, std::size_t k,
                                     std::uint64_t seed,
                                     KMeansOptions options = {},
                                     KMeansScratch* scratch = nullptr) {
  Rng ref_rng(seed);
  const RefRun ref = reference_kmeans(points, k, ref_rng, options);
  Rng rng(seed);
  KMeansScratch local;
  KMeansResult out;
  kmeans_into(points, k, rng, options, scratch != nullptr ? *scratch : local,
              out);
  const KMeansResult& want = ref.result;
  EXPECT_EQ(out.assignment, want.assignment);
  EXPECT_EQ(out.iterations, want.iterations);
  EXPECT_EQ(std::memcmp(&out.inertia, &want.inertia, sizeof(double)), 0)
      << out.inertia << " vs " << want.inertia;
  EXPECT_EQ(out.centroids.rows(), want.centroids.rows());
  EXPECT_EQ(out.centroids.cols(), want.centroids.cols());
  if (out.centroids.data().size() == want.centroids.data().size()) {
    EXPECT_EQ(std::memcmp(out.centroids.data().data(),
                          want.centroids.data().data(),
                          want.centroids.data().size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(rng.engine()(), ref_rng.engine()());
  return ref.repairs;
}

Matrix normal_points(std::size_t n, std::size_t d, Rng& rng) {
  Matrix points(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) points(i, c) = rng.normal(0.0, 1.0);
  }
  return points;
}

TEST(KMeansReference, MatchesTwoPassLloydBitwise) {
  KMeansScratch shared;  // reused across shapes, like the per-slot tracker
  for (const std::size_t n :
       {1, 255, 256, 257, 1023, 1024, 1025, 4096, 5000}) {
    for (const std::size_t d : {1, 2, 3, 5}) {
      Rng data(n * 31 + d);
      const Matrix points = normal_points(n, d, data);
      for (const std::size_t k : {1, 2, 3, 10}) {
        if (k > n) continue;
        SCOPED_TRACE(::testing::Message()
                     << "n " << n << " d " << d << " k " << k);
        expect_matches_reference(points, k, 100 + n + d + k, {}, &shared);
      }
    }
  }
}

TEST(KMeansReference, MatchesOnBothKernelPaths) {
  if (!kern::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  const kern::Path saved = kern::active_path();
  for (const kern::Path path : {kern::Path::kScalar, kern::Path::kSimd}) {
    kern::set_path(path);
    Rng data(5);
    const Matrix points = normal_points(1300, 2, data);
    expect_matches_reference(points, 3, 9);
  }
  kern::set_path(saved);
}

TEST(KMeansReference, TiesAtCentroidMidpoints) {
  // Integer-grid points: with one iteration the centroids are seeded grid
  // points, so every point halfway between two of them is an exact tie
  // that the strict-< argmin must give to the lower centroid index.
  for (const std::size_t d : {1, 2}) {
    Rng data(77 + d);
    Matrix points(1281, d);
    for (std::size_t i = 0; i < points.rows(); ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        points(i, c) = static_cast<double>(data.index(5));
      }
    }
    for (const std::size_t k : {2, 3, 4}) {
      SCOPED_TRACE(::testing::Message() << "d " << d << " k " << k);
      expect_matches_reference(points, k, 3 * k + d, {.max_iterations = 1});
      expect_matches_reference(points, k, 3 * k + d);
    }
  }
}

TEST(KMeansReference, CoincidentPointsForceEmptyClusterRepair) {
  // All points identical: every point ties onto centroid 0, the other
  // clusters come up empty and the repair must see the assignment in
  // point order (n = 1025: four lane chunks plus a one-point tail).
  for (const std::size_t n : {6, 1025}) {
    Matrix points(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      points(i, 0) = 0.25;
      points(i, 1) = 0.75;
    }
    SCOPED_TRACE(::testing::Message() << "n " << n);
    EXPECT_GT(expect_matches_reference(points, 3, 41), 0u);
  }
}

TEST(KMeansReference, EmptyClusterRepairOnSpreadData) {
  // Mostly duplicates plus a few outliers: seeding picks coincident
  // centroids and the repair steals the farthest points.
  Matrix points(2000, 1);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    points(i, 0) = i % 400 == 7 ? 1.0 + static_cast<double>(i) * 1e-3 : 0.0;
  }
  std::size_t repairs = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    repairs += expect_matches_reference(points, 10, seed);
  }
  EXPECT_GT(repairs, 0u);
}

TEST(KMeansReference, NaNPointMatchesBitwise) {
  Rng data(13);
  Matrix points = normal_points(1025, 2, data);
  points(600, 1) = std::numeric_limits<double>::quiet_NaN();
  expect_matches_reference(points, 3, 17, {.max_iterations = 20});
}

TEST(KMeansReference, PoolPathMatchesSerialAndReference) {
  // n * k * d = 20000 * 10 * 3 >= 2^19: the Lloyd passes run on the pool.
  Rng data(19);
  const Matrix points = normal_points(20000, 3, data);
  const KMeansOptions serial{.max_iterations = 15};
  Rng serial_rng(23);
  const KMeansResult want = kmeans(points, 10, serial_rng, serial);
  const std::uint64_t want_next = serial_rng.engine()();
  expect_matches_reference(points, 10, 23, serial);
  for (const std::size_t threads : {1, 2, 3}) {
    ThreadPool pool(threads);
    KMeansOptions pooled = serial;
    pooled.pool = &pool;
    Rng rng(23);
    const KMeansResult got = kmeans(points, 10, rng, pooled);
    EXPECT_EQ(got.assignment, want.assignment) << threads << " threads";
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(got.centroids.data().data(),
                          want.centroids.data().data(),
                          want.centroids.data().size() * sizeof(double)),
              0);
    EXPECT_EQ(rng.engine()(), want_next);
  }
}

// Property sweep over k: every cluster index returned is < k and every
// cluster is non-empty (the empty-cluster repair invariant).
class KMeansSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansSweepTest, LabelsInRangeAndNoEmptyClusters) {
  const std::size_t k = GetParam();
  Rng rng(k);
  Matrix points(50, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t c = 0; c < 3; ++c) points(i, c) = rng.uniform();
  }
  const KMeansResult r = kmeans(points, k, rng);
  std::vector<std::size_t> counts(k, 0);
  for (const std::size_t a : r.assignment) {
    ASSERT_LT(a, k);
    ++counts[a];
  }
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_GT(counts[j], 0u) << "empty cluster " << j << " with k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansSweepTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

}  // namespace
}  // namespace resmon::cluster
