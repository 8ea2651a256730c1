// Equivalence tests for the SoA hot-path kernels (common/kernels.hpp).
//
// The SIMD path is required to be BIT-IDENTICAL to the scalar path — the
// golden traces pin the scalar results, so any divergence is a correctness
// bug, not a tolerance question. See "Memory layout & SIMD kernels" in
// DESIGN.md for why the vectorization (one point or one point chunk per
// lane, dim-order and point-order accumulation preserved) makes that
// guarantee possible.
#include "common/kernels.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.hpp"
#include "common/rng.hpp"
#include "common/soa.hpp"

namespace resmon {
namespace {

using cluster::KMeansResult;

/// Restores the globally selected kernel path on scope exit.
class PathGuard {
 public:
  PathGuard() : saved_(kern::active_path()) {}
  ~PathGuard() { kern::set_path(saved_); }

 private:
  kern::Path saved_;
};

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Matrix random_points(std::size_t n, std::size_t d, Rng& rng) {
  Matrix points(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      points(i, c) = rng.normal(0.0, 1.0);
    }
  }
  return points;
}

/// Outputs of one kern::lloyd_lanes call.
struct LloydLanesOut {
  std::vector<std::size_t> assign;
  std::vector<double> inertia;
  std::vector<double> sums;
  std::vector<std::uint64_t> counts;
};

/// Poisoned outputs: the kernel must overwrite every entry.
LloydLanesOut poisoned_outputs(std::size_t lanes, std::size_t len,
                               std::size_t d, std::size_t k) {
  return {std::vector<std::size_t>(lanes * len, 99),
          std::vector<double>(lanes, -1.0),
          std::vector<double>(k * d * lanes, -1.0),
          std::vector<std::uint64_t>(k * lanes, 99)};
}

/// Runs lloyd_lanes over lanes [begin, end) into `out`.
void run_lloyd_lanes_range(const std::vector<double>& x, std::size_t d,
                           std::size_t lanes, std::size_t len,
                           const Matrix& centroids, std::size_t begin,
                           std::size_t end, LloydLanesOut& out) {
  kern::lloyd_lanes(x.data(), d, lanes, len, centroids.data().data(),
                    centroids.rows(), begin, end, out.assign.data(),
                    out.inertia.data(), out.sums.data(), out.counts.data());
}

LloydLanesOut run_lloyd_lanes(const std::vector<double>& x, std::size_t d,
                              std::size_t lanes, std::size_t len,
                              const Matrix& centroids) {
  LloydLanesOut out = poisoned_outputs(lanes, len, d, centroids.rows());
  run_lloyd_lanes_range(x, d, lanes, len, centroids, 0, lanes, out);
  return out;
}

/// Runs lloyd_lanes on both paths over random chunk-interleaved points and
/// asserts that they agree bitwise with each other and with a plain
/// per-point loop over each chunk (strict-< argmin in centroid order,
/// partials accumulated in point order from zero). With `grid`, points and
/// centroids are rounded to integers, which makes exact distance ties
/// common.
void check_lloyd_lanes(std::size_t lanes, std::size_t len, std::size_t d,
                       std::size_t k, bool grid = false) {
  if (!kern::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  PathGuard guard;
  Rng rng(17 + lanes + 10 * d + 100 * k + 1000 * len);
  Matrix points = random_points(lanes * len, d, rng);  // chunk-major
  Matrix centroids = random_points(k, d, rng);
  if (grid) {
    for (double& v : points.data()) v = std::round(2.0 * v);
    for (double& v : centroids.data()) v = std::round(2.0 * v);
  }
  std::vector<double> x(lanes * len * d);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t p = 0; p < len; ++p) {
      for (std::size_t dim = 0; dim < d; ++dim) {
        x[(p * d + dim) * lanes + l] = points(l * len + p, dim);
      }
    }
  }

  kern::set_path(kern::Path::kScalar);
  const LloydLanesOut scalar = run_lloyd_lanes(x, d, lanes, len, centroids);
  kern::set_path(kern::Path::kSimd);
  const LloydLanesOut simd = run_lloyd_lanes(x, d, lanes, len, centroids);

  EXPECT_EQ(scalar.assign, simd.assign);
  EXPECT_EQ(scalar.counts, simd.counts);
  EXPECT_EQ(std::memcmp(scalar.inertia.data(), simd.inertia.data(),
                        lanes * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(scalar.sums.data(), simd.sums.data(),
                        scalar.sums.size() * sizeof(double)),
            0);

  for (std::size_t l = 0; l < lanes; ++l) {
    double inertia = 0.0;
    std::vector<double> sums(k * d, 0.0);
    std::vector<std::uint64_t> counts(k, 0);
    for (std::size_t p = 0; p < len; ++p) {
      const std::size_t i = l * len + p;
      std::size_t best = 0;
      double best_d2 = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        double acc = 0.0;
        for (std::size_t dim = 0; dim < d; ++dim) {
          const double diff = points(i, dim) - centroids(j, dim);
          acc += diff * diff;
        }
        if (j == 0 || acc < best_d2) {
          best_d2 = acc;
          best = j;
        }
      }
      ASSERT_EQ(simd.assign[p * lanes + l], best)
          << "lane " << l << " point " << p;
      inertia += best_d2;
      ++counts[best];
      for (std::size_t dim = 0; dim < d; ++dim) {
        sums[best * d + dim] += points(i, dim);
      }
    }
    EXPECT_TRUE(bitwise_equal(simd.inertia[l], inertia)) << "lane " << l;
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(simd.counts[j * lanes + l], counts[j]) << "lane " << l;
      for (std::size_t dim = 0; dim < d; ++dim) {
        EXPECT_TRUE(bitwise_equal(simd.sums[(j * d + dim) * lanes + l],
                                  sums[j * d + dim]))
            << "lane " << l << " cluster " << j << " dim " << dim;
      }
    }
  }
}

TEST(Kernels, NearestCentroidsMatchesScalarBitwise) {
  check_lloyd_lanes(17, 15, 3, 5);
}

TEST(Kernels, NearestCentroidsScalarDimension) {
  check_lloyd_lanes(3, 100, 1, 10);
}

TEST(Kernels, NearestCentroidsWindowShorterThanVectorWidth) {
  // Fewer lanes than any vector width: the remainder block must agree.
  for (std::size_t lanes = 1; lanes <= 7; ++lanes) {
    check_lloyd_lanes(lanes, 5, 2, 3);
  }
}

TEST(Kernels, NearestCentroidsOneClusterPerPoint) {
  // K == n (every point its own cluster) exercises the densest argmin.
  check_lloyd_lanes(16, 1, 2, 16);
}

TEST(Kernels, LloydLanesMatchesScalarAtEveryLaneCount) {
  // 1 lane (the tail-chunk shape), fewer lanes than a vector, one vector,
  // four vectors, and four vectors plus a one-lane remainder; every
  // dimension with a fixed-width instance plus the runtime-d fallback.
  for (const std::size_t lanes : {1, 3, 4, 16, 17}) {
    for (const std::size_t d : {1, 2, 3, 4, 5}) {
      for (const std::size_t k : {1, 3, 10}) {
        SCOPED_TRACE(::testing::Message()
                     << "lanes " << lanes << " d " << d << " k " << k);
        check_lloyd_lanes(lanes, 37, d, k);
      }
    }
  }
}

TEST(Kernels, LloydLanesTiesGoToTheLowerCentroid) {
  for (const std::size_t d : {1, 2}) {
    for (const std::size_t k : {3, 6}) check_lloyd_lanes(9, 40, d, k, true);
  }
}

TEST(Kernels, LloydLanesRangesAreIndependent) {
  // Worker pools split the lanes into ranges: two half-range calls must
  // write exactly what one full-range call does, even where a range
  // boundary splits a lane vector.
  const std::size_t lanes = 35, len = 9, d = 2, k = 4;
  Rng rng(29);
  const Matrix centroids = random_points(k, d, rng);
  std::vector<double> x(lanes * len * d);
  for (double& v : x) v = rng.normal(0.0, 1.0);
  const LloydLanesOut whole = run_lloyd_lanes(x, d, lanes, len, centroids);
  LloydLanesOut split = poisoned_outputs(lanes, len, d, k);
  run_lloyd_lanes_range(x, d, lanes, len, centroids, 0, 18, split);
  run_lloyd_lanes_range(x, d, lanes, len, centroids, 18, lanes, split);
  EXPECT_EQ(whole.assign, split.assign);
  EXPECT_EQ(whole.counts, split.counts);
  EXPECT_EQ(std::memcmp(whole.inertia.data(), split.inertia.data(),
                        lanes * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(whole.sums.data(), split.sums.data(),
                        whole.sums.size() * sizeof(double)),
            0);
}

TEST(Kernels, MinDistanceUpdateMatchesScalarBitwise) {
  if (!kern::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  PathGuard guard;
  Rng rng(41);
  const std::size_t n = 129;
  const std::size_t d = 4;
  const Matrix points = random_points(n, d, rng);
  const Matrix c = random_points(1, d, rng);
  SoaMatrix soa;
  soa.assign_from(points);

  std::vector<double> scalar(n, 1e300), simd(n, 1e300);
  kern::set_path(kern::Path::kScalar);
  kern::min_distance_update(soa.col_ptrs(), d, c.data().data(), 0, n,
                            scalar.data());
  kern::set_path(kern::Path::kSimd);
  kern::min_distance_update(soa.col_ptrs(), d, c.data().data(), 0, n,
                            simd.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bitwise_equal(scalar[i], simd[i])) << "point " << i;
  }
}

TEST(Kernels, ArimaKernelsMatchScalarBitwise) {
  if (!kern::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  PathGuard guard;
  Rng rng(43);
  const std::size_t n = 203;
  std::vector<double> w(n);
  for (double& v : w) v = rng.normal(0.5, 0.2);

  std::vector<double> centered_scalar(n), centered_simd(n);
  std::vector<double> e_scalar(w), e_simd(w);
  kern::set_path(kern::Path::kScalar);
  kern::subtract_mean(w.data(), 0.37, n, centered_scalar.data());
  kern::axpy_lagged(0.81, w.data(), 3, n, e_scalar.data());
  kern::set_path(kern::Path::kSimd);
  kern::subtract_mean(w.data(), 0.37, n, centered_simd.data());
  kern::axpy_lagged(0.81, w.data(), 3, n, e_simd.data());
  for (std::size_t t = 0; t < n; ++t) {
    EXPECT_TRUE(bitwise_equal(centered_scalar[t], centered_simd[t])) << t;
    EXPECT_TRUE(bitwise_equal(e_scalar[t], e_simd[t])) << t;
  }
}

TEST(Kernels, ReindexKernelsMatchScalarBitwise) {
  if (!kern::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  PathGuard guard;
  Rng rng(47);
  const std::size_t n = 211;
  const std::size_t k = 7;
  const std::size_t lookbacks = 3;
  std::vector<std::vector<std::size_t>> past(lookbacks,
                                             std::vector<std::size_t>(n));
  for (auto& pass : past) {
    for (std::size_t i = 0; i < n; ++i) {
      pass[i] = static_cast<std::size_t>(rng.uniform() * k) % k;
    }
  }
  std::vector<std::size_t> fresh(n);
  for (std::size_t i = 0; i < n; ++i) {
    fresh[i] = static_cast<std::size_t>(rng.uniform() * k) % k;
  }

  std::vector<std::uint8_t> mask_scalar(n * k, 1), mask_simd(n * k, 1);
  std::vector<double> w_scalar(k * k, 0.0), w_simd(k * k, 0.0);
  kern::set_path(kern::Path::kScalar);
  for (const auto& pass : past) {
    kern::history_mask(pass.data(), k, 0, n, mask_scalar.data());
  }
  kern::similarity_accumulate(fresh.data(), mask_scalar.data(), k, 0, n,
                              w_scalar.data());
  kern::set_path(kern::Path::kSimd);
  for (const auto& pass : past) {
    kern::history_mask(pass.data(), k, 0, n, mask_simd.data());
  }
  kern::similarity_accumulate(fresh.data(), mask_simd.data(), k, 0, n,
                              w_simd.data());

  EXPECT_EQ(mask_scalar, mask_simd);
  for (std::size_t c = 0; c < k * k; ++c) {
    EXPECT_TRUE(bitwise_equal(w_scalar[c], w_simd[c])) << "cell " << c;
  }
  // And against the branchy reference loops the kernels replaced.
  std::vector<std::uint8_t> mask_ref(n * k, 1);
  for (const auto& pass : past) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        if (pass[i] != j) mask_ref[i * k + j] = 0;
      }
    }
  }
  EXPECT_EQ(mask_ref, mask_scalar);
  std::vector<double> w_ref(k * k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (mask_ref[i * k + j] != 0) w_ref[fresh[i] * k + j] += 1.0;
    }
  }
  for (std::size_t c = 0; c < k * k; ++c) {
    EXPECT_TRUE(bitwise_equal(w_ref[c], w_scalar[c])) << "cell " << c;
  }
}

/// End-to-end: a whole K-means run must be bit-identical across paths.
TEST(Kernels, KMeansIdenticalAcrossPaths) {
  if (!kern::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  PathGuard guard;
  const Matrix points = [] {
    Rng rng(7);
    return random_points(400, 3, rng);
  }();

  kern::set_path(kern::Path::kScalar);
  Rng rng_scalar(11);
  const KMeansResult scalar = cluster::kmeans(points, 6, rng_scalar);
  kern::set_path(kern::Path::kSimd);
  Rng rng_simd(11);
  const KMeansResult simd = cluster::kmeans(points, 6, rng_simd);

  EXPECT_EQ(scalar.assignment, simd.assignment);
  EXPECT_EQ(scalar.iterations, simd.iterations);
  EXPECT_TRUE(bitwise_equal(scalar.inertia, simd.inertia));
  ASSERT_EQ(scalar.centroids.rows(), simd.centroids.rows());
  for (std::size_t j = 0; j < scalar.centroids.rows(); ++j) {
    for (std::size_t c = 0; c < scalar.centroids.cols(); ++c) {
      EXPECT_TRUE(
          bitwise_equal(scalar.centroids(j, c), simd.centroids(j, c)))
          << "centroid " << j << " dim " << c;
    }
  }
}

TEST(Kernels, SoaMatrixRoundTrips) {
  Rng rng(3);
  const Matrix m = random_points(13, 4, rng);
  SoaMatrix soa;
  soa.assign_from(m);
  ASSERT_EQ(soa.rows(), m.rows());
  ASSERT_EQ(soa.cols(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(soa(i, c), m(i, c));
      EXPECT_EQ(soa.col(c)[i], m(i, c));
      EXPECT_EQ(soa.col_ptrs()[c][i], m(i, c));
    }
  }
}

TEST(Kernels, PathSelectionResolves) {
  // active_path() reports the path that will actually run: explicit
  // selections round-trip, kAuto resolves to the host's best path.
  PathGuard guard;
  kern::set_path(kern::Path::kScalar);
  EXPECT_EQ(kern::active_path(), kern::Path::kScalar);
  kern::set_path(kern::Path::kAuto);
  EXPECT_EQ(kern::active_path(), kern::simd_supported()
                                     ? kern::Path::kSimd
                                     : kern::Path::kScalar);
}

}  // namespace
}  // namespace resmon
