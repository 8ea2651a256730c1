#include "core/estimation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "common/error.hpp"

namespace resmon::core {
namespace {

cluster::Clustering make_clustering(std::vector<std::size_t> assignment,
                                    Matrix centroids) {
  cluster::Clustering c;
  c.assignment = std::move(assignment);
  c.centroids = std::move(centroids);
  return c;
}

// ---- alpha_scale ---------------------------------------------------------

TEST(AlphaScale, OneWhenPointStaysNearOwnCentroid) {
  // Centroids at 0.2 and 0.8; a small delta from 0.2 stays in cluster 0.
  Matrix centroids{{0.2}, {0.8}};
  const std::vector<double> delta{0.1};
  EXPECT_DOUBLE_EQ(alpha_scale(delta, centroids, 0), 1.0);
}

TEST(AlphaScale, ClampsAtBisectorBetweenCentroids) {
  // Bisector between 0.2 and 0.8 is 0.5, i.e. delta 0.3 from c0. A delta
  // of 0.6 must be scaled by 0.5 so that c0 + alpha*delta = 0.5.
  Matrix centroids{{0.2}, {0.8}};
  const std::vector<double> delta{0.6};
  EXPECT_NEAR(alpha_scale(delta, centroids, 0), 0.5, 1e-12);
}

TEST(AlphaScale, DeltaAwayFromOtherCentroidIsUnclamped) {
  Matrix centroids{{0.5}, {0.9}};
  const std::vector<double> delta{-0.4};  // away from 0.9
  EXPECT_DOUBLE_EQ(alpha_scale(delta, centroids, 0), 1.0);
}

TEST(AlphaScale, NearestOfSeveralCentroidsBinds) {
  Matrix centroids{{0.0}, {1.0}, {0.4}};
  // From c0 toward both others; the closer bisector (0.2, from the 0.4
  // centroid) binds: alpha = 0.2 / 0.8 = 0.25.
  const std::vector<double> delta{0.8};
  EXPECT_NEAR(alpha_scale(delta, centroids, 0), 0.25, 1e-12);
}

TEST(AlphaScale, WorksInTwoDimensions) {
  Matrix centroids{{0.0, 0.0}, {1.0, 0.0}};
  // Delta orthogonal to the centroid gap is never clamped.
  const std::vector<double> up{0.0, 5.0};
  EXPECT_DOUBLE_EQ(alpha_scale(up, centroids, 0), 1.0);
  // Delta along the gap is clamped at the bisector x = 0.5.
  const std::vector<double> along{1.0, 0.0};
  EXPECT_NEAR(alpha_scale(along, centroids, 0), 0.5, 1e-12);
}

TEST(AlphaScale, ZeroDeltaGivesOne) {
  Matrix centroids{{0.1}, {0.9}};
  const std::vector<double> delta{0.0};
  EXPECT_DOUBLE_EQ(alpha_scale(delta, centroids, 0), 1.0);
}

TEST(AlphaScale, ValidatesArguments) {
  Matrix centroids{{0.1}, {0.9}};
  const std::vector<double> delta{0.1};
  EXPECT_THROW(alpha_scale(delta, centroids, 5), InvalidArgument);
  const std::vector<double> wrong_dim{0.1, 0.2};
  EXPECT_THROW(alpha_scale(wrong_dim, centroids, 0), InvalidArgument);
}

TEST(AlphaScale, ScaledPointIsStillNearestToOwnCentroid) {
  // Property: after scaling, c_j + alpha*delta is never strictly closer to
  // another centroid.
  Matrix centroids{{0.1}, {0.45}, {0.8}};
  for (double raw = -1.0; raw <= 1.0; raw += 0.05) {
    const std::vector<double> delta{raw};
    const double alpha = alpha_scale(delta, centroids, 1);
    const double point = centroids(1, 0) + alpha * delta[0];
    const double own = std::fabs(point - centroids(1, 0));
    EXPECT_LE(own, std::fabs(point - centroids(0, 0)) + 1e-9) << raw;
    EXPECT_LE(own, std::fabs(point - centroids(2, 0)) + 1e-9) << raw;
  }
}

// ---- OffsetTracker -------------------------------------------------------

TEST(OffsetTracker, RejectsZeroClusters) {
  EXPECT_THROW(OffsetTracker(5, 0), InvalidArgument);
}

TEST(OffsetTracker, QueriesBeforePushThrow) {
  OffsetTracker tracker(5, 2);
  EXPECT_TRUE(tracker.empty());
  EXPECT_THROW(tracker.modal_cluster(0), InvalidState);
  EXPECT_THROW(tracker.offset(0, 0), InvalidState);
}

TEST(OffsetTracker, PushValidatesShapes) {
  OffsetTracker tracker(5, 2);
  Matrix snapshot(3, 1);
  // Wrong cluster count.
  EXPECT_THROW(
      tracker.push(make_clustering({0, 0, 0}, Matrix(3, 1)), snapshot),
      InvalidArgument);
  // Assignment size mismatch.
  EXPECT_THROW(tracker.push(make_clustering({0, 0}, Matrix(2, 1)), snapshot),
               InvalidArgument);
  // Dimension mismatch between snapshot and centroids.
  EXPECT_THROW(
      tracker.push(make_clustering({0, 0, 0}, Matrix(2, 2)), snapshot),
      InvalidArgument);
}

TEST(OffsetTracker, ModalClusterPicksMostFrequent) {
  OffsetTracker tracker(2, 2);  // M' = 2 -> window of 3
  Matrix snapshot(1, 1);
  Matrix centroids{{0.2}, {0.8}};
  tracker.push(make_clustering({0}, centroids), snapshot);
  tracker.push(make_clustering({1}, centroids), snapshot);
  tracker.push(make_clustering({1}, centroids), snapshot);
  EXPECT_EQ(tracker.modal_cluster(0), 1u);
}

TEST(OffsetTracker, ModalClusterTiesBreakLow) {
  OffsetTracker tracker(1, 3);  // window of 2
  Matrix snapshot(1, 1);
  Matrix centroids{{0.1}, {0.5}, {0.9}};
  tracker.push(make_clustering({2}, centroids), snapshot);
  tracker.push(make_clustering({1}, centroids), snapshot);
  EXPECT_EQ(tracker.modal_cluster(0), 1u);  // 1 and 2 tie; lower wins
}

TEST(OffsetTracker, WindowIsBounded) {
  OffsetTracker tracker(1, 2);  // keeps at most M' + 1 = 2 entries
  Matrix snapshot(1, 1);
  Matrix centroids{{0.2}, {0.8}};
  for (int i = 0; i < 10; ++i) {
    tracker.push(make_clustering({0}, centroids), snapshot);
  }
  EXPECT_EQ(tracker.steps(), 2u);
}

TEST(OffsetTracker, OffsetIsAverageOfInClusterDeviations) {
  // Node sits 0.05 above its centroid on every step -> offset = 0.05.
  OffsetTracker tracker(2, 2);
  Matrix centroids{{0.2}, {0.8}};
  Matrix snapshot(1, 1);
  snapshot(0, 0) = 0.25;
  for (int i = 0; i < 3; ++i) {
    tracker.push(make_clustering({0}, centroids), snapshot);
  }
  EXPECT_NEAR(tracker.offset(0, 0)[0], 0.05, 1e-12);
}

TEST(OffsetTracker, OffsetClampedWhenDeviationCrossesBisector) {
  // Node at 0.7 relative to centroid 0.2 with the other centroid at 0.8:
  // the bisector is 0.5, so alpha = 0.3/0.5 and the contribution per step
  // is 0.3 (point pinned at the bisector).
  OffsetTracker tracker(0, 2);
  Matrix centroids{{0.2}, {0.8}};
  Matrix snapshot(1, 1);
  snapshot(0, 0) = 0.7;
  tracker.push(make_clustering({1}, centroids), snapshot);
  EXPECT_NEAR(tracker.offset(0, 0)[0], 0.3, 1e-12);
}

TEST(OffsetTracker, OffsetRelativeToRequestedCluster) {
  OffsetTracker tracker(0, 2);
  Matrix centroids{{0.2}, {0.8}};
  Matrix snapshot(1, 1);
  snapshot(0, 0) = 0.75;
  tracker.push(make_clustering({1}, centroids), snapshot);
  // Relative to cluster 1 the deviation is -0.05 (in-cluster, alpha = 1).
  EXPECT_NEAR(tracker.offset(0, 1)[0], -0.05, 1e-12);
}

TEST(OffsetTracker, NodeCountMustStayConstant) {
  OffsetTracker tracker(3, 2);
  Matrix centroids{{0.2}, {0.8}};
  tracker.push(make_clustering({0, 1}, centroids), Matrix(2, 1));
  EXPECT_THROW(
      tracker.push(make_clustering({0, 1, 0}, centroids), Matrix(3, 1)),
      InvalidArgument);
}

TEST(OffsetTracker, ClusterIndexValidated) {
  OffsetTracker tracker(3, 2);
  Matrix centroids{{0.2}, {0.8}};
  tracker.push(make_clustering({0}, centroids), Matrix(1, 1));
  EXPECT_THROW(tracker.offset(0, 7), InvalidArgument);
}

TEST(OffsetTracker, AssignmentOutOfRangeRejected) {
  OffsetTracker tracker(3, 2);
  Matrix centroids{{0.2}, {0.8}};
  EXPECT_THROW(tracker.push(make_clustering({0, 2}, centroids), Matrix(2, 1)),
               InvalidArgument);
  EXPECT_TRUE(tracker.empty());
}

TEST(OffsetTracker, ModalClusterFollowsTheWindowAsItSlides) {
  OffsetTracker tracker(1, 2);  // window of 2
  Matrix snapshot(1, 1);
  Matrix centroids{{0.2}, {0.8}};
  for (const std::size_t j : {0, 0, 1, 1, 1}) {
    tracker.push(make_clustering({j}, centroids), snapshot);
  }
  EXPECT_EQ(tracker.modal_cluster(0), 1u);
  tracker.push(make_clustering({0}, centroids), snapshot);
  EXPECT_EQ(tracker.modal_cluster(0), 0u);  // 0 and 1 tie; lower wins
  tracker.push(make_clustering({0}, centroids), snapshot);
  EXPECT_EQ(tracker.modal_cluster(0), 0u);
}

// ---- estimate_into -------------------------------------------------------

// eq. (12) exactly as first written: per node, per step, a fresh delta and
// alpha_scale's quotient taken only when delta points toward c_l. The
// optimized kernels must reproduce it bit for bit.
double reference_alpha(const std::vector<double>& delta,
                       const Matrix& centroids, std::size_t j) {
  double alpha = 1.0;
  for (std::size_t l = 0; l < centroids.rows(); ++l) {
    if (l == j) continue;
    double dir_dot = 0.0;
    double gap2 = 0.0;
    for (std::size_t c = 0; c < delta.size(); ++c) {
      const double g = centroids(l, c) - centroids(j, c);
      dir_dot += delta[c] * g;
      gap2 += g * g;
    }
    if (dir_dot > 0.0 && gap2 > 0.0) {
      alpha = std::min(alpha, gap2 / (2.0 * dir_dot));
    }
  }
  return std::clamp(alpha, 0.0, 1.0);
}

// A multi-cluster, two-dimensional window that wraps (8 pushes into a
// window of 4), with two coincident centroids, a node sitting exactly on
// its centroid and a node whose modal cluster is a tie.
struct Fixture {
  static constexpr std::size_t kNodes = 60;
  static constexpr std::size_t kClusters = 4;
  static constexpr std::size_t kDims = 2;
  std::vector<cluster::Clustering> steps;
  std::vector<Matrix> snapshots;

  explicit Fixture(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (std::size_t t = 0; t < 8; ++t) {
      Matrix centroids(kClusters, kDims);
      for (std::size_t j = 0; j < kClusters; ++j) {
        for (std::size_t c = 0; c < kDims; ++c) centroids(j, c) = unit(rng);
      }
      for (std::size_t c = 0; c < kDims; ++c) centroids(3, c) = centroids(2, c);
      Matrix snap(kNodes, kDims);
      std::vector<std::size_t> assignment(kNodes);
      for (std::size_t i = 0; i < kNodes; ++i) {
        assignment[i] = rng() % kClusters;
        for (std::size_t c = 0; c < kDims; ++c) snap(i, c) = unit(rng);
      }
      // Node 0 alternates between clusters 2 and 1: a 2-2 tie in every
      // window of four, which must resolve to 1.
      assignment[0] = t % 2 == 0 ? 2 : 1;
      // Node 1 sits exactly on centroid 0 (delta = 0).
      assignment[1] = 0;
      for (std::size_t c = 0; c < kDims; ++c) snap(1, c) = centroids(0, c);
      steps.push_back(make_clustering(std::move(assignment), centroids));
      snapshots.push_back(std::move(snap));
    }
  }
};

TEST(OffsetTracker, EstimateIntoMatchesPerNodeQueriesBitwise) {
  for (const bool use_alpha : {true, false}) {
    const Fixture f(17);
    OffsetTracker tracker(3, Fixture::kClusters, use_alpha);
    std::vector<std::size_t> modal;
    Matrix offsets;
    for (std::size_t t = 0; t < f.steps.size(); ++t) {
      tracker.push(f.steps[t], f.snapshots[t]);
      tracker.estimate_into(modal, &offsets);
      ASSERT_EQ(modal.size(), Fixture::kNodes);
      ASSERT_EQ(offsets.rows(), Fixture::kNodes);
      ASSERT_EQ(offsets.cols(), Fixture::kDims);
      for (std::size_t i = 0; i < Fixture::kNodes; ++i) {
        EXPECT_EQ(modal[i], tracker.modal_cluster(i));
        const std::vector<double> expected = tracker.offset(i, modal[i]);
        EXPECT_EQ(std::memcmp(offsets.row(i).data(), expected.data(),
                              Fixture::kDims * sizeof(double)),
                  0)
            << "node " << i << " step " << t << " alpha " << use_alpha;
      }
      if (t == 1 || t >= 3) {  // an even count of entries: a 1-1 or 2-2 tie
        EXPECT_EQ(modal[0], 1u);
      }
    }
    // Modal clusters only: the offsets argument is optional.
    std::vector<std::size_t> modal_only;
    tracker.estimate_into(modal_only, nullptr);
    EXPECT_EQ(modal_only, modal);
  }
}

TEST(OffsetTracker, OffsetMatchesTheFirstWrittenFormulaBitwise) {
  const Fixture f(29);
  const std::size_t window = 4;
  OffsetTracker tracker(window - 1, Fixture::kClusters);
  for (std::size_t t = 0; t < f.steps.size(); ++t) {
    tracker.push(f.steps[t], f.snapshots[t]);
  }
  std::vector<double> delta(Fixture::kDims);
  for (std::size_t i = 0; i < Fixture::kNodes; ++i) {
    for (std::size_t j = 0; j < Fixture::kClusters; ++j) {
      std::vector<double> expected(Fixture::kDims, 0.0);
      for (std::size_t age = 0; age < window; ++age) {  // newest first
        const std::size_t t = f.steps.size() - 1 - age;
        const Matrix& centroids = f.steps[t].centroids;
        for (std::size_t c = 0; c < Fixture::kDims; ++c) {
          delta[c] = f.snapshots[t](i, c) - centroids(j, c);
        }
        const double alpha = reference_alpha(delta, centroids, j);
        EXPECT_EQ(alpha_scale(delta, centroids, j), alpha);
        for (std::size_t c = 0; c < Fixture::kDims; ++c) {
          expected[c] += alpha * delta[c];
        }
      }
      for (double& v : expected) v /= static_cast<double>(window);
      const std::vector<double> got = tracker.offset(i, j);
      EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                            Fixture::kDims * sizeof(double)),
                0)
          << "node " << i << " cluster " << j;
    }
  }
}

TEST(OffsetTracker, EstimateIntoBeforePushThrows) {
  OffsetTracker tracker(5, 2);
  std::vector<std::size_t> modal;
  Matrix offsets;
  EXPECT_THROW(tracker.estimate_into(modal, &offsets), InvalidState);
}

}  // namespace
}  // namespace resmon::core
