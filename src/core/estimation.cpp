#include "core/estimation.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace resmon::core {

namespace {

/// Gap vectors from centroid j to every centroid l: row l of `gaps`
/// (K x dims) = c_l - c_j and gap2[l] = ||c_l - c_j||^2. A row whose gap2
/// is not positive (l == j, coincident centroids) can never bound alpha; it
/// is stored as a zero vector with gap2 = 1, which alpha_from_gaps turns
/// into the non-binding bound 1.
void fill_gaps(const Matrix& centroids, std::size_t j, double* gaps,
               double* gap2) {
  const std::size_t dims = centroids.cols();
  for (std::size_t l = 0; l < centroids.rows(); ++l) {
    double* g = gaps + l * dims;
    double norm2 = 0.0;
    for (std::size_t c = 0; c < dims; ++c) {
      g[c] = centroids(l, c) - centroids(j, c);
      norm2 += g[c] * g[c];
    }
    if (!(norm2 > 0.0)) {
      std::fill(g, g + dims, 0.0);
      norm2 = 1.0;
    }
    gap2[l] = norm2;
  }
}

/// The eq. (12) alpha for delta (component c is delta(c)) from cluster j,
/// given j's gap vectors (see fill_gaps): the largest alpha <= 1 keeping
/// c_j + alpha * delta on j's side of the bisector with every c_l that
/// delta points toward, alpha <= gap2 / (2 delta . g).
///
/// Branch-free, and bit-identical to taking that quotient only when
/// delta . g > 0: flooring the divisor at gap2 turns every bound that
/// cannot bind (delta pointing away, or a quotient above 1) into exactly 1
/// and leaves every other quotient unchanged. It also never divides by
/// zero, whose inf/NaN results cost several times a plain division.
template <typename Delta>
double alpha_from_gaps(const Delta& delta, std::size_t dims, std::size_t k,
                       const double* gaps, const double* gap2) {
  double alpha = 1.0;
  for (std::size_t l = 0; l < k; ++l) {
    double dir_dot = 0.0;  // delta . (c_l - c_j)
    for (std::size_t c = 0; c < dims; ++c) {
      dir_dot += delta(c) * gaps[l * dims + c];
    }
    alpha = std::min(alpha, gap2[l] / std::max(2.0 * dir_dot, gap2[l]));
  }
  return std::clamp(alpha, 0.0, 1.0);
}

}  // namespace

double alpha_scale(std::span<const double> delta, const Matrix& centroids,
                   std::size_t j) {
  RESMON_REQUIRE(j < centroids.rows(), "alpha_scale: cluster out of range");
  RESMON_REQUIRE(delta.size() == centroids.cols(),
                 "alpha_scale: dimension mismatch");
  std::vector<double> gaps(centroids.rows() * centroids.cols());
  std::vector<double> gap2(centroids.rows());
  fill_gaps(centroids, j, gaps.data(), gap2.data());
  return alpha_from_gaps([&](std::size_t c) { return delta[c]; },
                         delta.size(), centroids.rows(), gaps.data(),
                         gap2.data());
}

OffsetTracker::OffsetTracker(std::size_t m_prime, std::size_t k,
                             bool use_alpha)
    : m_prime_(m_prime), k_(k), use_alpha_(use_alpha), ring_(m_prime + 1) {
  RESMON_REQUIRE(k >= 1, "OffsetTracker needs at least one cluster");
}

void OffsetTracker::push(const cluster::Clustering& clustering,
                         const Matrix& snapshot) {
  RESMON_REQUIRE(clustering.centroids.rows() == k_,
                 "OffsetTracker: cluster count mismatch");
  RESMON_REQUIRE(snapshot.rows() == clustering.assignment.size(),
                 "OffsetTracker: snapshot/assignment size mismatch");
  RESMON_REQUIRE(snapshot.cols() == clustering.centroids.cols(),
                 "OffsetTracker: snapshot/centroid dimension mismatch");
  if (ring_size_ > 0) {
    RESMON_REQUIRE(snapshot.rows() == entry(0).snapshot.rows(),
                   "OffsetTracker: node count changed between steps");
  }
  for (const std::size_t j : clustering.assignment) {
    RESMON_REQUIRE(j < k_, "OffsetTracker: assignment out of range");
  }
  // Rotate the ring backward and copy-assign into the evicted slot, so the
  // entry's vectors/matrices recycle their capacity (no steady-state
  // allocations).
  const std::size_t cap = ring_.size();
  ring_head_ = (ring_head_ + cap - 1) % cap;
  Entry& slot = ring_[ring_head_];
  if (ring_size_ < cap) {
    ++ring_size_;
  } else {
    count(slot.clustering.assignment, -1);  // the oldest entry leaves
  }
  if (counts_.empty()) counts_.assign(snapshot.rows() * k_, 0);
  slot.clustering.assignment = clustering.assignment;
  slot.clustering.centroids = clustering.centroids;
  slot.snapshot = snapshot;
  count(slot.clustering.assignment, +1);
  // Centroid gaps are shared by every node's alpha: compute them once per
  // entry instead of once per node.
  const std::size_t dims = snapshot.cols();
  slot.gaps.resize(k_ * k_, dims);
  slot.gap2.resize(k_ * k_);
  for (std::size_t j = 0; j < k_; ++j) {
    fill_gaps(slot.clustering.centroids, j, slot.gaps.row(j * k_).data(),
              slot.gap2.data() + j * k_);
  }
}

void OffsetTracker::count(const std::vector<std::size_t>& assignment,
                          int sign) {
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    std::uint32_t& c = counts_[i * k_ + assignment[i]];
    c = sign > 0 ? c + 1 : c - 1;
  }
}

std::size_t OffsetTracker::modal_of(std::size_t node) const {
  const std::uint32_t* counts = counts_.data() + node * k_;
  std::size_t best = 0;
  for (std::size_t j = 1; j < k_; ++j) {
    if (counts[j] > counts[best]) best = j;
  }
  return best;
}

void OffsetTracker::add_deviation(const Entry& e, std::size_t node,
                                  std::size_t j, double* acc) const {
  const std::size_t dims = e.snapshot.cols();
  const double* z = e.snapshot.row(node).data();
  const double* c_j = e.clustering.centroids.row(j).data();
  // delta = z - c_j, recomputed where it is used (same bits every time).
  const auto delta = [&](std::size_t c) { return z[c] - c_j[c]; };
  const double alpha =
      use_alpha_ ? alpha_from_gaps(delta, dims, k_, e.gaps.row(j * k_).data(),
                                   e.gap2.data() + j * k_)
                 : 1.0;
  for (std::size_t c = 0; c < dims; ++c) acc[c] += alpha * delta(c);
}

std::size_t OffsetTracker::modal_cluster(std::size_t node) const {
  if (ring_size_ == 0) {
    throw InvalidState("OffsetTracker: no steps recorded");
  }
  RESMON_REQUIRE(node < entry(0).snapshot.rows(),
                 "OffsetTracker: node out of range");
  return modal_of(node);
}

std::vector<double> OffsetTracker::offset(std::size_t node,
                                          std::size_t j) const {
  if (ring_size_ == 0) {
    throw InvalidState("OffsetTracker: no steps recorded");
  }
  RESMON_REQUIRE(j < k_, "OffsetTracker: cluster out of range");
  RESMON_REQUIRE(node < entry(0).snapshot.rows(),
                 "OffsetTracker: node out of range");
  const std::size_t dims = entry(0).snapshot.cols();
  std::vector<double> out(dims, 0.0);
  // Newest-first, matching the push order of the former deque exactly.
  for (std::size_t age = 0; age < ring_size_; ++age) {
    add_deviation(entry(age), node, j, out.data());
  }
  for (double& v : out) v /= static_cast<double>(ring_size_);
  return out;
}

void OffsetTracker::estimate_into(std::vector<std::size_t>& modal,
                                  Matrix* offsets) const {
  if (ring_size_ == 0) {
    throw InvalidState("OffsetTracker: no steps recorded");
  }
  const std::size_t n = entry(0).snapshot.rows();
  const std::size_t dims = entry(0).snapshot.cols();
  modal.resize(n);
  for (std::size_t i = 0; i < n; ++i) modal[i] = modal_of(i);
  if (offsets == nullptr) return;

  offsets->resize(n, dims);
  // Entry-major walk over the contiguous snapshot rows; every node still
  // accumulates its terms newest-first, exactly as offset() does.
  for (std::size_t age = 0; age < ring_size_; ++age) {
    const Entry& e = entry(age);
    for (std::size_t i = 0; i < n; ++i) {
      add_deviation(e, i, modal[i], offsets->row(i).data());
    }
  }
  for (double& v : offsets->data()) v /= static_cast<double>(ring_size_);
}

}  // namespace resmon::core
