// Per-node spatial estimation pieces of §V-C, shared between the
// MonitoringPipeline and the clustering-baseline experiments:
//
//  * forecasted cluster membership — the cluster a node belonged to most
//    often within the last M'+1 steps;
//  * the per-node offset s-hat of eq. (12), with the alpha scaling that
//    keeps "centroid + offset" inside the node's own cluster.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/dynamic_cluster.hpp"
#include "common/matrix.hpp"

namespace resmon::core {

/// Largest alpha in [0, 1] such that c_j + alpha * delta is still closest
/// to centroid j among all centroids. For each other centroid c_l the
/// boundary is the perpendicular bisector between c_j and c_l, giving
/// alpha <= ||c_l - c_j||^2 / (2 delta . (c_l - c_j)) whenever delta points
/// toward c_l.
double alpha_scale(std::span<const double> delta, const Matrix& centroids,
                   std::size_t j);

/// Rolling window of (clustering, stored-snapshot) pairs that answers the
/// two per-node questions above. Push once per time step, newest first.
/// Both questions go through one per-node kernel each (membership counts
/// kept exact by push(), and one entry's alpha-scaled deviation), shared by
/// the per-node queries and the bulk estimate_into(), so every path
/// returns bit-identical values.
class OffsetTracker {
 public:
  /// `m_prime` is M' (the paper's look-back, default 5); `k` the number of
  /// clusters. `use_alpha` applies the eq. (12) alpha scaling (disable for
  /// the ablation in bench/ablation_offset).
  OffsetTracker(std::size_t m_prime, std::size_t k, bool use_alpha = true);

  /// Record this step's clustering and the snapshot it was computed from
  /// (snapshot rows must be in the same measurement space as the
  /// clustering's centroids; every assignment must be < k).
  void push(const cluster::Clustering& clustering, const Matrix& snapshot);

  std::size_t steps() const { return ring_size_; }
  bool empty() const { return ring_size_ == 0; }

  /// C-hat membership: the cluster `node` belonged to most often over the
  /// last min(M'+1, steps()) steps (ties break to the smaller index).
  std::size_t modal_cluster(std::size_t node) const;

  /// s-hat of eq. (12) for `node` relative to cluster `j`.
  std::vector<double> offset(std::size_t node, std::size_t j) const;

  /// Bulk estimate for every node: modal[i] = modal_cluster(i) and, when
  /// `offsets` is non-null, its row i = offset(i, modal[i]) (N x dims),
  /// bit-identical to the per-node queries. Both buffers are resized in
  /// place, so a caller that reuses them allocates nothing at steady state.
  void estimate_into(std::vector<std::size_t>& modal, Matrix* offsets) const;

 private:
  struct Entry {
    cluster::Clustering clustering;
    Matrix snapshot;
    // Row j * k + l = c_l - c_j and gap2[j * k + l] = ||c_l - c_j||^2:
    // the centroid geometry alpha needs, computed once per push.
    Matrix gaps;
    std::vector<double> gap2;
  };

  /// Entry `age` steps back (0 = most recent). Requires age < steps().
  const Entry& entry(std::size_t age) const {
    return ring_[(ring_head_ + age) % ring_.size()];
  }

  /// Adds one cluster count per node for `assignment` (`sign` = +1) or
  /// removes them (`sign` = -1).
  void count(const std::vector<std::size_t>& assignment, int sign);
  /// Most frequent cluster of `node` in counts_, ties to the lower index.
  std::size_t modal_of(std::size_t node) const;
  /// Adds entry `e`'s eq. (12) term alpha * (z_node - c_j) to `acc`
  /// (dims values).
  void add_deviation(const Entry& e, std::size_t node, std::size_t j,
                     double* acc) const;

  std::size_t m_prime_;
  std::size_t k_;
  bool use_alpha_;
  // Fixed ring of the last M'+1 entries, newest at ring_head_; buffers are
  // recycled in place so push() allocates nothing at steady state.
  std::vector<Entry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  // counts_[node * k + j]: how many ring entries assign `node` to cluster j;
  // sized on the first push, updated incrementally by every push.
  std::vector<std::uint32_t> counts_;
};

}  // namespace resmon::core
