// Hot-path kernels with a runtime scalar/SIMD dispatch.
//
// Every kernel here exists in two compiled instances (see kernels.cpp): a
// plain scalar build and a SIMD build (`#pragma omp simd` loops, and 4-wide
// vector-extension lanes in lloyd_lanes, compiled with AVX2 enabled). Both
// instances perform the *same* floating-point operations on each element in
// the *same* order — vectorization only runs independent lanes (points, or
// whole point chunks) side by side — so the two paths are bitwise identical
// and both match the golden determinism traces. The bit-compatibility
// contract is spelled out in DESIGN.md ("Memory layout & SIMD kernels") and
// enforced by tests/test_kernels.cpp.
//
// Dispatch: kAuto resolves once per process to the SIMD instance when the
// CPU supports AVX2, the scalar instance otherwise. Tests pin the path with
// set_path() to compare both instances on identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace resmon::kern {

enum class Path : std::uint8_t {
  kAuto = 0,    ///< runtime CPU detection (default)
  kScalar = 1,  ///< force the scalar instance
  kSimd = 2,    ///< force the SIMD instance (requires AVX2)
};

/// True when this CPU can run the SIMD instance (AVX2).
bool simd_supported();

/// Pin the dispatch (tests/benches only; not thread-safe vs in-flight
/// kernels — set it before spinning up worker pools).
void set_path(Path path);

/// The instance kernels currently dispatch to (never kAuto).
Path active_path();

/// Lanes per SIMD vector of lloyd_lanes(). Lane counts (and lane ranges)
/// that are multiples of it run entirely in vectors; leftover lanes run one
/// at a time.
inline constexpr std::size_t kLloydLaneWidth = 4;

/// One fused Lloyd pass (assignment, inertia, per-cluster sums and counts)
/// over `lanes` chunks of `len` points, stored chunk-interleaved:
/// x[(p * d + dim) * lanes + l] is coordinate `dim` of point p of chunk l.
/// `centroids` is row-major k x d. For each chunk l in [lane_begin,
/// lane_end) — one SIMD lane per chunk, walking its points in order — it
/// writes the nearest centroid of point p to assign[p * lanes + l] (the
/// same interleaved order as x) and sets, each accumulated from 0.0 (or 0)
/// in point order:
///   inertia[l]                       sum of the squared distances,
///   counts[j * lanes + l]            points assigned to centroid j,
///   sums[(j * d + dim) * lanes + l]  sum of their coordinate `dim`.
/// Distances accumulate in dimension order and centroids are scanned in
/// index order with a strict `<`, so each chunk's results equal a per-point
/// loop over that chunk bit for bit; with lanes == 1 it *is* that loop.
/// Disjoint lane ranges write disjoint outputs and may run concurrently.
void lloyd_lanes(const double* x, std::size_t d, std::size_t lanes,
                 std::size_t len, const double* centroids, std::size_t k,
                 std::size_t lane_begin, std::size_t lane_end,
                 std::size_t* assign, double* inertia, double* sums,
                 std::uint64_t* counts);

/// k-means++ seeding distance pass over one new centroid `c` (length d):
/// dist2[i] = min(dist2[i], ||x_i - c||^2) for i in [begin, end).
void min_distance_update(const double* const* xcols, std::size_t d,
                         const double* c, std::size_t begin, std::size_t end,
                         double* dist2);

/// dst[i] = src[i] - mean for i in [0, n) (ARIMA centering).
void subtract_mean(const double* src, double mean, std::size_t n,
                   double* dst);

/// e[t] -= a * w[t - lag] for t in [lag, n). One pass of the AR-only CSS
/// residual recursion; applying passes in lag order reproduces the scalar
/// per-t accumulation order bit for bit. `e` and `w` must not alias.
void axpy_lagged(double a, const double* w, std::size_t lag, std::size_t n,
                 double* e);

/// Hungarian re-indexing history pass: clear mask[i*k + j] (i in
/// [begin, end), j in [0, k)) wherever past[i] != j. Starting from an
/// all-ones mask and applying one pass per retained clustering leaves
/// mask[i*k + j] == 1 exactly for the nodes that stayed in cluster j
/// throughout — the intersection term of eq. (10).
void history_mask(const std::size_t* past, std::size_t k, std::size_t begin,
                  std::size_t end, std::uint8_t* mask);

/// Intersection-weight accumulation of the re-indexing pass:
/// w[fresh[i]*k + j] += mask[i*k + j] (as 0.0 / 1.0) for i in [begin, end).
/// Unconditionally adding 0.0 where the mask is clear is bitwise identical
/// to the branchy scalar accumulation it replaces: w entries are
/// nonnegative counts, and x + 0.0 == x for every such x.
void similarity_accumulate(const std::size_t* fresh, const std::uint8_t* mask,
                           std::size_t k, std::size_t begin, std::size_t end,
                           double* w);

}  // namespace resmon::kern
