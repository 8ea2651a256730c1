// Pure helpers of the slot benchmark: percentiles under the "ten samples
// beyond" rule, span self time, and the forecast digest. Header-only and
// free of resmon dependencies so perfbench_selftest can check them alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that lie strictly beyond the nearest-rank q-quantile of n
/// samples: the rank is ceil(q * n), so n - ceil(q * n) samples follow it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, rank);
}

/// The highest of the reported percentiles (p99.9, p99, p90, p50) that
/// keeps at least `min_beyond` samples beyond it; 0 when even the median
/// does not.
inline double highest_valid_percentile(std::size_t n,
                                       std::size_t min_beyond = 10) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (samples_beyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

/// Nearest-rank q-quantile of `values` (copied and sorted). Empty input
/// yields 0.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank = n - samples_beyond(n, q);
  return values[rank == 0 ? 0 : rank - 1];
}

/// Median of each window [i - half_width, i + half_width] of `values`
/// (clipped at the ends): a spike-proof local level of a time series.
inline std::vector<double> rolling_median(const std::vector<double>& values,
                                          std::size_t half_width) {
  std::vector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t lo = i > half_width ? i - half_width : 0;
    const std::size_t hi = std::min(values.size(), i + half_width + 1);
    out[i] = percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(lo),
                            values.begin() + static_cast<std::ptrdiff_t>(hi)),
        0.5);
  }
  return out;
}

/// Half-open time interval [begin, end) in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// A span's self time: its duration minus the part of it that the union of
/// its children's intervals covers. Children may overlap each other (two
/// pool workers) or stick out of the parent (clock skew between recorders);
/// only the covered part of the parent is subtracted.
inline std::int64_t self_time(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::int64_t covered = 0;
  std::int64_t reach = parent.begin;  // end of the union so far
  for (const Interval& c : children) {
    const std::int64_t b = std::max(c.begin, reach);
    const std::int64_t e = std::min(c.end, parent.end);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return (parent.end - parent.begin) - covered;
}

/// FNV-1a style fold of the IEEE-754 bit patterns of a run of doubles, one
/// 64-bit word per step, chained through `hash` so a whole run's forecasts
/// fold into one value.
inline std::uint64_t fold_digest(std::uint64_t hash,
                                 std::span<const double> values) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    hash = (hash ^ bits) * 0x100000001B3ULL;
    hash ^= hash >> 29;
  }
  return hash;
}

inline constexpr std::uint64_t kDigestSeed = 0xCBF29CE484222325ULL;

}  // namespace perfbench
