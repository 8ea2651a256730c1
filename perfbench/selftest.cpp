// Self-tests of the slot benchmark's helpers (slot_stats.hpp). Exits 0 when
// every check passes; run by perfbench/test_perfbench.py.
#include <cstdio>
#include <vector>

#include "slot_stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void test_percentile_rule() {
  using perfbench::highest_valid_percentile;
  using perfbench::samples_beyond;
  check(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  check(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  check(samples_beyond(100, 0.5) == 50, "100 samples leave 50 beyond p50");
  check(samples_beyond(5, 1.0) == 0, "nothing lies beyond p100");
  check(highest_valid_percentile(1000) == 0.99, "p99 at 1000 slots");
  check(highest_valid_percentile(999) == 0.9, "p90 below 1000 slots");
  check(highest_valid_percentile(10000) == 0.999, "p99.9 at 10000 slots");
  check(highest_valid_percentile(19) == 0.0, "no percentile at 19 samples");
  check(highest_valid_percentile(20) == 0.5, "median at 20 samples");
  check(highest_valid_percentile(5, 1) == 0.5, "min_beyond is honoured");

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  check(perfbench::percentile(v, 0.5) == 500.0, "nearest-rank median");
  check(perfbench::percentile(v, 0.99) == 990.0, "nearest-rank p99");
  check(perfbench::percentile({7.0}, 0.99) == 7.0, "single sample");
  check(perfbench::percentile({}, 0.5) == 0.0, "empty input");
}

void test_rolling_median() {
  const std::vector<double> v = {1, 1, 50, 1, 1, 2, 2, 2};
  const std::vector<double> m = perfbench::rolling_median(v, 1);
  check(m.size() == v.size(), "one level per sample");
  check(m[2] == 1.0, "a lone spike does not move the level");
  check(m[0] == 1.0 && m[7] == 2.0, "windows are clipped at the ends");
  check(perfbench::rolling_median({}, 3).empty(), "empty series");
}

void test_self_time() {
  using perfbench::Interval;
  using perfbench::self_time;
  check(self_time({0, 100}, {}) == 100, "leaf span is all self time");
  check(self_time({0, 100}, {{10, 30}, {50, 60}}) == 70,
        "disjoint children are subtracted");
  check(self_time({0, 100}, {{50, 60}, {10, 30}}) == 70,
        "child order does not matter");
  check(self_time({0, 100}, {{10, 40}, {20, 50}}) == 60,
        "overlapping children count once");
  check(self_time({0, 100}, {{10, 50}, {20, 30}}) == 60,
        "nested children count once");
  check(self_time({0, 100}, {{-10, 20}, {90, 120}}) == 70,
        "children are clipped to the parent");
  check(self_time({0, 100}, {{200, 300}}) == 100,
        "children outside the parent are ignored");
  check(self_time({0, 100}, {{0, 100}}) == 0, "fully covered parent");
}

void test_digest() {
  const std::vector<double> a = {0.25, -0.0, 1e-300};
  const std::vector<double> b = {0.25, 0.0, 1e-300};
  const std::uint64_t da = perfbench::fold_digest(perfbench::kDigestSeed, a);
  check(da == perfbench::fold_digest(perfbench::kDigestSeed, a),
        "digest is deterministic");
  check(da != perfbench::fold_digest(perfbench::kDigestSeed, b),
        "digest sees the sign bit of zero");
  check(perfbench::fold_digest(perfbench::fold_digest(perfbench::kDigestSeed,
                                                      {a.data(), 1}),
                               {a.data() + 1, 2}) == da,
        "digest folds across chunks");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_rolling_median();
  test_self_time();
  test_digest();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
