// Shared pieces of the repo benchmark (perfbench): the wall clock, the
// metric record every workload fills, and the benchmark's own arithmetic
// (medians, sample percentiles, the ledger residual, the failure share).
// The arithmetic is header-only so tests/selftest.cpp checks exactly what
// the workloads use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end set for
/// an untraced run and the per-layer set for a traced run.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< lost/refused/rejected + check violations
  std::vector<Metric> metrics;
  /// Human-readable reasons for every check violation (printed to stderr).
  std::vector<std::string> violations;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed output check; each one counts as a failed operation.
  void violate(const std::string& what) {
    violations.push_back(what);
    ++failed;
  }
};

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median over `items` of fn(item).
template <typename Items, typename Fn>
double median_of(const Items& items, Fn fn) {
  std::vector<double> v;
  for (const auto& item : items) v.push_back(fn(item));
  return median(std::move(v));
}

/// num / den, or 0 when den is 0.
inline double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Nearest-rank percentile of raw samples: the smallest sample with at
/// least q of all samples at or below it. Reorders `s`; 0 when empty.
inline std::uint64_t sample_percentile(std::vector<std::uint32_t>& s,
                                       double q) {
  if (s.empty()) return 0;
  const double n = static_cast<double>(s.size());
  std::size_t rank = static_cast<std::size_t>(q * n);
  if (static_cast<double>(rank) < q * n) ++rank;  // ceil(q * n)
  if (rank == 0) rank = 1;
  if (rank > s.size()) rank = s.size();
  std::nth_element(s.begin(), s.begin() + static_cast<long>(rank - 1),
                   s.end());
  return s[rank - 1];
}

/// Share of the traced wall time that no layer span accounts for:
/// 1 - sum(self times) / wall. Negative if the spans overlap (a ledger
/// bug the traced run reports as a violation).
inline double residual_frac(double wall_ns,
                            const std::vector<double>& self_ns) {
  if (wall_ns <= 0) return 0;
  double sum = 0;
  for (double s : self_ns) sum += s;
  return 1.0 - sum / wall_ns;
}

/// The traced run fails if the layer spans leave more than this share of
/// the traced wall time unaccounted for, or overlap.
constexpr double kResidualBound = 0.10;

inline void check_residual(Result& res, double residual) {
  if (!(residual >= 0 && residual <= kResidualBound))
    res.violate("ledger.residual_frac " + std::to_string(residual) +
                " outside [0, " + std::to_string(kResidualBound) + "]");
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
inline double fail_frac(std::uint64_t attempted, std::uint64_t failed) {
  return ratio(failed, attempted);
}

/// Peak resident set of this process, in MB.
double peak_rss_mb();

// Workload entry points (sim_workload.cpp, threaded_workload.cpp).
Result run_sim(const Options& opt);
Result run_threaded(const Options& opt);

}  // namespace perfbench
