// Output side of the benchmark: summary statistics, metric records, the
// result line, and the provenance every result carries.
//
// The binary prints JSON lines on stdout. Every line but the last is a
// note ({"provenance": ...}, {"detail": ...}, {"note": ...}); the last is
// the result object {"correct", "attempted", "failed", "metrics"} that
// run.py checks against BENCHMARK.json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A timing's tail: the highest percentile that still has at least ten
/// samples beyond it (nearest rank over the sorted samples), reported
/// with the percentile, the count beyond it, and the sample count.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

inline constexpr std::size_t kTailBeyond = 10;

/// nullopt when there are fewer than kTailBeyond + 1 samples.
std::optional<Tail> tail_percentile(std::vector<double> samples);

/// Nearest-rank median (the lower middle for an even count); 0 for none.
double median(std::vector<double> samples);

/// Metric names are [A-Za-z0-9_.-], start with a letter or digit, and are
/// at most 64 characters long.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Collects metrics in emission order; rejects malformed or repeated
/// names by throwing std::logic_error (a benchmark bug, not a result).
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string json_escape(std::string_view s);

/// A double with every significant digit, or null when it is not finite.
std::string json_number(double v);

/// {"name": {"value": v, "unit": u}, ...} in emission order.
std::string metrics_json(const MetricSet& metrics);

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics);

/// Build type, sanitizer, compiler, CPU model, nproc, jobs and seed, as
/// one JSON object. Results from different hosts must not be compared;
/// this object is how a reader tells them apart.
std::string provenance_json(const std::string& workload, std::uint64_t seed,
                            std::size_t jobs, bool traced);

/// Name of the sanitizer this binary was compiled with, or "" for none.
std::string_view sanitizer_name();

/// Peak resident set size of this process (getrusage ru_maxrss), in MiB.
double peak_rss_mib();

}  // namespace perfbench
