// Statistics and result formatting for the serving benchmark: the
// percentile rule, failure accounting, and the one-line JSON result the
// benchmark prints last.
#ifndef PAWS_PERFBENCH_REPORT_H_
#define PAWS_PERFBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly above it; otherwise it says nothing about the tail.
constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  bool reported = false;
  double value = 0.0;
  size_t samples = 0;  // sample count the percentile was taken over
  size_t beyond = 0;   // samples ranked above it
};

/// Nearest-rank percentile of `values` (p in (0, 1]): the value of rank
/// ceil(p * n). Not reported when fewer than kMinSamplesBeyond samples
/// rank above it.
inline Percentile TailPercentile(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  out.beyond = n - rank;
  out.reported = out.beyond >= kMinSamplesBeyond;
  return out;
}

/// Plain median for per-layer timings and repeated set-ups (no tail rule:
/// these are centre estimates, not latency percentiles).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

/// Outcome of one attempted request.
enum class Outcome {
  kOk,        // served, and the reply equals the in-process answer
  kError,     // the call failed (transport or status frame)
  kMismatch,  // served, but the reply differs from the in-process answer
};

/// Failure accounting: every attempted request counts once; errors and
/// mismatches both count as failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t errored = 0;
  uint64_t mismatched = 0;

  void Record(Outcome outcome) {
    ++attempted;
    if (outcome == Outcome::kError) ++errored;
    if (outcome == Outcome::kMismatch) ++mismatched;
  }
  uint64_t failed() const { return errored + mismatched; }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  /// A run is correct when something was attempted and nothing failed.
  bool correct() const { return attempted > 0 && failed() == 0; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal that round-trips the double exactly.
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// The benchmark's last stdout line:
/// {"correct": ..., "attempted": N, "failed": N, "metrics": {name:
/// {"value": v, "unit": u}, ...}}. Names and units are plain identifiers,
/// so no escaping is needed.
inline std::string ResultLine(const Tally& tally,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // PAWS_PERFBENCH_REPORT_H_
