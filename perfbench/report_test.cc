// Tests for the benchmark's percentile rule, failure accounting and result
// line. Exits non-zero on the first failed check.
//
//   python3 perfbench/run.py --self-test
#include "report.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

int g_checks = 0;

void Check(bool ok, const char* what) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  // Descending, so the percentile code must order the samples itself.
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void TestPercentileNeedsTenSamplesBeyond() {
  // p99 over 1000 samples: rank 990, ten samples above it — reported.
  const auto p99 = perfbench::TailPercentile(Ramp(1000), 0.99);
  Check(p99.reported, "p99 of 1000 samples is reported");
  Check(p99.value == 990.0, "p99 of 1..1000 is 990 (nearest rank)");
  Check(p99.beyond == 10, "p99 of 1000 samples has 10 beyond");
  Check(p99.samples == 1000, "p99 keeps its sample count");

  // p99 over 999 samples: rank ceil(989.01) = 990, nine beyond — omitted.
  const auto short_p99 = perfbench::TailPercentile(Ramp(999), 0.99);
  Check(!short_p99.reported, "p99 of 999 samples is omitted");
  Check(short_p99.beyond == 9, "p99 of 999 samples has 9 beyond");

  // p90 needs 100 samples; p50 needs 20.
  Check(perfbench::TailPercentile(Ramp(100), 0.90).reported,
        "p90 of 100 samples is reported");
  Check(!perfbench::TailPercentile(Ramp(99), 0.90).reported,
        "p90 of 99 samples is omitted");
  Check(perfbench::TailPercentile(Ramp(20), 0.50).reported,
        "p50 of 20 samples is reported");
  Check(!perfbench::TailPercentile(Ramp(19), 0.50).reported,
        "p50 of 19 samples is omitted");
  Check(!perfbench::TailPercentile({}, 0.50).reported,
        "no samples, no percentile");
}

void TestMedian() {
  Check(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Check(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
}

void TestFailureAccounting() {
  perfbench::Tally tally;
  Check(!tally.correct(), "nothing attempted is not correct");
  for (int i = 0; i < 97; ++i) tally.Record(perfbench::Outcome::kOk);
  Check(tally.correct(), "all served and matching is correct");
  tally.Record(perfbench::Outcome::kError);
  tally.Record(perfbench::Outcome::kMismatch);
  tally.Record(perfbench::Outcome::kMismatch);
  Check(tally.attempted == 100, "every outcome counts as attempted");
  Check(tally.errored == 1 && tally.mismatched == 2, "outcomes split");
  Check(tally.failed() == 3, "errors and mismatches both fail");
  Check(tally.failed_frac() == 0.03, "failed share of attempted");
  Check(!tally.correct(), "a mismatch makes the run incorrect");
}

void TestResultLine() {
  perfbench::Tally tally;
  tally.Record(perfbench::Outcome::kOk);
  tally.Record(perfbench::Outcome::kMismatch);
  const std::string line = perfbench::ResultLine(
      tally, {{"latency_p50_us", 0.1, "us"}, {"setup_s", 1.5, "s"}});
  Check(line ==
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, "
            "\"metrics\": {\"latency_p50_us\": {\"value\": 0.1, \"unit\": "
            "\"us\"}, \"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}",
        "result line shape");
  Check(perfbench::FormatNumber(1.0 / 3.0) == "0.3333333333333333",
        "numbers keep every digit");
}

}  // namespace

int main() {
  TestPercentileNeedsTenSamplesBeyond();
  TestMedian();
  TestFailureAccounting();
  TestResultLine();
  std::printf("perfbench report tests: %d checks passed\n", g_checks);
  return 0;
}
