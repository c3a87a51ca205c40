// Shared scaffolding of the end-to-end benchmark: run options, the result
// record printed as the last output line, clocks, peak RSS, the reference
// loop, allocation counting and the per-layer call timer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool response_cache = true;  ///< serve-ocsp only; off for reference figures
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operation counts, whether every check held,
/// and the metrics in print order.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a check; a failed one prints why and marks the run incorrect.
  void check(bool ok, const std::string& what);
  /// Appends another outcome's metrics (the per-layer homes of a traced run).
  void merge_metrics(const Outcome& other) {
    metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
    correct = correct && other.correct;
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since the process started (taken at static initialisation).
double since_start_s();
/// User + system CPU seconds of the whole process.
double process_cpu_s();
/// User + system CPU seconds of the calling thread.
double thread_cpu_s();
double peak_rss_mb();

/// A fixed CPU-bound loop from the benchmark's own code. Its time, taken
/// before and after a workload, tells a slow host phase from a slow program.
double reference_loop_ms();

/// Allocation counting by the benchmark's replacement operator new: off
/// except inside time_calls, counted per thread.
void set_alloc_counting(bool on);
std::uint64_t thread_allocs();

double percentile(std::vector<double> values, double q);

/// Rounds in a run: as many identical rounds as fit in `seconds` at the
/// round's nominal time on the reference host (see README), at least one.
/// The count depends only on --seconds, so every run does the same work.
inline std::size_t planned_rounds(double seconds, double nominal_round_s) {
  const auto n = static_cast<std::size_t>(seconds / nominal_round_s);
  return n > 0 ? n : 1;
}

struct LayerCost {
  double us = 0.0;      ///< median over passes of mean µs per call
  double allocs = 0.0;  ///< allocations per call
};

/// Times `fn(i)` for i in [0, n) in `passes` passes and reports the median
/// pass's mean time per call plus allocations per call.
template <typename Fn>
LayerCost time_calls(std::size_t n, Fn&& fn, int passes = 3) {
  std::vector<double> per_call;
  std::uint64_t allocs = 0;
  for (int p = 0; p < passes; ++p) {
    set_alloc_counting(true);
    const std::uint64_t a0 = thread_allocs();
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    const double t1 = now_s();
    allocs = thread_allocs() - a0;
    set_alloc_counting(false);
    per_call.push_back((t1 - t0) * 1e6 / static_cast<double>(n));
  }
  return {percentile(per_call, 0.5),
          static_cast<double>(allocs) / static_cast<double>(n)};
}

/// One traced ledger: end-to-end time of a round beside the sum of per-call
/// layer time × calls made in it.
struct Ledger {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU of the program's threads during the round
  double layer_sum_s = 0.0;
};
void print_ledger(const char* workload, const Ledger& ledger);
void set_ledger_metrics(Outcome& out, const Ledger& ledger);

// Workloads. run_* measure end to end; trace_* give the per-layer metrics
// homed in that workload and its ledger.
Outcome run_scan(const Options& options, bool quality);
Outcome run_audit(const Options& options);
Outcome run_serve(const Options& options);
Outcome trace_scan(const Options& options, bool quality, Ledger& ledger);
Outcome trace_audit(const Options& options, Ledger& ledger);
Outcome trace_serve(const Options& options, Ledger& ledger);
/// Scan time of one scan-availability round, for the obs on/off ratio.
double availability_round_seconds(std::uint64_t seed);

}  // namespace e2e
