// e2ebench: one workload of the end-to-end benchmark per invocation.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   e2ebench --obs-round <seed>      (scan time of one availability round)
//
// The last output line is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
// Human-readable lines before it say what ran and what each check found.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace e2e {

namespace {
const double g_process_start = now_s();

double rusage_cpu_s(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

void print_json(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <scan-availability|scan-quality|"
               "audit-consistency|serve-ocsp> --seed <n> --seconds <s> "
               "--trace <0|1> [--no-response-cache]\n"
               "       e2ebench --obs-round <seed>\n");
  return 2;
}
}  // namespace

void Outcome::check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct = false;
}

double since_start_s() { return now_s() - g_process_start; }
double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double reference_loop_ms() {
  // 40M dependent xorshift steps: pure integer work on one core, no memory
  // traffic, so its time follows only the host's speed.
  const double t0 = now_s();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return (now_s() - t0) * 1e3;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void print_ledger(const char* workload, const Ledger& ledger) {
  const double base = ledger.cpu_s > 0 ? ledger.cpu_s : ledger.wall_s;
  std::printf("ledger %-18s e2e wall %.3f s | e2e cpu %.3f s | layer sum "
              "%.3f s | unexplained %.1f%% of cpu\n",
              workload, ledger.wall_s, ledger.cpu_s, ledger.layer_sum_s,
              100.0 * (1.0 - ledger.layer_sum_s / base));
}

void set_ledger_metrics(Outcome& out, const Ledger& ledger) {
  out.set("ledger.e2e_wall_s", ledger.wall_s, "s");
  out.set("ledger.e2e_cpu_s", ledger.cpu_s, "s");
  out.set("ledger.layer_sum_s", ledger.layer_sum_s, "s");
  out.set("ledger.unexplained_share",
          1.0 - ledger.layer_sum_s / (ledger.cpu_s > 0 ? ledger.cpu_s
                                                       : ledger.wall_s),
          "ratio");
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--obs-round" && has_value) {
      std::printf("%.9f\n", availability_round_seconds(
                                std::strtoull(argv[++i], nullptr, 10)));
      return 0;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--no-response-cache") {
      options.response_cache = false;
    } else {
      return usage();
    }
  }
  if (!have_seed || !(options.seconds > 0)) return usage();

  const std::string& w = options.workload;
  const bool known = w == "scan-availability" || w == "scan-quality" ||
                     w == "audit-consistency" || w == "serve-ocsp";
  if (!known) return usage();
  std::printf("workload %s seed %llu seconds %.1f trace %d\n", w.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  Outcome out;
  if (!options.trace) {
    if (w == "scan-availability") out = run_scan(options, false);
    if (w == "scan-quality") out = run_scan(options, true);
    if (w == "audit-consistency") out = run_audit(options);
    if (w == "serve-ocsp") out = run_serve(options);
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    // Every traced run reports every per-layer metric: each is measured in
    // its home workload, and the named workload adds its own ledger.
    Ledger ledgers[4];
    const char* names[4] = {"scan-availability", "scan-quality",
                            "audit-consistency", "serve-ocsp"};
    Outcome homes[4] = {trace_scan(options, false, ledgers[0]),
                        trace_scan(options, true, ledgers[1]),
                        trace_audit(options, ledgers[2]),
                        trace_serve(options, ledgers[3])};
    for (int h = 0; h < 4; ++h) {
      print_ledger(names[h], ledgers[h]);
      out.merge_metrics(homes[h]);
      if (w == names[h]) {
        set_ledger_metrics(out, ledgers[h]);
        out.attempted = homes[h].attempted;
        out.failed = homes[h].failed;
      }
    }
  }
  for (const Metric& m : out.metrics) {
    std::printf("metric %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
  print_json(out);
  return 0;
}
