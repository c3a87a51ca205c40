// scan-availability and scan-quality: HourlyScanner::run campaigns over the
// paper ecosystem (536 responders, 6 vantage points).
//
// A run repeats identical rounds, each a fresh ecosystem plus one campaign
// of fixed length, as many as fit in --seconds at the round's nominal time.
// Rounds are short so the run spans several host phases; the rate is the
// whole run's probes over its whole scan time. Only the ecosystem of the
// first round is set-up time; later rebuilds are outside every metric.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "crypto/sha256.hpp"
#include "lint/lint.hpp"
#include "measurement/ecosystem.hpp"
#include "measurement/scanner.hpp"
#include "ocsp/request.hpp"
#include "ocsp/verify.hpp"

namespace e2e {

namespace {

using namespace mustaple;

// Fig 3 campaign: 1 certificate per responder, 2 h cadence, validation off,
// 1 scan thread. A round is its first week (84 steps, ~270k probes).
constexpr std::size_t kAvailabilitySteps = 84;
constexpr double kAvailabilityRoundS = 2.6;  // nominal, reference host
// Figs 5-9 campaign: 3 certificates per responder, 6 h cadence, validation
// and lint on, 2 scan threads. A round is its first week (28 steps).
constexpr std::size_t kQualitySteps = 28;
constexpr std::size_t kQualityThreads = 2;
constexpr double kQualityRoundS = 2.2;  // nominal, reference host
// Steps of the 1-thread vs 2-thread prefix comparison (DESIGN.md §7).
constexpr std::size_t kPrefixSteps = 4;
// (target, region) pairs replayed per layer in a traced run.
constexpr std::size_t kLayerSample = 2000;

struct Spec {
  measurement::EcosystemConfig eco;
  measurement::ScanConfig scan;
};

Spec make_spec(std::uint64_t seed, bool quality) {
  Spec s;
  s.eco.seed = seed;
  s.eco.responder_count = 536;
  s.eco.alexa_domains = 100'000;
  s.eco.certs_per_responder = quality ? 3 : 1;
  s.eco.campaign_start = util::make_time(2018, 4, 25);
  s.eco.campaign_end = util::make_time(2018, 9, 4);
  s.scan.interval = util::Duration::hours(quality ? 6 : 2);
  s.scan.max_steps = quality ? kQualitySteps : kAvailabilitySteps;
  s.scan.validate_responses = quality;
  s.scan.lint_responses = quality;
  s.scan.threads = quality ? kQualityThreads : 1;
  return s;
}

/// One campaign: its own event loop, ecosystem and scanner.
struct Round {
  explicit Round(const Spec& spec)
      : loop(spec.eco.campaign_start - util::Duration::days(1)),
        ecosystem(spec.eco, loop),
        scanner(ecosystem, spec.scan) {}
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  /// Runs the campaign; returns its wall seconds.
  double run() {
    const double t0 = now_s();
    scanner.run();
    return now_s() - t0;
  }

  std::size_t probes() const {
    std::size_t n = 0;
    for (const auto& step : scanner.steps()) {
      for (const std::size_t r : step.requests) n += r;
    }
    return n;
  }

  net::EventLoop loop;
  measurement::Ecosystem ecosystem;
  measurement::HourlyScanner scanner;
};

std::vector<std::size_t> fingerprint(
    const std::vector<measurement::StepTotals>& steps, std::size_t count) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count && i < steps.size(); ++i) {
    const auto& s = steps[i];
    out.insert(out.end(), s.requests.begin(), s.requests.end());
    out.insert(out.end(), s.successes.begin(), s.successes.end());
    out.insert(out.end(), s.domains_unable.begin(), s.domains_unable.end());
    out.push_back(s.responses_200);
    out.push_back(s.unparseable);
    out.push_back(s.serial_mismatch);
    out.push_back(s.bad_signature);
  }
  return out;
}

std::size_t ocsp_targets(const measurement::Ecosystem& eco) {
  std::size_t n = 0;
  for (const auto& t : eco.scan_targets()) {
    if (t.cert.extensions().supports_ocsp()) ++n;
  }
  return n;
}

/// Checks a finished round against the config and the scan's invariants.
void check_round(const Spec& spec, const Round& round, bool quality,
                 Outcome& out) {
  const auto& scanner = round.scanner;
  const std::size_t responders = scanner.responder_count();
  bool conserved = true;
  std::size_t requests = 0;
  for (std::size_t r = 0; r < responders; ++r) {
    for (const net::Region g : net::all_regions()) {
      const auto& s = scanner.stats(r, g);
      conserved = conserved && s.http_successes + s.dns_failures +
                                       s.tcp_failures + s.http_errors +
                                       s.tls_failures ==
                                   s.requests;
      requests += s.requests;
    }
  }
  out.check(conserved,
            "per (responder, region): successes + DNS + TCP + HTTP + TLS "
            "failures == requests");
  const std::size_t window_steps = static_cast<std::size_t>(
      (spec.eco.campaign_end - spec.eco.campaign_start).seconds /
      spec.scan.interval.seconds);
  const std::size_t steps = std::min(spec.scan.max_steps, window_steps + 1);
  const std::size_t expected =
      steps * ocsp_targets(round.ecosystem) * net::kRegionCount;
  out.check(requests == expected && round.probes() == expected,
            "probes " + std::to_string(requests) + " == steps x targets x 6 = " +
                std::to_string(expected));
  if (!quality) {
    // Fig 3: 1.7% average failure rate over the campaign. The first week
    // holds the Apr 25 Comodo outage, so the band is wide but excludes a
    // fault plan that is off (0%) or a network that fails wholesale.
    double sum = 0.0;
    for (const net::Region g : net::all_regions()) {
      sum += scanner.failure_rate(g);
    }
    const double average = sum / static_cast<double>(net::kRegionCount);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "average failure rate %.2f%% within [0.5%%, 6%%] around "
                  "Fig 3's 1.7%%",
                  100.0 * average);
    out.check(average >= 0.005 && average <= 0.06, line);
    return;
  }
  std::size_t unparseable = 0, mismatch = 0, bad_sig = 0;
  for (const auto& s : scanner.steps()) {
    unparseable += s.unparseable;
    mismatch += s.serial_mismatch;
    bad_sig += s.bad_signature;
  }
  const auto& lint = scanner.lint_report();
  out.check(lint.count("e_ocsp_unparseable") == unparseable &&
                lint.count("e_ocsp_serial_mismatch") == mismatch &&
                lint.count("e_ocsp_bad_signature") == bad_sig,
            "lint unparseable/serial-mismatch/bad-signature " +
                std::to_string(unparseable) + "/" + std::to_string(mismatch) +
                "/" + std::to_string(bad_sig) + " == validator StepTotals");
}

/// DESIGN.md §7: a 2-thread prefix of the campaign equals a 1-thread one
/// (step totals and lint counts), and both equal the round's first steps.
void check_thread_invariance(const Spec& spec, const Round& round,
                             Outcome& out) {
  Spec prefix = spec;
  prefix.scan.max_steps = kPrefixSteps;
  prefix.scan.threads = 1;
  Round one(prefix);
  one.run();
  prefix.scan.threads = kQualityThreads;
  Round two(prefix);
  two.run();
  const auto f1 = fingerprint(one.scanner.steps(), kPrefixSteps);
  out.check(f1 == fingerprint(two.scanner.steps(), kPrefixSteps) &&
                one.scanner.lint_report().by_rule() ==
                    two.scanner.lint_report().by_rule(),
            "step totals and lint counts of a " + std::to_string(kPrefixSteps) +
                "-step prefix equal at 1 and 2 threads");
  out.check(f1 == fingerprint(round.scanner.steps(), kPrefixSteps),
            "prefix step totals equal the round's first steps");
}

struct Sample {
  std::size_t target = 0;  ///< index into Ecosystem::scan_targets()
  net::Region region = net::Region::kVirginia;
  ocsp::CertId id;
  net::Url url;
  util::Bytes request_der;
};

/// A deterministic sample of the round's own (target, region) probes.
std::vector<Sample> sample_probes(std::uint64_t seed, Round& round) {
  const auto& targets = round.ecosystem.scan_targets();
  std::vector<std::size_t> usable;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i].cert.extensions().supports_ocsp()) usable.push_back(i);
  }
  util::Rng rng(seed ^ 0x5ca1ab1eULL);
  const auto regions = net::all_regions();
  std::vector<Sample> out;
  for (std::size_t k = 0; k < kLayerSample; ++k) {
    Sample s;
    s.target = usable[rng.uniform(usable.size())];
    s.region = regions[rng.uniform(regions.size())];
    const auto& t = targets[s.target];
    s.id = ocsp::CertId::for_certificate(
        t.cert, round.ecosystem.authority(t.ca_index).intermediate_cert());
    s.url = net::parse_url(t.cert.extensions().ocsp_urls.front()).value();
    s.request_der = ocsp::OcspRequest::single(s.id).encode_der();
    out.push_back(std::move(s));
  }
  return out;
}

net::HttpRequest probe_request(const Sample& s) {
  net::HttpRequest request;
  request.method = "POST";
  request.body = s.request_der;
  request.headers.set("content-type", "application/ocsp-request");
  return request;
}

}  // namespace

Outcome run_scan(const Options& options, bool quality) {
  Outcome out;
  const Spec spec = make_spec(options.seed, quality);
  auto round = std::make_unique<Round>(spec);
  const double setup = since_start_s();
  std::printf("setup %.3f s: ecosystem of %zu targets, %zu steps per round\n",
              setup, ocsp_targets(round->ecosystem), spec.scan.max_steps);
  const double ref_before = reference_loop_ms();

  const std::size_t planned = planned_rounds(
      options.seconds, quality ? kQualityRoundS : kAvailabilityRoundS);
  double scan_seconds = 0.0;
  std::size_t probes = 0;
  std::vector<std::size_t> first_fingerprint;
  for (std::size_t rounds = 1;; ++rounds) {
    scan_seconds += round->run();
    probes += round->probes();
    const auto print =
        fingerprint(round->scanner.steps(), round->scanner.steps().size());
    if (rounds == 1) {
      check_round(spec, *round, quality, out);
      first_fingerprint = print;
    } else if (print != first_fingerprint) {
      out.check(false, "round " + std::to_string(rounds) +
                           " step totals equal round 1's");
    }
    if (rounds == planned) break;
    round.reset();
    round = std::make_unique<Round>(spec);
  }
  const double ref_after = reference_loop_ms();
  if (quality) check_thread_invariance(spec, *round, out);

  std::printf("rounds %zu, probes %zu, scan time %.3f s\n", planned, probes,
              scan_seconds);
  std::printf("reference_loop_ms before %.2f after %.2f\n", ref_before,
              ref_after);
  out.attempted = probes;
  out.set("ops_per_s", static_cast<double>(probes) / scan_seconds, "1/s");
  out.set("setup_s", setup, "s");
  return out;
}

double availability_round_seconds(std::uint64_t seed) {
  Round round(make_spec(seed, false));
  return round.run();
}

Outcome trace_scan(const Options& options, bool quality, Ledger& ledger) {
  Outcome out;
  const Spec spec = make_spec(options.seed, quality);
  if (!quality) {
    std::vector<double> builds;
    for (int i = 0; i < 3; ++i) {
      const double t0 = now_s();
      net::EventLoop loop(spec.eco.campaign_start);
      measurement::Ecosystem eco(spec.eco, loop);
      builds.push_back(now_s() - t0);
    }
    out.set("measurement.ecosystem_build_s", percentile(builds, 0.5), "s");
  }

  Round round(spec);
  const double cpu0 = process_cpu_s();
  ledger.wall_s = round.run();
  ledger.cpu_s = process_cpu_s() - cpu0;
  const std::size_t probes = round.probes();
  out.attempted = probes;
  check_round(spec, round, quality, out);

  // Replay a sample of the round's probes at the loop's final step time.
  const std::vector<Sample> sample = sample_probes(options.seed, round);
  net::Network& network = round.ecosystem.network();
  const util::SimTime now = network.now();
  std::vector<util::Bytes> bodies(sample.size());
  const LayerCost probe = time_calls(sample.size(), [&](std::size_t i) {
    net::FetchResult result = network.http_request_probe(
        sample[i].region, sample[i].url, probe_request(sample[i]),
        (std::uint64_t{1} << 40) + i);
    if (result.success()) bodies[i] = std::move(result.response.body);
  });
  ledger.layer_sum_s = probe.us * 1e-6 * static_cast<double>(probes);

  if (!quality) {
    const LayerCost handle = time_calls(sample.size(), [&](std::size_t i) {
      const Sample& s = sample[i];
      net::HttpRequest request = probe_request(s);
      request.path = s.url.path;
      request.headers.set("host", s.url.host);
      const auto& t = round.ecosystem.scan_targets()[s.target];
      round.ecosystem.responder(t.responder_index).handle(request, now, s.region);
    });
    out.set("net.probe_us", probe.us, "us");
    out.set("net.probe_allocs", probe.allocs, "count");
    out.set("ca.handle_us", handle.us, "us");
    out.set("ca.handle_allocs", handle.allocs, "count");
    return out;
  }

  // Quality layers run on the sample's HTTP-200 bodies.
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    if (!bodies[i].empty()) ok.push_back(i);
  }
  const auto target_of = [&](std::size_t k) -> const measurement::ScanTarget& {
    return round.ecosystem.scan_targets()[sample[ok[k]].target];
  };
  const auto issuer_of = [&](std::size_t k) -> const x509::Certificate& {
    return round.ecosystem.authority(target_of(k).ca_index).intermediate_cert();
  };
  const LayerCost sha = time_calls(ok.size(), [&](std::size_t k) {
    crypto::Sha256::hash(bodies[ok[k]]);
  });
  const LayerCost verify = time_calls(ok.size(), [&](std::size_t k) {
    ocsp::verify_ocsp_response_static(bodies[ok[k]], sample[ok[k]].id,
                                      issuer_of(k).public_key());
  });
  const LayerCost lint = time_calls(ok.size(), [&](std::size_t k) {
    lint::Context ctx;
    ctx.issuer = &issuer_of(k);
    ctx.requested_serial = sample[ok[k]].id.serial;
    const lint::Artifact artifact = lint::Artifact::ocsp_response(
        round.ecosystem.responders()[target_of(k).responder_index].host,
        bodies[ok[k]], ctx);
    lint::lint_artifact(lint::RuleRegistry::builtin(), artifact);
  });
  const auto vstats = round.scanner.validation_cache_stats();
  const auto lstats = round.scanner.lint_cache_stats();
  std::size_t responses_200 = 0;
  for (const auto& s : round.scanner.steps()) responses_200 += s.responses_200;
  ledger.layer_sum_s +=
      1e-6 * (sha.us * 2.0 * static_cast<double>(responses_200) +
              verify.us * static_cast<double>(vstats.misses) +
              lint.us * static_cast<double>(lstats.misses));
  out.set("ocsp.verify_static_us", verify.us, "us");
  out.set("ocsp.verify_static_allocs", verify.allocs, "count");
  out.set("lint.ocsp_response_us", lint.us, "us");
  out.set("crypto.sha256_body_us", sha.us, "us");
  out.set("util.validation_cache.hit_ratio",
          static_cast<double>(vstats.hits) /
              static_cast<double>(std::max<std::uint64_t>(1, vstats.lookups)),
          "ratio");
  out.set("util.lint_cache.hit_ratio",
          static_cast<double>(lstats.hits) /
              static_cast<double>(std::max<std::uint64_t>(1, lstats.lookups)),
          "ratio");
  return out;
}

}  // namespace e2e
