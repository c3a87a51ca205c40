// audit-consistency: ConsistencyAudit::run (paper §5.4, Table 1, Fig 10) on
// the paper ecosystem with 50,000 revoked certificates, which makes one
// audit last about ten seconds here. It is the only workload that downloads,
// parses and searches CRLs, issues and revokes at CAs, and runs the
// CRL<->OCSP pair-lint rules; the per-target CRL search is linear, so the
// audit's cost grows with targets x CRL entries.
//
// The ecosystem is the paper world of seed 2018 in every run; --seed draws
// the revoked population (which CA, reason codes, time skews). A seed-drawn
// world would move whole CAs' responders in and out of reach, and with them
// the audit's work by up to 2x. Rounds (a fresh ecosystem plus one audit
// each) repeat as many times as fit in --seconds at the nominal round time.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hpp"
#include "crl/crl.hpp"
#include "lint/lint.hpp"
#include "measurement/consistency.hpp"
#include "measurement/ecosystem.hpp"
#include "ocsp/request.hpp"
#include "ocsp/verify.hpp"

namespace e2e {

namespace {

using namespace mustaple;

constexpr std::size_t kRevokedPopulation = 50'000;
constexpr std::uint64_t kWorldSeed = 2018;
constexpr double kAuditRoundS = 10.0;  // nominal, reference host
constexpr std::size_t kLayerSample = 2000;
constexpr std::size_t kIssueSample = 500;

// The seven Table-1 responders of the paper; each one present in the
// ecosystem must show up as a discrepancy row.
const char* const kTable1Hosts[] = {
    "ocsp.camerfirma.com",       "ocsp.quovadisglobal.com",
    "ocsp.startssl.com",         "ss.symcd.com",
    "twcasslocsp.twca.com.tw",   "ocsp2.globalsign.com",
    "ocsp.firmaprofesional.com",
};

measurement::EcosystemConfig make_ecosystem_config() {
  measurement::EcosystemConfig c;
  c.seed = kWorldSeed;
  c.responder_count = 536;
  c.alexa_domains = 100'000;
  c.certs_per_responder = 3;
  return c;
}

struct Round {
  explicit Round(std::uint64_t seed)
      : loop(make_ecosystem_config().campaign_start - util::Duration::days(1)),
        ecosystem(make_ecosystem_config(), loop),
        audit(ecosystem, config()),
        rng(seed ^ 0x7ab1eULL) {}
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  static measurement::ConsistencyConfig config() {
    measurement::ConsistencyConfig c;
    c.revoked_population = kRevokedPopulation;
    return c;
  }

  /// Runs the audit; returns its wall seconds.
  double run() {
    const double t0 = now_s();
    report = audit.run(rng);
    return now_s() - t0;
  }

  net::EventLoop loop;
  measurement::Ecosystem ecosystem;
  measurement::ConsistencyAudit audit;
  util::Rng rng;
  measurement::ConsistencyReport report;
};

std::vector<std::size_t> fingerprint(const measurement::ConsistencyReport& r) {
  std::vector<std::size_t> out = {r.probed,         r.responses_collected,
                                  r.crls_downloaded, r.time_compared,
                                  r.time_differing, r.time_negative,
                                  r.reason_compared, r.reason_differing,
                                  r.reason_crl_only};
  for (const auto& row : r.table1) {
    out.push_back(row.answered_unknown);
    out.push_back(row.answered_good);
    out.push_back(row.answered_revoked);
  }
  for (const auto& [rule, count] : r.lint.by_rule()) {
    out.push_back(static_cast<std::size_t>(count));
  }
  return out;
}

void check_report(Round& round, Outcome& out) {
  const measurement::ConsistencyReport& r = round.report;
  out.check(r.probed == kRevokedPopulation,
            "audited " + std::to_string(r.probed) + " == revoked population " +
                std::to_string(kRevokedPopulation));
  std::size_t good = 0, unknown = 0;
  for (const auto& row : r.table1) {
    good += row.answered_good;
    unknown += row.answered_unknown;
  }
  out.check(r.lint.count("e_xcheck_crl_revoked_ocsp_good") == good &&
                r.lint.count("e_xcheck_crl_revoked_ocsp_unknown") == unknown,
            "pair-lint good/unknown " + std::to_string(good) + "/" +
                std::to_string(unknown) + " == Table-1 columns");
  out.check(r.lint.count("w_xcheck_revocation_time_differs") ==
                r.time_differing,
            "w_xcheck_revocation_time_differs == time_differing " +
                std::to_string(r.time_differing));
  out.check(r.lint.count("w_xcheck_reason_code_differs") == r.reason_differing,
            "w_xcheck_reason_code_differs == reason_differing " +
                std::to_string(r.reason_differing));
  // Each revocation carries a reason (which OCSP then drops) with p = 0.15,
  // so the differing share is binomial: allow five standard deviations.
  const double n = static_cast<double>(r.reason_compared);
  const double share = n > 0 ? static_cast<double>(r.reason_differing) / n : 0;
  const double band = 5.0 * std::sqrt(0.15 * 0.85 / std::max(n, 1.0));
  char line[160];
  std::snprintf(line, sizeof(line),
                "reason-differing share %.4f within 0.15 +- %.4f (n = %.0f)",
                share, band, n);
  out.check(n > 0 && std::fabs(share - 0.15) <= band, line);
  // Present: in the ecosystem and answering HTTP 200 from the audit's
  // vantage point (an empty POST draws a malformedRequest answer).
  std::size_t present = 0;
  bool all_rows = true;
  for (const char* host : kTable1Hosts) {
    bool in_ecosystem = false;
    for (const auto& info : round.ecosystem.responders()) {
      in_ecosystem = in_ecosystem || info.host == host;
    }
    if (!in_ecosystem) continue;
    const auto url = net::parse_url(std::string("http://") + host + "/");
    if (!round.ecosystem.network()
             .http_post(net::Region::kVirginia, url.value(), {},
                        "application/ocsp-request")
             .success()) {
      std::printf("Table-1 responder %s unreachable at audit time\n", host);
      continue;
    }
    ++present;
    bool row = false;
    for (const auto& t : r.table1) row = row || t.ocsp_url == host;
    if (!row) {
      all_rows = false;
      std::printf("missing Table-1 row for %s\n", host);
    }
  }
  out.check(all_rows, "all " + std::to_string(present) +
                          " present Table-1 responders are discrepancy rows");
}

}  // namespace

Outcome run_audit(const Options& options) {
  Outcome out;
  auto round = std::make_unique<Round>(options.seed);
  const double setup = since_start_s();
  std::printf("setup %.3f s: ecosystem built, %zu revocations per round\n",
              setup, kRevokedPopulation);
  const double ref_before = reference_loop_ms();

  const std::size_t planned = planned_rounds(options.seconds, kAuditRoundS);
  double audit_seconds = 0.0;
  std::size_t audited = 0;
  std::vector<std::size_t> first;
  for (std::size_t rounds = 1;; ++rounds) {
    audit_seconds += round->run();
    audited += round->report.probed;
    if (rounds == 1) {
      check_report(*round, out);
      first = fingerprint(round->report);
    } else if (fingerprint(round->report) != first) {
      out.check(false, "round " + std::to_string(rounds) +
                           " report equals round 1's");
    }
    if (rounds == planned) break;
    round.reset();
    round = std::make_unique<Round>(options.seed);
  }
  const double ref_after = reference_loop_ms();
  std::printf("rounds %zu, audited %zu, audit time %.3f s, CRLs %zu, "
              "collected %zu, Table-1 rows %zu\n",
              planned, audited, audit_seconds,
              round->report.crls_downloaded, round->report.responses_collected,
              round->report.table1.size());
  std::printf("reference_loop_ms before %.2f after %.2f\n", ref_before,
              ref_after);
  out.attempted = audited;
  out.set("ops_per_s", static_cast<double>(audited) / audit_seconds, "1/s");
  out.set("setup_s", setup, "s");
  return out;
}

Outcome trace_audit(const Options& options, Ledger& ledger) {
  Outcome out;
  Round round(options.seed);
  const double cpu0 = process_cpu_s();
  ledger.wall_s = round.run();
  ledger.cpu_s = process_cpu_s() - cpu0;
  out.attempted = round.report.probed;
  check_report(round, out);

  // The audit's own CRLs, fetched again as it fetched them.
  measurement::Ecosystem& eco = round.ecosystem;
  net::Network& network = eco.network();
  const net::Region from = net::Region::kVirginia;
  std::vector<util::Bytes> crl_bodies;
  std::vector<std::size_t> crl_cas;
  std::vector<crl::Crl> crls;
  for (std::size_t ca = 0; ca < eco.authority_count(); ++ca) {
    auto url = net::parse_url(eco.crl_server(ca).url());
    if (!url.ok()) continue;
    net::FetchResult result = network.http_get(from, url.value());
    if (!result.success()) continue;
    auto parsed = crl::Crl::parse(result.response.body);
    if (!parsed.ok()) continue;
    crls.push_back(std::move(parsed).take());
    crl_bodies.push_back(std::move(result.response.body));
    crl_cas.push_back(ca);
  }
  const LayerCost parse = time_calls(crl_bodies.size(), [&](std::size_t i) {
    crl::Crl::parse(crl_bodies[i]);
  });

  // Entries sampled uniformly over all CRLs, as the audit's targets are:
  // each search runs against its own CA's CRL, at the audit's CRL sizes.
  std::vector<std::pair<std::size_t, std::size_t>> entries;  // (crl, entry)
  std::size_t total = 0;
  for (const auto& c : crls) total += c.entries().size();
  util::Rng rng(options.seed ^ 0xa0d17ULL);
  for (std::size_t k = 0; k < kLayerSample && total > 0; ++k) {
    std::size_t pick = rng.uniform(total);
    std::size_t c = 0;
    while (pick >= crls[c].entries().size()) pick -= crls[c++].entries().size();
    entries.emplace_back(c, pick);
  }
  const LayerCost find = time_calls(entries.size(), [&](std::size_t k) {
    const auto& c = crls[entries[k].first];
    c.find(c.entries()[entries[k].second].serial);
  });

  // OCSP for the sampled serials from the CA's responder.
  std::map<std::size_t, std::size_t> responder_for_ca;
  for (std::size_t r = 0; r < eco.responders().size(); ++r) {
    responder_for_ca.emplace(eco.responders()[r].ca_index, r);
  }
  std::map<std::size_t, ocsp::CertId> template_id;
  util::Rng issue_rng(options.seed ^ 0x155e0ULL);
  const util::SimTime audit_time = Round::config().audit_time;
  auto leaf = [&](std::size_t ca, std::size_t i) {
    ca::LeafRequest request;
    request.domain = "trace-" + std::to_string(i) + ".audit.example";
    request.not_before = audit_time - util::Duration::days(300);
    request.lifetime = util::Duration::days(730);
    const auto r = responder_for_ca.find(ca);
    if (r != responder_for_ca.end()) {
      request.ocsp_urls = {"http://" + eco.responders()[r->second].host + "/"};
    }
    request.crl_urls = {eco.crl_server(ca).url()};
    return eco.authority(ca).issue(request, issue_rng);
  };
  struct Probe {
    std::size_t crl = 0;
    ocsp::CertId id;
    net::Url url;
    util::Bytes body;
  };
  std::vector<Probe> probes;
  for (const auto& [c, e] : entries) {
    const std::size_t ca = crl_cas[c];
    const auto r = responder_for_ca.find(ca);
    if (r == responder_for_ca.end()) continue;
    if (!template_id.count(ca)) {
      template_id[ca] = ocsp::CertId::for_certificate(
          leaf(ca, probes.size()), eco.authority(ca).intermediate_cert());
    }
    Probe p;
    p.crl = c;
    p.id = template_id[ca];
    p.id.serial = crls[c].entries()[e].serial;
    p.url = net::parse_url("http://" + eco.responders()[r->second].host + "/")
                .value();
    probes.push_back(std::move(p));
  }
  const LayerCost post = time_calls(probes.size(), [&](std::size_t k) {
    net::FetchResult result = network.http_post(
        from, probes[k].url, ocsp::OcspRequest::single(probes[k].id).encode_der(),
        "application/ocsp-request");
    probes[k].body =
        result.success() ? std::move(result.response.body) : util::Bytes{};
  });
  std::vector<std::size_t> ok;
  for (std::size_t k = 0; k < probes.size(); ++k) {
    if (!probes[k].body.empty()) ok.push_back(k);
  }
  const auto issuer_of = [&](std::size_t k) -> const x509::Certificate& {
    return eco.authority(crl_cas[probes[ok[k]].crl]).intermediate_cert();
  };
  const LayerCost verify = time_calls(ok.size(), [&](std::size_t k) {
    ocsp::verify_ocsp_response(probes[ok[k]].body, probes[ok[k]].id,
                               issuer_of(k).public_key(), network.now());
  });
  const LayerCost pair = time_calls(ok.size(), [&](std::size_t k) {
    const Probe& p = probes[ok[k]];
    lint::Context ctx;
    ctx.issuer = &issuer_of(k);
    ctx.requested_serial = p.id.serial;
    ctx.now = network.now();
    const lint::Artifact artifact =
        lint::Artifact::crl_ocsp_pair(p.url.host, p.body, crls[p.crl], ctx);
    lint::lint_artifact(lint::RuleRegistry::builtin(), artifact);
  });

  // Issue and revoke at the CA holding most revocations.
  std::size_t busiest = 0;
  for (std::size_t ca = 0; ca < eco.authority_count(); ++ca) {
    if (eco.authority(ca).crl_entry_count() >
        eco.authority(busiest).crl_entry_count()) {
      busiest = ca;
    }
  }
  std::vector<x509::Certificate> issued;
  const LayerCost issue = time_calls(
      kIssueSample,
      [&](std::size_t i) { issued.push_back(leaf(busiest, 1'000'000 + i)); },
      1);
  const LayerCost revoke = time_calls(issued.size(), [&](std::size_t i) {
    eco.authority(busiest).revoke(issued[i].serial(),
                                  audit_time - util::Duration::days(2),
                                  std::nullopt, ca::RevocationPolicy{});
  }, 1);

  const auto& r = round.report;
  const double targets = static_cast<double>(r.probed);
  ledger.layer_sum_s =
      1e-6 * (targets * (issue.us + revoke.us + find.us + post.us) +
              static_cast<double>(r.crls_downloaded) * parse.us +
              static_cast<double>(r.responses_collected) *
                  (verify.us + pair.us));
  out.set("crl.parse_us", parse.us, "us");
  out.set("crl.find_us", find.us, "us");
  out.set("ca.issue_us", issue.us, "us");
  out.set("ca.revoke_us", revoke.us, "us");
  out.set("net.audit_post_us", post.us, "us");
  out.set("ocsp.verify_us", verify.us, "us");
  out.set("lint.crl_ocsp_pair_us", pair.us, "us");
  return out;
}

}  // namespace e2e
