// serve-ocsp: net::SocketServer serving a pre-generated OcspResponder,
// wrapped in the wire-level ResponseCache, over the loopback interface. One
// client thread (this one) drives one server worker with the RFC 6960
// Appendix A mix: percent-encoded base64 GETs alternating with POSTs.
//
//  * closed loop, first half of --seconds: pipelined windows of 32 requests,
//    the next window sent once the last is answered. Gives ops_per_s.
//  * open loop, second half: a fixed 10,000 requests/s schedule on a fresh
//    connection, each request timed from when it was due to be sent (so a
//    stall also charges the requests queued behind it). Its p50 and p99 are
//    printed but are no metrics: on a shared host they did not repeat.
//
// Every response is checked: a byte-for-byte match with the response the
// warm-up parsed and verified (ocsp::verify_ocsp_response against the
// issuer key and the requested serial) for that request, or else parsed and
// verified again on its own. The server is stopped and its worker joined
// before the result is printed.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string_view>

#include "bench.hpp"
#include "bench/load_gen.hpp"
#include "ca/authority.hpp"
#include "ca/responder.hpp"
#include "net/socket_server.hpp"
#include "ocsp/request.hpp"
#include "ocsp/verify.hpp"
#include "util/base64.hpp"

namespace e2e {

namespace {

using namespace mustaple;
namespace loadgen_detail = mustaple::bench::loadgen_detail;

constexpr std::size_t kCorpusCerts = 1024;  // 2048 requests: GET + POST each
constexpr std::size_t kCacheCapacity = 8192;  // holds the whole corpus
constexpr std::size_t kPipelineDepth = 32;
constexpr double kOpenRate = 10'000.0;  // requests/s, well below throughput
constexpr std::size_t kServerWorkers = 1;

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t sent = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<std::size_t>(sent);
    } else if (sent < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// The CA, responder, request corpus and listener of one serving run.
class Harness {
 public:
  Harness(std::uint64_t seed, bool response_cache)
      : now_(util::make_time(2018, 5, 1, 12)) {
    util::Rng rng(seed);
    ca_ = std::make_unique<ca::CertificateAuthority>(
        "BenchCA", now_ - util::Duration::days(2000), rng);
    responder_ = std::make_unique<ca::OcspResponder>(
        *ca_, ca::ResponderBehavior{}, "ocsp.bench.example", rng);
    for (std::size_t i = 0; i < kCorpusCerts; ++i) {
      ca::LeafRequest leaf;
      leaf.domain = "serve" + std::to_string(i) + ".example";
      leaf.not_before = now_ - util::Duration::days(30);
      leaf.lifetime = util::Duration::days(365);
      leaf.ocsp_urls = {"http://ocsp.bench.example/"};
      const auto id = ocsp::CertId::for_certificate(ca_->issue(leaf, rng),
                                                    ca_->intermediate_cert());
      const util::Bytes der = ocsp::OcspRequest::single(id).encode_der();
      net::HttpRequest get;
      get.path = "/" + loadgen_detail::percent_encode_base64(
                           util::base64_encode(der));
      get.headers.set("host", "ocsp.bench.example");
      net::HttpRequest post;
      post.method = "POST";
      post.headers.set("host", "ocsp.bench.example");
      post.headers.set("content-type", "application/ocsp-request");
      post.body = der;
      ids_.push_back(id);
      ids_.push_back(id);
      wires_.push_back(get.serialize());
      wires_.push_back(post.serialize());
    }
    const util::SimTime now = now_;
    handler_ = responder_->wire_handler([now] { return now; });
    if (response_cache) {
      cache_ = std::make_unique<net::ResponseCache>(16, kCacheCapacity);
      handler_ = cache_->wrap(std::move(handler_));
    }
    net::SocketServer::Options options;
    options.worker_threads = kServerWorkers;
    server_ = std::make_unique<net::SocketServer>(options);
    server_->add_listener("ocsp", 0, handler_);
    expected_.resize(wires_.size());
  }

  util::Status start() { return server_->start(); }
  void stop() { server_->stop(); }
  std::uint16_t port() const { return server_->port(std::size_t{0}); }
  std::size_t corpus() const { return wires_.size(); }
  const util::Bytes& wire(std::size_t e) const { return wires_[e]; }
  const net::WireHandler& handler() const { return handler_; }
  const net::SocketServer& server() const { return *server_; }
  const net::ResponseCache* cache() const { return cache_.get(); }
  const std::vector<util::Bytes>& expected() const { return expected_; }
  std::uint64_t slow_checks() const { return slow_checks_; }

  /// True when `response` is a 200 whose body verifies for entry `e`.
  bool verify(const net::HttpResponse& response, std::size_t e) const {
    if (response.status_code != 200) return false;
    const ocsp::VerifiedResponse v = ocsp::verify_ocsp_response(
        response.body, ids_[e], ca_->intermediate_cert().public_key(), now_);
    return v.outcome == ocsp::CheckOutcome::kOk &&
           v.status == ocsp::CertStatus::kGood;
  }

  /// Consumes one response for entry `e` from the front of `in`. Returns
  /// the bytes used (0 = incomplete) and sets `ok`. A response identical to
  /// the verified one for `e` is accepted by comparison; any other is framed,
  /// parsed and verified. The first response per entry becomes its
  /// reference when it verifies.
  std::size_t consume(std::string_view in, std::size_t e, bool* ok) {
    const util::Bytes& want = expected_[e];
    if (!want.empty()) {
      const std::size_t n = std::min(in.size(), want.size());
      if (std::memcmp(in.data(), want.data(), n) == 0) {
        if (n < want.size()) return 0;
        *ok = true;
        return n;
      }
    }
    const std::size_t head_end = in.find("\r\n\r\n");
    if (head_end == std::string_view::npos) return 0;
    std::size_t body_len = 0;
    std::string head(in.substr(0, head_end));
    for (char& c : head) c = static_cast<char>(std::tolower(c));
    const std::size_t cl = head.find("content-length:");
    if (cl != std::string::npos) {
      body_len = std::strtoull(head.c_str() + cl + 15, nullptr, 10);
    }
    const std::size_t total = head_end + 4 + body_len;
    if (in.size() < total) return 0;
    const util::Bytes bytes(in.begin(), in.begin() + static_cast<long>(total));
    auto parsed = net::HttpResponse::parse(bytes);
    ++slow_checks_;
    *ok = parsed.ok() && verify(parsed.value(), e);
    if (*ok && want.empty()) expected_[e] = bytes;
    return total;
  }

 private:
  util::SimTime now_;
  std::unique_ptr<ca::CertificateAuthority> ca_;
  std::unique_ptr<ca::OcspResponder> responder_;
  std::unique_ptr<net::ResponseCache> cache_;
  net::WireHandler handler_;
  std::unique_ptr<net::SocketServer> server_;
  std::vector<ocsp::CertId> ids_;
  std::vector<util::Bytes> wires_;
  std::vector<util::Bytes> expected_;
  std::uint64_t slow_checks_ = 0;
};

/// A client connection: pipelined requests out, responses checked in order.
class Client {
 public:
  Client(Harness& harness) : harness_(harness) {
    fd_ = loadgen_detail::connect_loopback(harness.port());
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t good() const { return good_; }
  std::uint64_t bad() const { return bad_; }
  std::size_t in_flight() const { return pending_.size(); }

  /// Queues entry `e` into `out` (sent by flush).
  void queue(std::size_t e) {
    const util::Bytes& w = harness_.wire(e);
    out_.insert(out_.end(), w.begin(), w.end());
    pending_.push_back(e);
    ++sent_;
  }
  bool flush() {
    const bool ok = send_all(fd_, out_.data(), out_.size());
    out_.clear();
    return ok;
  }

  /// Reads once (blocking) and consumes every complete response; returns
  /// how many were consumed, or -1 when the connection failed.
  long read_and_consume() {
    char buf[65536];
    const ssize_t got = ::read(fd_, buf, sizeof(buf));
    if (got <= 0) {
      if (got < 0 && errno == EINTR) return 0;
      return -1;
    }
    in_.append(buf, static_cast<std::size_t>(got));
    long consumed = 0;
    while (!pending_.empty()) {
      bool ok = false;
      const std::size_t used = harness_.consume(
          std::string_view(in_).substr(offset_), pending_.front(), &ok);
      if (used == 0) break;
      offset_ += used;
      pending_.pop_front();
      ++(ok ? good_ : bad_);
      ++consumed;
    }
    if (offset_ == in_.size()) {
      in_.clear();
      offset_ = 0;
    } else if (offset_ > 65536) {
      in_.erase(0, offset_);
      offset_ = 0;
    }
    return consumed;
  }

  int fd() const { return fd_; }

 private:
  Harness& harness_;
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::deque<std::size_t> pending_;
  std::string in_;
  std::size_t offset_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t good_ = 0;
  std::uint64_t bad_ = 0;
};

/// Sends every corpus entry once and checks every answer; the verified
/// responses become the references for the timed phases.
bool warm_up(Harness& harness) {
  Client client(harness);
  if (!client.connected()) return false;
  for (std::size_t e = 0; e < harness.corpus(); ++e) client.queue(e);
  if (!client.flush()) return false;
  while (client.in_flight() > 0) {
    if (client.read_and_consume() < 0) return false;
  }
  return client.bad() == 0;
}

struct ClosedLoop {
  std::uint64_t sent = 0, good = 0, bad = 0;
  double seconds = 0.0;
};

/// Pipelined windows until `seconds` have passed; the rate counts only
/// requests answered correctly, over the whole phase.
ClosedLoop closed_loop(Harness& harness, double seconds) {
  ClosedLoop r;
  Client client(harness);
  const double t0 = now_s();
  std::size_t next = 0;
  bool alive = client.connected();
  while (alive && now_s() - t0 < seconds) {
    for (std::size_t i = 0; i < kPipelineDepth; ++i) {
      client.queue(next);
      next = (next + 1) % harness.corpus();
    }
    alive = client.flush();
    while (alive && client.in_flight() > 0) {
      alive = client.read_and_consume() >= 0;
    }
  }
  r.seconds = now_s() - t0;
  r.sent = client.sent();
  r.good = client.good();
  r.bad = client.sent() - client.good();
  return r;
}

struct OpenLoop {
  std::uint64_t sent = 0, good = 0, bad = 0;
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
};

/// A fixed schedule of `count` requests at kOpenRate on one connection.
OpenLoop open_loop(Harness& harness, std::size_t count) {
  OpenLoop r;
  Client client(harness);
  if (!client.connected()) {
    r.bad = count;
    return r;
  }
  // The client spins (zero-timeout polls) instead of sleeping until each due
  // time: a sleeping client adds its own wake-up latency, which on a shared
  // host varies more than the server's answer does.
  const double interval = 1.0 / kOpenRate;
  const double t0 = now_s() + 0.001;
  std::vector<double> due;
  due.reserve(count);
  std::size_t next = 0;
  std::size_t done = 0;
  r.latency_us.reserve(count);
  bool alive = true;
  while (alive && done < count) {
    double now = now_s();
    while (next < count && t0 + static_cast<double>(next) * interval <= now) {
      due.push_back(t0 + static_cast<double>(next) * interval);
      r.lateness_us.push_back((now - due.back()) * 1e6);
      client.queue(next % harness.corpus());
      ++next;
    }
    alive = client.flush();
    pollfd pfd{client.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (!alive || ready <= 0) continue;
    const long consumed = client.read_and_consume();
    now = now_s();
    if (consumed < 0) break;
    for (long k = 0; k < consumed; ++k, ++done) {
      r.latency_us.push_back((now - due[done]) * 1e6);
    }
  }
  r.sent = count;
  r.good = client.good();
  r.bad = count - client.good();
  return r;
}

struct ServeRun {
  std::unique_ptr<Harness> harness;
  bool started = false;
  bool warm = false;
};

ServeRun start_serving(const Options& options) {
  ServeRun run;
  run.harness = std::make_unique<Harness>(options.seed, options.response_cache);
  run.started = run.harness->start().ok();
  run.warm = run.started && warm_up(*run.harness);
  return run;
}

/// Stops the listener (joining its worker) and checks the server's own
/// request count against every request the client sent.
void stop_and_check(Harness& harness, std::uint64_t client_requests,
                    Outcome& out) {
  harness.stop();
  const net::SocketServerStats stats = harness.server().stats();
  out.check(stats.requests == client_requests,
            "server counted " + std::to_string(stats.requests) +
                " requests == client sent " + std::to_string(client_requests));
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome out;
  ServeRun run = start_serving(options);
  Harness& harness = *run.harness;
  const double setup = since_start_s();
  out.check(run.started && run.warm,
            "listener started; warm-up answered and verified every corpus "
            "request");
  std::printf("setup %.3f s: CA, responder, %zu-request corpus, listener on "
              "127.0.0.1:%u, warm-up\n",
              setup, harness.corpus(), harness.port());
  const double ref_before = reference_loop_ms();

  const ClosedLoop closed = closed_loop(harness, options.seconds * 0.5);
  const auto open_count =
      static_cast<std::size_t>(kOpenRate * options.seconds * 0.5);
  const OpenLoop open = open_loop(harness, open_count);
  const double ref_after = reference_loop_ms();
  stop_and_check(harness, harness.corpus() + closed.sent + open.sent, out);

  out.attempted = closed.sent + open.sent;
  out.failed = closed.bad + open.bad;
  out.check(out.failed == 0, "every timed request got a verified 200 (" +
                                 std::to_string(out.failed) + " did not)");
  std::printf("closed loop: %llu requests in %.3f s | open loop: %zu at %.0f/s "
              "| slow-path checks %llu\n",
              static_cast<unsigned long long>(closed.sent), closed.seconds,
              open_count, kOpenRate,
              static_cast<unsigned long long>(harness.slow_checks()));
  std::printf("open-loop latency p50 %.1f us, p99 %.1f us; generator "
              "lateness: p50 %.1f us, p99 %.1f us, max %.1f us\n",
              percentile(open.latency_us, 0.50),
              percentile(open.latency_us, 0.99),
              percentile(open.lateness_us, 0.5),
              percentile(open.lateness_us, 0.99),
              percentile(open.lateness_us, 1.0));
  std::printf("reference_loop_ms before %.2f after %.2f\n", ref_before,
              ref_after);
  out.set("ops_per_s", static_cast<double>(closed.good) / closed.seconds,
          "1/s");
  out.set("setup_s", setup, "s");
  return out;
}

Outcome trace_serve(const Options& options, Ledger& ledger) {
  Outcome out;
  ServeRun run = start_serving(options);
  Harness& harness = *run.harness;
  out.check(run.started && run.warm, "listener started; warm-up verified");
  if (!run.warm) return out;

  // Ledger: a 2 s closed loop; its CPU base is the server's, i.e. the
  // process CPU minus this client thread's.
  const double cpu0 = process_cpu_s() - thread_cpu_s();
  const ClosedLoop closed = closed_loop(harness, 2.0);
  ledger.cpu_s = process_cpu_s() - thread_cpu_s() - cpu0;
  ledger.wall_s = closed.seconds;
  out.attempted = closed.sent;
  out.failed = closed.bad;

  const std::size_t n = harness.corpus();
  std::vector<net::HttpRequest> requests;
  for (std::size_t e = 0; e < n; ++e) {
    requests.push_back(net::HttpRequest::parse(harness.wire(e)).value());
  }
  std::vector<net::HttpResponse> responses;
  for (std::size_t e = 0; e < n; ++e) {
    responses.push_back(
        net::HttpResponse::parse(harness.expected()[e]).value());
  }
  const LayerCost parse = time_calls(n, [&](std::size_t e) {
    net::HttpRequest::parse(harness.wire(e));
  });
  const LayerCost handle = time_calls(n, [&](std::size_t e) {
    harness.handler()(requests[e]);
  });
  const LayerCost serialize = time_calls(n, [&](std::size_t e) {
    responses[e].serialize();
  });
  stop_and_check(harness, n + closed.sent, out);
  const net::SocketServerStats stats = harness.server().stats();
  ledger.layer_sum_s = 1e-6 * static_cast<double>(closed.sent) *
                       (parse.us + handle.us + serialize.us);
  const util::ShardedCacheStats cache =
      harness.cache() ? harness.cache()->stats() : util::ShardedCacheStats{};
  out.set("net.http_parse_us", parse.us, "us");
  out.set("net.cached_handle_us", handle.us, "us");
  out.set("net.http_serialize_us", serialize.us, "us");
  out.set("net.response_cache.hit_ratio",
          static_cast<double>(cache.hits) /
              static_cast<double>(std::max<std::uint64_t>(1, cache.lookups)),
          "ratio");
  out.set("net.socket.bytes_per_request",
          static_cast<double>(stats.bytes_in + stats.bytes_out) /
              static_cast<double>(std::max<std::uint64_t>(1, stats.requests)),
          "B");
  return out;
}

}  // namespace e2e
