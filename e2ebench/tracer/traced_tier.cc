// e2e_traced_tier: the benchmark's traced stand-in for dynaprox_origin
// (--role=origin) or dynaprox_proxy (--role=proxy). It wires the same
// public classes the tools wire (SyntheticSite, BackEndMonitor,
// OriginServer / PooledClientTransport, DpcProxy) with the tools' default
// options, and records spans only from wrappers around public entry
// points:
//
//   proxy:  "dpc"      net::Handler wrapper around DpcProxy::Handle
//           "upstream" net::Transport decorator around the DPC's upstream
//                      (RoundTrip, and RoundTripStreaming until the body
//                      stream ends)
//   origin: "origin"   handler wrapper around OriginServer::Handle
//           "script"   the "/page" script, re-registered through
//                      ScriptRegistry::Find + RegisterOrReplace
//
// Spans are keyed by the X-DPC-Request-Id the load generator sent
// (<prefix letter><schedule index>), kept in memory, and written to
// --spans=FILE when stdin reaches EOF, before the process exits. Times are
// CLOCK_MONOTONIC nanoseconds, comparable across processes on one host.
//
//   e2e_traced_tier --role=origin --port=P --spans=FILE [site flags]
//   e2e_traced_tier --role=proxy --port=P --origin-port=Q --spans=FILE

#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analytical/model.h"
#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bem/protocol.h"
#include "common/flags.h"
#include "dpc/proxy.h"
#include "net/connection_pool.h"
#include "net/server_limits.h"
#include "net/tcp.h"
#include "storage/table.h"
#include "workload/synthetic_site.h"

using namespace dynaprox;

namespace {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Span kinds; run.py (SPAN_KINDS) reads them by these numbers.
enum SpanKind : int32_t { kDpc = 0, kUpstream = 1, kOrigin = 2, kScript = 3 };

struct Span {
  int64_t index;  // Schedule index parsed from the request id.
  int64_t start;
  int64_t end;
  int32_t kind;
  int32_t prefix;  // The request id's leading letter (the generator phase).
};
static_assert(sizeof(Span) == 32);

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 20); }

  void Record(SpanKind kind, const http::Request& request, int64_t start,
              int64_t end) {
    std::optional<std::string_view> id =
        request.headers.Get(bem::kRequestIdHeader);
    if (!id.has_value() || id->size() < 2) return;
    int64_t index = 0;
    for (char c : id->substr(1)) {
      if (c < '0' || c > '9') return;  // Not a benchmark request id.
      index = index * 10 + (c - '0');
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{index, start, end, kind, (*id)[0]});
  }

  bool WriteTo(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    bool ok = std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f) ==
              spans_.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

// Ends the "upstream" span when the streamed body has been pulled to its
// end (or abandoned).
class TracedBodyStream : public http::BodyStream {
 public:
  TracedBodyStream(std::unique_ptr<http::BodyStream> inner,
                   http::Request request, int64_t start)
      : inner_(std::move(inner)), request_(std::move(request)),
        start_(start) {}
  ~TracedBodyStream() override { Finish(); }

  Result<common::BufferChain> Next() override {
    Result<common::BufferChain> chunk = inner_->Next();
    if (!chunk.ok() || chunk->empty()) Finish();
    return chunk;
  }

 private:
  void Finish() {
    if (finished_) return;
    finished_ = true;
    g_spans.Record(kUpstream, request_, start_, NowNs());
  }

  std::unique_ptr<http::BodyStream> inner_;
  http::Request request_;
  int64_t start_;
  bool finished_ = false;
};

class TracedTransport : public net::Transport {
 public:
  explicit TracedTransport(net::Transport* inner) : inner_(inner) {}

  Result<http::Response> RoundTrip(const http::Request& request) override {
    int64_t start = NowNs();
    Result<http::Response> response = inner_->RoundTrip(request);
    g_spans.Record(kUpstream, request, start, NowNs());
    return response;
  }

  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    int64_t start = NowNs();
    Result<net::StreamingResponse> response =
        inner_->RoundTripStreaming(request);
    if (!response.ok()) {
      g_spans.Record(kUpstream, request, start, NowNs());
      return response;
    }
    response->body = std::make_unique<TracedBodyStream>(
        std::move(response->body), request, start);
    return response;
  }

 private:
  net::Transport* inner_;
};

net::Handler Traced(SpanKind kind, net::Handler inner) {
  return [kind, inner = std::move(inner)](const http::Request& request) {
    int64_t start = NowNs();
    http::Response response = inner(request);
    g_spans.Record(kind, request, start, NowNs());
    return response;
  };
}

void WaitForStdinEof() {
  char buf[256];
  while (::read(STDIN_FILENO, buf, sizeof(buf)) > 0) {
  }
}

int RunOrigin(const Flags& flags, const std::string& spans_path) {
  analytical::ModelParams params =
      analytical::ModelParams::Table2Baseline();
  Result<int64_t> port = flags.GetInt("port", 8081);
  Result<int64_t> pages = flags.GetInt("pages", params.num_pages);
  Result<int64_t> fragments =
      flags.GetInt("fragments", params.fragments_per_page);
  Result<double> fragment_size =
      flags.GetDouble("fragment-size", params.fragment_size);
  Result<double> hit_ratio = flags.GetDouble("hit-ratio", params.hit_ratio);
  Result<double> cacheability =
      flags.GetDouble("cacheability", params.cacheability);
  Result<int64_t> capacity = flags.GetInt("capacity", 4096);
  Result<int64_t> seed = flags.GetInt("seed", 42);
  if (!port.ok() || !pages.ok() || !fragments.ok() || !fragment_size.ok() ||
      !hit_ratio.ok() || !cacheability.ok() || !capacity.ok() ||
      !seed.ok()) {
    std::fprintf(stderr, "bad origin flag\n");
    return 2;
  }
  params.num_pages = static_cast<int>(*pages);
  params.fragments_per_page = static_cast<int>(*fragments);
  params.fragment_size = *fragment_size;
  params.hit_ratio = *hit_ratio;
  params.cacheability = *cacheability;

  storage::ContentRepository repository;
  appserver::ScriptRegistry registry;
  workload::SyntheticSite site(params, static_cast<uint64_t>(*seed),
                               &repository, &registry);
  Result<const appserver::ScriptFn*> page = registry.Find("/page");
  if (!page.ok()) {
    std::fprintf(stderr, "no /page script\n");
    return 1;
  }
  registry.RegisterOrReplace(
      "/page", [script = **page](appserver::ScriptContext& context) {
        int64_t start = NowNs();
        Status status = script(context);
        g_spans.Record(kScript, context.request(), start, NowNs());
        return status;
      });

  bem::BemOptions bem_options;
  bem_options.capacity = static_cast<bem::DpcKey>(*capacity);
  Result<std::unique_ptr<bem::BackEndMonitor>> monitor =
      bem::BackEndMonitor::Create(bem_options);
  if (!monitor.ok()) {
    std::fprintf(stderr, "%s\n", monitor.status().ToString().c_str());
    return 1;
  }
  (*monitor)->AttachRepository(&repository);

  net::IngressCounters ingress;
  net::ServerLimits limits;
  limits.counters = &ingress;
  appserver::OriginOptions options;
  options.pad_headers_to_bytes = static_cast<size_t>(params.header_size);
  options.enable_status = true;
  options.enable_metrics = true;
  options.ingress = &ingress;
  appserver::OriginServer origin(&registry, &repository, monitor->get(),
                                 options);
  net::TcpServer server(Traced(kOrigin, origin.AsHandler()),
                        static_cast<uint16_t>(*port), limits);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("traced origin listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);
  WaitForStdinEof();
  server.Stop();
  return g_spans.WriteTo(spans_path) ? 0 : 1;
}

int RunProxy(const Flags& flags, const std::string& spans_path) {
  Result<int64_t> port = flags.GetInt("port", 8080);
  Result<int64_t> origin_port = flags.GetInt("origin-port", 8081);
  if (!port.ok() || !origin_port.ok()) {
    std::fprintf(stderr, "bad proxy flag\n");
    return 2;
  }
  net::PooledTransportOptions upstream_options;
  upstream_options.pool.max_connections = 8;
  upstream_options.non_idempotent_headers = {bem::kRefreshHeader};
  net::PooledClientTransport upstream(
      "127.0.0.1", static_cast<uint16_t>(*origin_port), upstream_options);
  TracedTransport traced_upstream(&upstream);

  net::IngressCounters ingress;
  net::ServerLimits limits;
  limits.counters = &ingress;
  dpc::ProxyOptions options;
  options.ingress = &ingress;
  options.enable_status = true;
  options.enable_metrics = true;
  options.upstream_pool = &upstream.pool();
  dpc::DpcProxy proxy(&traced_upstream, options);
  net::TcpServer server(Traced(kDpc, proxy.AsHandler()),
                        static_cast<uint16_t>(*port), limits);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("traced DPC listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);
  WaitForStdinEof();
  server.Stop();
  return g_spans.WriteTo(spans_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  std::string role = flags->GetString("role", "");
  std::string spans = flags->GetString("spans", "");
  if (spans.empty()) {
    std::fprintf(stderr, "--spans=FILE is required\n");
    return 2;
  }
  if (role == "origin") return RunOrigin(*flags, spans);
  if (role == "proxy") return RunProxy(*flags, spans);
  std::fprintf(stderr, "--role must be origin or proxy\n");
  return 2;
}
