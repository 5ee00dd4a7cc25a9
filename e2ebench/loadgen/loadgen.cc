// e2e_loadgen: open-loop Poisson load generator for the e2ebench
// benchmark. Drives GET /page?id=K (Zipf page popularity) against one
// HTTP/1.1 endpoint over --connections keep-alive connections (1 to 4),
// one thread per connection.
//
// Open loop: the whole arrival schedule is drawn up front from --seed, and
// every request is timed from its *intended* send time, so a stall that
// delays later requests is charged to them (no coordinated omission).
// Requests are served from one FIFO: a free connection takes the next due
// request, so at most --connections requests are in flight and the rest
// wait in the generator's backlog.
//
// Every 200 body goes through the response oracle: exact length, the
// page's `<div id="sK"` fragment ids in page order, no DPC tag bytes.
//
//   e2e_loadgen --port=P --rate=R --seconds=T --seed=S --pages=N
//       --fragments=F --fragment-size=Z --records=FILE [--connections=4]
//       [--id-prefix=x] [--abort-backlog=0]
//
// Prints one JSON summary line on stdout and writes one binary record per
// sent request (see Record below) to --records, for the harness to compute
// percentiles and join with tier traces. --abort-backlog > 0 stops taking
// new requests once that many are overdue (a rate-search probe that is
// clearly over capacity); those requests count as unsent.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

// Zipf exponent of page popularity, for every workload.
constexpr double kZipfAlpha = 1.0;
// Most keep-alive connections (one thread each) a run may open.
constexpr int kMaxConnections = 4;

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t deadline) {
  timespec ts;
  ts.tv_sec = deadline / 1'000'000'000;
  ts.tv_nsec = deadline % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// Failure classes; 0 is success. The harness maps the numbers back to
// these names (run.py FAIL_KINDS), so keep the order.
enum Kind : int32_t {
  kOk = 0,
  kConnect = 1,    // Could not (re)connect.
  kSend = 2,       // Write failed.
  kRecv = 3,       // Reset / EOF / malformed framing mid-response.
  kTimeout = 4,    // No complete response within the receive timeout.
  kStatus = 5,     // Non-200.
  kLength = 6,     // Body length differs from pages x fragment size.
  kFragments = 7,  // Fragment ids missing or out of page order.
  kTagBytes = 8,   // SET/GET tag bytes (STX/ETX) left in the body.
};

// One sent request. Times are nanoseconds since the schedule's origin.
struct Record {
  int64_t index;     // Position in the schedule; the X-DPC-Request-Id suffix.
  int64_t intended;  // When the schedule said to send it.
  int64_t taken;     // When a connection became free and claimed it.
  int64_t sent;      // When its first byte was written.
  int64_t head;      // When the response head was complete.
  int64_t done;      // When the response body was complete.
  int32_t page;
  int32_t kind;
};
static_assert(sizeof(Record) == 56);

struct Options {
  int port = 0;
  double rate = 1000;
  double seconds = 1;
  uint64_t seed = 1;
  int pages = 10;
  int fragments = 4;
  int fragment_size = 1000;
  int connections = kMaxConnections;
  std::string id_prefix = "b";
  int64_t abort_backlog = 0;
  std::string records;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      std::fprintf(stderr, "bad argument '%s' (want --name=value)\n",
                   argv[i]);
      return false;
    }
    std::string name(arg.substr(2, eq - 2));
    std::string value(arg.substr(eq + 1));
    const char* v = value.c_str();
    if (name == "port") {
      o->port = std::atoi(v);
    } else if (name == "rate") {
      o->rate = std::atof(v);
    } else if (name == "seconds") {
      o->seconds = std::atof(v);
    } else if (name == "seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (name == "pages") {
      o->pages = std::atoi(v);
    } else if (name == "fragments") {
      o->fragments = std::atoi(v);
    } else if (name == "fragment-size") {
      o->fragment_size = std::atoi(v);
    } else if (name == "connections") {
      o->connections = std::atoi(v);
    } else if (name == "id-prefix") {
      o->id_prefix = value;
    } else if (name == "abort-backlog") {
      o->abort_backlog = std::atoll(v);
    } else if (name == "records") {
      o->records = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return false;
    }
  }
  if (o->port <= 0 || o->rate <= 0 || o->seconds <= 0 || o->pages <= 0 ||
      o->fragments <= 0) {
    std::fprintf(stderr, "--port, --rate, --seconds, --pages and "
                         "--fragments must be > 0\n");
    return false;
  }
  if (o->connections < 1 || o->connections > kMaxConnections) {
    std::fprintf(stderr, "--connections must be 1 to %d\n", kMaxConnections);
    return false;
  }
  if (o->records.empty()) {
    std::fprintf(stderr, "--records=FILE is required\n");
    return false;
  }
  // Smaller fragments are raw filler with no <div> to check.
  if (o->fragment_size < 32) {
    std::fprintf(stderr, "the oracle needs --fragment-size >= 32\n");
    return false;
  }
  return true;
}

// Blocking keep-alive HTTP/1.1 client connection with its own response
// framing (Content-Length or chunked), kept independent of the library
// under test.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool EnsureOpen() {
    if (fd_ >= 0) return true;
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    buffer_.clear();
    start_ = 0;
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& request) {
    size_t off = 0;
    while (off < request.size()) {
      ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one response. Returns kOk, kRecv or kTimeout; fills status,
  // body and the head-complete time.
  Kind Receive(int* status, std::string* body, int64_t* head_ns) {
    size_t head_end;
    size_t scanned = 0;
    while ((head_end = Unread().find("\r\n\r\n", scanned)) ==
           std::string_view::npos) {
      scanned = Unread().size() < 3 ? 0 : Unread().size() - 3;
      if (Kind k = Fill(); k != kOk) return k;
    }
    *head_ns = NowNs();
    std::string_view head = Unread().substr(0, head_end);
    if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return kRecv;
    *status = std::atoi(std::string(head.substr(9, 3)).c_str());
    int64_t content_length = -1;
    bool chunked = false;
    close_after_ = false;
    size_t line = head.find("\r\n");
    while (line != std::string_view::npos) {
      size_t next = head.find("\r\n", line + 2);
      std::string_view field = head.substr(
          line + 2, next == std::string_view::npos ? std::string_view::npos
                                                   : next - line - 2);
      size_t colon = field.find(':');
      if (colon != std::string_view::npos) {
        std::string name(field.substr(0, colon));
        for (char& c : name) c = static_cast<char>(std::tolower(c));
        std::string_view value = field.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        if (name == "content-length") {
          content_length = std::atoll(std::string(value).c_str());
        } else if (name == "transfer-encoding") {
          chunked = value.find("chunked") != std::string_view::npos;
        } else if (name == "connection") {
          close_after_ = value.find("close") != std::string_view::npos;
        }
      }
      line = next;
    }
    Consume(head_end + 4);
    body->clear();
    if (chunked) return ReadChunked(body);
    if (content_length < 0) return kRecv;
    return ReadExactly(static_cast<size_t>(content_length), body);
  }

  bool close_after() const { return close_after_; }

 private:
  std::string_view Unread() const {
    return std::string_view(buffer_).substr(start_);
  }

  void Consume(size_t n) {
    start_ += n;
    if (start_ == buffer_.size()) {
      buffer_.clear();
      start_ = 0;
    }
  }

  Kind Fill() {
    if (start_ > 0) {
      buffer_.erase(0, start_);
      start_ = 0;
    }
    char chunk[16384];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return kTimeout;
    if (n <= 0) return kRecv;
    buffer_.append(chunk, static_cast<size_t>(n));
    return kOk;
  }

  // Appends the next `size` body bytes to `body`, receiving straight into
  // it once the buffered bytes are used up.
  Kind ReadExactly(size_t size, std::string* body) {
    size_t have = std::min(size, Unread().size());
    size_t off = body->size();
    body->resize(off + size);
    std::memcpy(body->data() + off, buffer_.data() + start_, have);
    Consume(have);
    off += have;
    const size_t end = body->size();
    while (off < end) {
      ssize_t n;
      do {
        n = ::recv(fd_, body->data() + off, end - off, 0);
      } while (n < 0 && errno == EINTR);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return kTimeout;
      if (n <= 0) return kRecv;
      off += static_cast<size_t>(n);
    }
    return kOk;
  }

  Kind ReadLine(std::string* line) {
    size_t eol;
    while ((eol = Unread().find("\r\n")) == std::string_view::npos) {
      if (Kind k = Fill(); k != kOk) return k;
    }
    line->assign(Unread().substr(0, eol));
    Consume(eol + 2);
    return kOk;
  }

  Kind ReadChunked(std::string* body) {
    std::string line;
    for (;;) {
      if (Kind k = ReadLine(&line); k != kOk) return k;
      char* end = nullptr;
      unsigned long long size = std::strtoull(line.c_str(), &end, 16);
      if (end == line.c_str()) return kRecv;
      if (size == 0) {
        // Trailer section: lines until an empty one.
        do {
          if (Kind k = ReadLine(&line); k != kOk) return k;
        } while (!line.empty());
        return kOk;
      }
      if (Kind k = ReadExactly(size, body); k != kOk) return k;
      if (Kind k = ReadLine(&line); k != kOk) return k;
      if (!line.empty()) return kRecv;
    }
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;  // Received bytes; [start_, size) not yet parsed.
  size_t start_ = 0;
  bool close_after_ = false;
};

// The response oracle for the synthetic site: page `page` is its
// `fragments` fragments of exactly `fragment_size` bytes each, fragment j
// opening with <div id="s{page*fragments+j}" and closing with </div>.
Kind CheckBody(const std::string& body, int page, const Options& o) {
  if (std::memchr(body.data(), '\x02', body.size()) != nullptr ||
      std::memchr(body.data(), '\x03', body.size()) != nullptr) {
    return kTagBytes;
  }
  const size_t size = static_cast<size_t>(o.fragment_size);
  if (body.size() != size * static_cast<size_t>(o.fragments)) return kLength;
  for (int j = 0; j < o.fragments; ++j) {
    std::string open =
        "<div id=\"s" + std::to_string(page * o.fragments + j) + "\"";
    if (body.compare(j * size, open.size(), open) != 0 ||
        body.compare((j + 1) * size - 6, 6, "</div>") != 0) {
      return kFragments;
    }
  }
  return kOk;
}

struct Shared {
  const Options* options;
  std::vector<int64_t> intended;  // Sorted schedule, ns since origin.
  std::vector<int32_t> page;
  int64_t origin_ns = 0;
  int64_t hard_stop_ns = 0;  // Absolute: nothing is taken after this.
  std::atomic<int64_t> next{0};
  std::atomic<bool> aborted{false};
  std::atomic<int64_t> backlog_peak{0};
};

void Worker(Shared* shared, std::vector<Record>* out) {
  const Options& o = *shared->options;
  const int64_t n = static_cast<int64_t>(shared->intended.size());
  Connection conn(o.port);
  std::string body;
  for (;;) {
    if (shared->aborted.load(std::memory_order_relaxed)) return;
    int64_t taken_abs = NowNs();
    if (taken_abs >= shared->hard_stop_ns) return;
    int64_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    Record r{};
    r.index = i;
    r.intended = shared->intended[static_cast<size_t>(i)];
    r.taken = taken_abs - shared->origin_ns;
    r.page = shared->page[static_cast<size_t>(i)];
    // Overdue requests not yet claimed: the generator's backlog.
    int64_t due = std::upper_bound(shared->intended.begin(),
                                   shared->intended.end(), r.taken) -
                  shared->intended.begin();
    int64_t backlog = due - i;
    int64_t peak = shared->backlog_peak.load(std::memory_order_relaxed);
    while (backlog > peak && !shared->backlog_peak.compare_exchange_weak(
                                 peak, backlog, std::memory_order_relaxed)) {
    }
    if (o.abort_backlog > 0 && backlog > o.abort_backlog) {
      shared->aborted.store(true, std::memory_order_relaxed);
      return;  // Request i was claimed but never sent: counted as unsent.
    }
    if (r.taken < r.intended) SleepUntilNs(shared->origin_ns + r.intended);

    std::string request = "GET /page?id=" + std::to_string(r.page) +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\nX-DPC-Request-Id: " +
                          o.id_prefix + std::to_string(i) + "\r\n\r\n";
    int status = 0;
    Kind kind = kOk;
    if (!conn.EnsureOpen()) {
      kind = kConnect;
      r.sent = NowNs() - shared->origin_ns;
    } else {
      r.sent = NowNs() - shared->origin_ns;
      int64_t head_abs = 0;
      if (!conn.Send(request)) {
        kind = kSend;
      } else {
        kind = conn.Receive(&status, &body, &head_abs);
      }
      if (head_abs != 0) r.head = head_abs - shared->origin_ns;
    }
    r.done = NowNs() - shared->origin_ns;
    if (kind == kOk && status != 200) kind = kStatus;
    if (kind == kOk) kind = CheckBody(body, r.page, o);
    if (kind == kConnect || kind == kSend || kind == kRecv ||
        kind == kTimeout || conn.close_after()) {
      conn.Close();
    }
    if (r.head == 0) r.head = r.done;  // No response head arrived.
    r.kind = kind;
    out->push_back(r);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  // Default timer slack (50us) would add that much to every scheduled send.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  Shared shared;
  shared.options = &o;
  std::mt19937_64 rng(o.seed);
  std::exponential_distribution<double> gap(o.rate);
  std::vector<double> cdf(static_cast<size_t>(o.pages));
  double total = 0;
  for (int k = 0; k < o.pages; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfAlpha);
    cdf[static_cast<size_t>(k)] = total;
  }
  std::uniform_real_distribution<double> unit(0.0, total);
  const int64_t span_ns = static_cast<int64_t>(o.seconds * 1e9);
  for (double t = gap(rng); t * 1e9 < static_cast<double>(span_ns);
       t += gap(rng)) {
    shared.intended.push_back(static_cast<int64_t>(t * 1e9));
    double u = unit(rng);
    shared.page.push_back(static_cast<int32_t>(
        std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin(),
                         cdf.size() - 1)));
  }

  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  std::vector<std::vector<Record>> per_thread(
      static_cast<size_t>(o.connections));
  for (auto& v : per_thread) {
    v.reserve(shared.intended.size() / per_thread.size() + 1024);
  }
  // The schedule starts once the threads are up; after it ends, the
  // backlog has 2 s to drain before the rest counts as unsent.
  shared.origin_ns = NowNs() + 2'000'000;
  shared.hard_stop_ns = shared.origin_ns + span_ns + 2'000'000'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < o.connections; ++t) {
    threads.emplace_back(Worker, &shared, &per_thread[static_cast<size_t>(t)]);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      static_cast<double>(NowNs() - shared.origin_ns) / 1e9;
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  auto micros = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  int64_t cpu_us = micros(after.ru_utime) - micros(before.ru_utime) +
                   micros(after.ru_stime) - micros(before.ru_stime);

  std::vector<Record> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  FILE* f = std::fopen(o.records.c_str(), "wb");
  bool written = f != nullptr && std::fwrite(all.data(), sizeof(Record),
                                             all.size(), f) == all.size();
  if (f != nullptr && std::fclose(f) != 0) written = false;
  if (!written) {
    std::fprintf(stderr, "cannot write %s\n", o.records.c_str());
    return 1;
  }
  const int64_t scheduled = static_cast<int64_t>(shared.intended.size());
  std::printf("{\"scheduled\":%lld,\"sent\":%zu,\"unsent\":%lld,"
              "\"aborted\":%s,\"backlog_peak\":%lld,\"elapsed_s\":%.6f,"
              "\"cpu_us\":%lld,\"origin_ns\":%lld}\n",
              static_cast<long long>(scheduled), all.size(),
              static_cast<long long>(scheduled -
                                     static_cast<int64_t>(all.size())),
              shared.aborted.load() ? "true" : "false",
              static_cast<long long>(shared.backlog_peak.load()), elapsed_s,
              static_cast<long long>(cpu_us),
              static_cast<long long>(shared.origin_ns));
  return 0;
}
