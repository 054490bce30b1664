#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "server/wire.h"
#include "util/fault_injector.h"
#include "util/json.h"

namespace amber {
namespace {

// Half-closed peers report POLLRDHUP where available (Linux); elsewhere
// the watchdog only sees full hangups/errors and mid-write failures
// carry the detection instead.
#ifdef POLLRDHUP
constexpr short kHangupEvents = POLLRDHUP;
constexpr short kHangupRevents = POLLRDHUP | POLLHUP | POLLERR | POLLNVAL;
#else
constexpr short kHangupEvents = 0;
constexpr short kHangupRevents = POLLHUP | POLLERR | POLLNVAL;
#endif

constexpr std::chrono::milliseconds kPollSlice{100};
constexpr std::chrono::milliseconds kWatchdogPeriod{20};

std::string_view ReasonPhrase(int code) {
  switch (code) {
    case 100: return "Continue";
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Status";
  }
}

// Transport-level errors (no Status behind them) reuse the error shape of
// wire::SerializeError so clients have ONE error schema to parse.
std::string ErrorBody(int http, std::string_view code,
                      std::string_view message) {
  json::Writer w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.KV("code", code);
  w.KV("http", static_cast<uint64_t>(http));
  w.KV("message", message);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

struct HttpRequest {
  std::string method;
  std::string path;  // query string stripped
  std::string version;
  std::vector<std::pair<std::string, std::string>> headers;  // keys lowered
  std::string body;
};

const std::string* FindHeader(const HttpRequest& req, std::string_view key) {
  for (const auto& [k, v] : req.headers) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses the request line + header block (everything before the blank
/// line). Returns false on any framing violation.
bool ParseRequestHead(std::string_view head, HttpRequest* req) {
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return false;
  const size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) return false;
  if (request_line.find(' ', sp2 + 1) != std::string_view::npos) return false;
  req->method = std::string(request_line.substr(0, sp1));
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t q = target.find('?');
  if (q != std::string_view::npos) target = target.substr(0, q);
  if (target.empty() || target[0] != '/') return false;
  req->version = std::string(request_line.substr(sp2 + 1));
  req->path = std::string(target);

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    req->headers.emplace_back(ToLower(line.substr(0, colon)),
                              std::string(Trim(line.substr(colon + 1))));
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamSink: the chunked NDJSON writer behind POST /query/stream. Each
// flushed StreamPage becomes exactly one HTTP chunk, written BEFORE the
// engine advances — the TCP send buffer is the only slack between a slow
// client and the matcher.
class HttpServer::StreamSink : public PageSink {
 public:
  StreamSink(HttpServer* server, int fd) : server_(server), fd_(fd) {}

  bool OnPage(StreamPage&& page) override {
    const std::string line = wire::SerializeStreamPage(page);
    // Pure terminator frames carry no payload; the summary line is the
    // on-wire terminator.
    if (line.empty()) return true;
    return WriteChunk(line);
  }

  /// Writes one NDJSON line as one chunk (response head first when this
  /// is the stream's first byte). False = the connection is dead.
  bool WriteChunk(std::string_view line) {
    if (write_failed_) return false;
    if (!FaultInjector::Global().Inject(faults::kServerWrite).ok()) {
      write_failed_ = true;
      return false;
    }
    std::string out;
    out.reserve(line.size() + 128);
    if (!headers_sent_) {
      // Attempted counts as sent: after a partial head we can no longer
      // switch to a clean buffered error response.
      headers_sent_ = true;
      out +=
          "HTTP/1.1 200 OK\r\n"
          "Content-Type: application/x-ndjson\r\n"
          "Transfer-Encoding: chunked\r\n"
          "Connection: keep-alive\r\n\r\n";
    }
    char size_hex[32];
    std::snprintf(size_hex, sizeof size_hex, "%zx",
                  line.size() + 1);  // +1: the NDJSON newline
    out += size_hex;
    out += "\r\n";
    out += line;
    out += "\n\r\n";
    if (!server_->WriteAll(fd_, out)) {
      write_failed_ = true;
      return false;
    }
    return true;
  }

  bool headers_sent() const { return headers_sent_; }
  bool write_failed() const { return write_failed_; }

 private:
  HttpServer* server_;
  int fd_;
  bool headers_sent_ = false;
  bool write_failed_ = false;
};

// ---------------------------------------------------------------------------

HttpServer::HttpServer(QueryService* service, const HttpServerOptions& options)
    : service_(service), options_(options) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  const int pool_threads = std::max(1, service_->options().pool_threads);
  effective_max_connections_ = options_.max_connections > 0
                                   ? options_.max_connections
                                   : pool_threads - 1;
  if (effective_max_connections_ < 1 ||
      effective_max_connections_ >= pool_threads) {
    // The spare-worker invariant (file comment in the header): every
    // connection parks one pool worker, and parallel executions need at
    // least one unparked worker for their transient helper tasks.
    return Status::InvalidArgument(
        "max_connections must stay below the service's pool_threads "
        "(need >= 2 pool threads to serve HTTP)");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket(): " + std::string(strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind_address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return Status::IOError("bind(" + options_.bind_address + ":" +
                           std::to_string(options_.port) + "): " + err);
  }
  if (::listen(fd, options_.listen_backlog) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return Status::IOError("listen(): " + err);
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return Status::IOError("getsockname(): " + err);
  }
  bound_port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. Stop accepting: shutdown() wakes the blocking accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  {
    std::unique_lock<std::mutex> lock(mu_);
    // 2. Grace: in-flight connections may finish naturally (handlers
    // notice stopping_ between requests and close).
    conn_cv_.wait_for(lock, options_.drain_grace,
                      [this] { return conns_.empty(); });
    // 3. Hard-abort the stragglers: trip their request tokens and shut
    // their sockets so blocked reads/writes fail now. Looped — a handler
    // may register its active_cancel after one scan.
    while (!conns_.empty()) {
      for (auto& [id, conn] : conns_) {
        if (conn.active_cancel.has_value()) conn.active_cancel->Cancel();
        ::shutdown(conn.fd, SHUT_RDWR);
      }
      conn_cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
  }
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

  // 4. Connections are gone; drain the service itself.
  service_->Shutdown(std::chrono::milliseconds(0));
}

HttpServerStats HttpServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void HttpServer::AcceptLoop() {
  // A full canned response for the at-the-door overflow answer (written
  // from the accept thread; the rejected socket never reaches the pool).
  const std::string reject_body = ErrorBody(
      503, "Unavailable", "connection limit reached, retry with backoff");
  const std::string reject_response =
      "HTTP/1.1 503 Service Unavailable\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: " +
      std::to_string(reject_body.size()) +
      "\r\n"
      "Connection: close\r\n\r\n" +
      reject_body;

  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Out of descriptors or a listener error: back off instead of
      // spinning; Stop() still interrupts via stopping_.
      std::this_thread::sleep_for(kPollSlice);
      continue;
    }

    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // Blocking sends time out per slice; WriteAll loops them under its
    // own overall deadline.
    timeval tv{};
    tv.tv_usec = static_cast<suseconds_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(kPollSlice)
            .count());
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

    uint64_t id = 0;
    bool rejected = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int>(conns_.size()) >= effective_max_connections_) {
        rejected = true;
        ++stats_.connections_rejected;
      } else {
        id = ++next_conn_id_;
        conns_.emplace(id, Conn{fd, std::nullopt});
        ++stats_.connections_accepted;
      }
    }
    if (rejected) {
      WriteAll(fd, reject_response);
      ::close(fd);
      continue;
    }
    if (!service_->pool()->Submit(
            [this, id, fd] { ServeConnection(id, fd); })) {
      // Pool already shut down (service torn down under us).
      {
        std::lock_guard<std::mutex> lock(mu_);
        conns_.erase(id);
        --stats_.connections_accepted;
        ++stats_.connections_rejected;
      }
      conn_cv_.notify_all();
      WriteAll(fd, reject_response);
      ::close(fd);
    }
  }
}

void HttpServer::WatchdogLoop() {
  std::vector<std::pair<uint64_t, int>> watched;
  std::vector<pollfd> pfds;
  while (!stopping_.load(std::memory_order_acquire)) {
    watched.clear();
    pfds.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, conn] : conns_) {
        if (conn.active_cancel.has_value()) {
          watched.emplace_back(id, conn.fd);
        }
      }
    }
    if (!watched.empty()) {
      for (const auto& [id, fd] : watched) {
        pfds.push_back(pollfd{fd, kHangupEvents, 0});
      }
      if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 0) > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < pfds.size(); ++i) {
          if ((pfds[i].revents & kHangupRevents) == 0) continue;
          auto it = conns_.find(watched[i].first);
          // Re-check under the lock: the request may have finished (and
          // the fd even been recycled) since the snapshot.
          if (it != conns_.end() && it->second.fd == watched[i].second &&
              it->second.active_cancel.has_value()) {
            it->second.active_cancel->Cancel();
          }
        }
      }
    }
    std::this_thread::sleep_for(kWatchdogPeriod);
  }
}

void HttpServer::ServeConnection(uint64_t conn_id, int fd) {
  std::string rbuf;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!ServeOneRequest(conn_id, fd, &rbuf)) break;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.erase(conn_id);
    // Notify under the lock: once Stop() sees conns_ empty the server may
    // be destroyed, so this pool thread must not touch conn_cv_ after
    // releasing mu_.
    conn_cv_.notify_all();
  }
  // Erase-then-close: Stop() only ever shutdown()s fds still registered,
  // so a recycled descriptor number can never be hit by mistake.
  ::close(fd);
}

bool HttpServer::ServeOneRequest(uint64_t conn_id, int fd,
                                 std::string* rbuf) {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.read_timeout;

  // --- Read the header block (pipelined bytes may already be buffered).
  size_t header_end;
  while ((header_end = rbuf->find("\r\n\r\n")) == std::string::npos) {
    if (rbuf->size() > options_.max_header_bytes) break;
    // Idle close, read timeout, peer error, or Stop(): close quietly.
    if (!ReadMore(fd, rbuf, deadline)) return false;
  }
  // Oversized: no blank line within the bound, or one past it (the whole
  // oversized head can land in one read).
  if (header_end == std::string::npos ||
      header_end > options_.max_header_bytes) {
    return BadRequest(fd, 431,
                      ErrorBody(431, "ResourceExhausted",
                                "header block exceeds max_header_bytes"),
                      /*keep_alive=*/false);
  }

  HttpRequest req;
  if (!ParseRequestHead(std::string_view(*rbuf).substr(0, header_end),
                        &req)) {
    return BadRequest(
        fd, 400, ErrorBody(400, "InvalidArgument", "malformed request head"),
        /*keep_alive=*/false);
  }

  // --- Framing: explicit lengths only; bounded body.
  if (req.version != "HTTP/1.1" && req.version != "HTTP/1.0") {
    return BadRequest(
        fd, 505, ErrorBody(505, "InvalidArgument", "unsupported HTTP version"),
        /*keep_alive=*/false);
  }
  if (FindHeader(req, "transfer-encoding") != nullptr) {
    return BadRequest(fd, 411,
                      ErrorBody(411, "InvalidArgument",
                                "chunked request bodies are not supported; "
                                "send Content-Length"),
                      /*keep_alive=*/false);
  }
  uint64_t content_length = 0;
  if (const std::string* cl = FindHeader(req, "content-length")) {
    const char* begin = cl->data();
    const char* end = begin + cl->size();
    auto [ptr, ec] = std::from_chars(begin, end, content_length);
    if (cl->empty() || ec != std::errc() || ptr != end) {
      return BadRequest(
          fd, 400, ErrorBody(400, "InvalidArgument", "bad Content-Length"),
          /*keep_alive=*/false);
    }
  }
  if (content_length > options_.max_request_bytes) {
    return BadRequest(fd, 413,
                      ErrorBody(413, "ResourceExhausted",
                                "request body exceeds max_request_bytes"),
                      /*keep_alive=*/false);
  }

  bool keep_alive = req.version == "HTTP/1.1";
  if (const std::string* conn_hdr = FindHeader(req, "connection")) {
    const std::string lowered = ToLower(*conn_hdr);
    if (lowered.find("close") != std::string::npos) keep_alive = false;
    if (lowered.find("keep-alive") != std::string::npos) keep_alive = true;
  }

  if (const std::string* expect = FindHeader(req, "expect")) {
    if (ToLower(*expect).find("100-continue") != std::string::npos) {
      if (!WriteAll(fd, "HTTP/1.1 100 Continue\r\n\r\n")) return false;
    }
  }

  // --- Read the body; consume the framed request from the buffer.
  const size_t total = header_end + 4 + content_length;
  while (rbuf->size() < total) {
    if (!ReadMore(fd, rbuf, deadline)) return false;
  }
  req.body = rbuf->substr(header_end + 4, content_length);
  rbuf->erase(0, total);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }
  // A drain that began mid-read still answers this request, but the
  // connection closes right after.
  if (stopping_.load(std::memory_order_acquire)) keep_alive = false;

  // --- Route.
  if (req.method == "GET" && req.path == "/healthz") {
    const bool draining = stopping_.load(std::memory_order_acquire);
    json::Writer w;
    w.BeginObject();
    w.KV("status", draining ? "draining" : "ok");
    w.EndObject();
    return WriteResponse(fd, draining ? 503 : 200, w.str(), keep_alive) &&
           keep_alive;
  }
  if (req.method == "GET" && req.path == "/stats") {
    std::string body = "{\"service\":";
    body += wire::ServiceStatsToJson(service_->Stats());
    body += ",\"server\":";
    {
      const HttpServerStats snap = stats();
      json::Writer w;
      w.BeginObject();
      w.KV("connections_accepted", snap.connections_accepted);
      w.KV("connections_rejected", snap.connections_rejected);
      w.KV("requests", snap.requests);
      w.KV("bad_requests", snap.bad_requests);
      w.KV("aborted_responses", snap.aborted_responses);
      w.KV("bytes_read", snap.bytes_read);
      w.KV("bytes_written", snap.bytes_written);
      w.EndObject();
      body += w.str();
    }
    body += "}";
    return WriteResponse(fd, 200, body, keep_alive) && keep_alive;
  }
  if (req.path == "/query" || req.path == "/query/stream") {
    if (req.method != "POST") {
      return BadRequest(
          fd, 405,
          ErrorBody(405, "InvalidArgument", "use POST on this route"),
          keep_alive);
    }
    return HandleQuery(conn_id, fd, req.body, keep_alive,
                       /*stream=*/req.path == "/query/stream");
  }
  return BadRequest(
      fd, 404,
      wire::SerializeError(Status::NotFound("no such endpoint: " + req.path)),
      keep_alive);
}

bool HttpServer::HandleQuery(uint64_t conn_id, int fd,
                             const std::string& body, bool keep_alive,
                             bool stream) {
  Result<wire::WireRequest> wr = wire::ParseRequest(body);
  if (!wr.ok()) {
    return BadRequest(fd, StatusCodeToHttp(wr.status().code()),
                      wire::SerializeError(wr.status()), keep_alive);
  }

  // The request runs under a connection-scoped source (merging any token
  // the wire options may one day carry): the watchdog and Stop() cancel
  // through it when the client disappears.
  CancellationSource source(wr->options.cancel);
  wr->options.cancel = source.token();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it != conns_.end()) it->second.active_cancel = source;
  }
  // The service answer serialized: the /query body, or the stream's
  // summary line (its pages already left through `sink`).
  StreamSink sink(this, fd);
  Status status = Status::OK();
  std::string answer;
  bool complete = true;
  if (stream) {
    Result<StreamResponse> sr =
        service_->QueryStream(wr->query, wr->options, &sink);
    if (sr.ok()) {
      answer = wire::SerializeStreamSummary(*sr, wr->include_stats);
      complete = sr->complete;
    } else {
      status = sr.status();
    }
  } else {
    Result<QueryResponse> resp = service_->Query(wr->query, wr->options);
    if (resp.ok()) {
      answer = wire::SerializeResponse(*resp, wr->include_stats);
    } else {
      status = resp.status();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it != conns_.end()) it->second.active_cancel.reset();
  }

  if (!status.ok()) {
    // Mid-stream error after bytes already left: nothing clean to send.
    if (sink.headers_sent()) return AbortResponse();
    return WriteResponse(fd, StatusCodeToHttp(status.code()),
                         wire::SerializeError(status), keep_alive) &&
           keep_alive;
  }
  if (!stream) return WriteResponse(fd, 200, answer, keep_alive) && keep_alive;
  // The client went away (or server.write fired) mid-stream: the sink
  // already tripped the execution via its false return.
  if (sink.write_failed() || !sink.WriteChunk(answer)) return AbortResponse();
  // Cancelled / timed out: the summary line carries the flags, but the
  // chunked body stays unterminated — transports and clients both see an
  // incomplete stream.
  if (!complete) return false;
  if (!WriteAll(fd, "0\r\n\r\n")) return AbortResponse();
  return keep_alive;
}

bool HttpServer::BadRequest(int fd, int code, std::string_view body,
                            bool keep_alive) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.bad_requests;
  }
  return WriteResponse(fd, code, body, keep_alive) && keep_alive;
}

bool HttpServer::AbortResponse() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.aborted_responses;
  return false;
}

bool HttpServer::WriteResponse(int fd, int code, std::string_view body,
                               bool keep_alive) {
  if (!FaultInjector::Global().Inject(faults::kServerWrite).ok()) {
    return AbortResponse();
  }
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += ReasonPhrase(code);
  out += "\r\nContent-Type: application/json\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                    : "\r\nConnection: close\r\n\r\n";
  out += body;
  return WriteAll(fd, out) || AbortResponse();
}

bool HttpServer::ReadMore(int fd, std::string* buf,
                          std::chrono::steady_clock::time_point deadline) {
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(
        &p, 1, static_cast<int>(std::min(remaining, kPollSlice).count()));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) continue;  // slice expired; re-check stopping_/deadline
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;  // EOF or socket error
    buf->append(chunk, static_cast<size_t>(n));
    std::lock_guard<std::mutex> lock(mu_);
    stats_.bytes_read += static_cast<uint64_t>(n);
    return true;
  }
}

bool HttpServer::WriteAll(int fd, std::string_view data) {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.write_timeout;
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      std::lock_guard<std::mutex> lock(mu_);
      stats_.bytes_written += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_SNDTIMEO sliced the blocking send; keep retrying until the
      // overall write deadline (a hard-aborted socket fails the send
      // with EPIPE instead, so Stop() is never held up here).
      if (std::chrono::steady_clock::now() >= deadline) return false;
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace amber
