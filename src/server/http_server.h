// A dependency-free HTTP/1.1 transport over POSIX sockets for
// QueryService (docs/ARCHITECTURE.md, "Transport"). The server is a thin
// socket loop: every request/response byte layout lives in wire.h, every
// error maps through StatusCodeToHttp — one error path, no ad-hoc JSON.
//
// Endpoints:
//
//   POST /query          wire request -> wire response (one JSON object)
//   POST /query/stream   wire request -> chunked application/x-ndjson:
//                        one line per StreamPage flush, then a summary
//                        line, then the 0-chunk terminator. The PageSink
//                        handoff writes the page to the socket BEFORE the
//                        matcher advances, so a slow client exerts real
//                        TCP backpressure on the engine. A cancelled or
//                        timed-out stream still carries its summary line
//                        (flags set) but ends WITHOUT the 0-chunk
//                        terminator; a stream whose socket died ends with
//                        neither (the client sees a truncated body).
//   GET  /stats          {"service": ServiceStatsToJson, "server": {...}}
//   GET  /healthz        200 {"status":"ok"} (503 "draining" during Stop)
//
// Threading model: one blocking accept thread; each accepted connection
// runs its handler (read -> service call -> write, keep-alive loop) as a
// task on the SERVICE's ThreadPool. A connection holds its worker for
// its lifetime, so the capacity invariant is load-bearing:
// max_connections MUST stay below pool_threads — the spare worker
// guarantees parallel executions' borrowed helper tasks (which are
// transient) always eventually run, or their completion latch could wait
// on a worker that is itself a parked connection. Start() enforces it.
// Overflow connections are answered 503 from the accept thread and
// closed — load sheds at the door, exactly like admission control.
//
// Client abandonment: a watchdog thread polls executing connections'
// sockets for hangup (POLLRDHUP) every ~20 ms and trips the request's
// CancellationToken — a closed laptop lid cancels its query within one
// matcher tick window, and ServiceStats::cancelled counts it. Mid-write
// failures (and firings of the `server.write` fault site) abort the
// connection the same way.
//
// Stop() drain contract, in order: (1) stop accepting; (2) in-flight
// connections get `drain_grace` to finish naturally; (3) past it, their
// request tokens trip AND their sockets shut down, so blocked reads and
// writes fail immediately; (4) once every connection has unwound, the
// service itself is drained via QueryService::Shutdown() — afterwards
// the service rejects new work with kUnavailable permanently.

#ifndef AMBER_SERVER_HTTP_SERVER_H_
#define AMBER_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "server/query_service.h"
#include "util/status.h"

namespace amber {

struct HttpServerOptions {
  /// Bind address; tests and the bench use loopback.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (read the chosen port back from port()).
  uint16_t port = 0;
  int listen_backlog = 64;

  /// Concurrent connections served (each holds one service-pool worker).
  /// 0 = pool_threads - 1, the largest safe value; Start() rejects any
  /// setting that would leave no spare worker (see file comment).
  int max_connections = 0;

  /// Request hard bounds: the header block and the whole request
  /// (headers + body). Oversized requests answer 431 / 413 and close.
  uint64_t max_header_bytes = 8ull << 10;   // 8 KiB
  uint64_t max_request_bytes = 1ull << 20;  // 1 MiB

  /// Reading an idle keep-alive connection gives up after this long (the
  /// connection closes quietly). Also bounds mid-request read stalls.
  std::chrono::milliseconds read_timeout{10'000};
  /// A single blocked socket write gives up after this long (the
  /// connection aborts; a streaming client that stopped reading trips
  /// the request's token through the page-write failure).
  std::chrono::milliseconds write_timeout{10'000};

  /// Stop(): how long in-flight connections may finish naturally before
  /// their tokens trip and their sockets shut down.
  std::chrono::milliseconds drain_grace{1'000};
};

/// Monotonic transport counters (GET /stats ships them under "server").
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  /// Connections answered 503 at the door (over max_connections).
  uint64_t connections_rejected = 0;
  uint64_t requests = 0;
  /// Requests rejected at the transport layer (malformed framing,
  /// bounds, unknown route/method) before reaching the service.
  uint64_t bad_requests = 0;
  /// Responses abandoned mid-write (client gone, write timeout, or the
  /// server.write fault site).
  uint64_t aborted_responses = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// \brief The HTTP/1.1 transport over one QueryService. See file comment.
class HttpServer {
 public:
  /// `service` is borrowed and must outlive the server. Stop() drains the
  /// service too (QueryService::Shutdown) — a stopped server leaves the
  /// service permanently rejecting, so give each server its own service.
  HttpServer(QueryService* service, const HttpServerOptions& options = {});
  ~HttpServer();  // calls Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the accept + watchdog threads. Errors:
  /// kInvalidArgument (capacity invariant violated), kIOError (bind).
  Status Start();

  /// Graceful drain (see file comment). Idempotent; called by ~HttpServer.
  void Stop();

  /// The bound port (after Start(); useful with port = 0).
  uint16_t port() const { return bound_port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  HttpServerStats stats() const;

 private:
  /// Per-connection state, registered for the watchdog and Stop().
  struct Conn {
    int fd = -1;
    /// The in-flight request's cancel source while a service call is
    /// executing (watchdog and Stop() trip it); empty between requests.
    std::optional<CancellationSource> active_cancel;
  };

  /// The chunked-NDJSON PageSink of POST /query/stream (defined in the
  /// .cc; nested for private access to WriteAll and the stats).
  class StreamSink;

  void AcceptLoop();
  void WatchdogLoop();
  /// The keep-alive request loop of one connection (a pool task).
  void ServeConnection(uint64_t conn_id, int fd);
  /// One request/response exchange. Returns false when the connection
  /// must close (error framing, Connection: close, abort, stop).
  bool ServeOneRequest(uint64_t conn_id, int fd, std::string* rbuf);
  /// POST /query (`stream` false) and POST /query/stream (`stream`
  /// true), the service-backed routes. Returns the keep-the-connection
  /// verdict like ServeOneRequest.
  bool HandleQuery(uint64_t conn_id, int fd, const std::string& body,
                   bool keep_alive, bool stream);

  /// Answers a request rejected at the transport layer (framing, bounds,
  /// route, method, wire parse): counts it in bad_requests and writes
  /// `body` with `code`. Returns the keep-the-connection verdict.
  bool BadRequest(int fd, int code, std::string_view body, bool keep_alive);

  /// Writes one buffered JSON response (passes the server.write fault
  /// site first). False = the connection aborted mid-write.
  bool WriteResponse(int fd, int code, std::string_view body,
                     bool keep_alive);
  /// Counts a response abandoned mid-write; returns false (close).
  bool AbortResponse();

  // Socket helpers (poll-sliced so Stop() interrupts promptly).
  bool ReadMore(int fd, std::string* buf,
                std::chrono::steady_clock::time_point deadline);
  bool WriteAll(int fd, std::string_view data);

  QueryService* service_;
  HttpServerOptions options_;
  int effective_max_connections_ = 0;

  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::thread watchdog_thread_;

  mutable std::mutex mu_;
  std::condition_variable conn_cv_;  // signalled when a connection exits
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, Conn> conns_;
  HttpServerStats stats_;
};

}  // namespace amber

#endif  // AMBER_SERVER_HTTP_SERVER_H_
