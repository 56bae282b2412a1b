#ifndef PAWS_NET_SERVER_H_
#define PAWS_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "util/status.h"

namespace paws {

struct FrameServerOptions {
  /// Listen address; the default binds loopback only (a deliberate
  /// default for a field-station daemon — widen explicitly).
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks a free port, reported by port().
  int port = 0;
  /// Dedicated request-dispatch threads. Deliberately NOT the shared
  /// ParallelFor pool: a request holds a park reader lock while its model
  /// scoring waits on the pool, so pool tasks must stay lock-free (the
  /// deadlock contract; PredictRiskMapTiled's tile fan-out in
  /// core/risk_map.h spells out the cycle).
  int num_workers = 4;
  /// Connections beyond this are accepted and immediately closed.
  int max_connections = 64;
  /// Per-frame allocation bound; oversized length prefixes break the
  /// connection before any payload buffering, and a response over it is
  /// replaced by a ResourceExhausted status frame.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Requests still queued this long after arrival are answered with a
  /// ResourceExhausted status frame instead of being dispatched (shed
  /// load when the workers fall behind). 0 = never expire. Answers the
  /// event thread gives itself never queue, so they are never shed.
  int request_deadline_ms = 0;
  /// Test seam: runs on the worker thread immediately before the handler
  /// (after the deadline check). Lets tests make dispatch observably slow
  /// without a timing-dependent workload.
  std::function<void()> pre_dispatch_hook_for_test;
  /// Test seams: cap a single recv()/send() to this many bytes (0 = no
  /// cap). Forces the partial-read reassembly and partial-write resume
  /// paths deterministically, instead of hoping the kernel fragments.
  size_t max_read_bytes_for_test = 0;
  size_t max_write_bytes_for_test = 0;
};

/// Portable readiness-loop frame server: one listener/event thread owns
/// every socket (poll(2)-based — the fd counts of a serving daemon are
/// tens of connections, where poll and epoll are indistinguishable and
/// poll needs no OS gating), non-blocking accept, per-connection
/// partial-frame reassembly and buffered partial writes. The event thread
/// first offers each complete frame to the optional inline handler, which
/// answers what it can without waiting (ParkServer: cache hits), and
/// writes that answer at once. Every other frame is dispatched to
/// dedicated worker threads whose responses are handed back to the event
/// thread through a self-pipe wakeup, so sockets are only ever touched
/// from one thread. Inline answers may overtake queued requests of the
/// same connection; responses carry their request's id.
///
/// Backpressure: a connection is not read while it owes
/// kMaxUnsentBytesPerConn of unwritten output or has
/// kMaxInFlightPerConn requests queued or executing, so a peer that sends
/// without reading cannot grow the daemon. A peer that shuts down its
/// write side still gets every answer it is owed before the close.
///
/// Error handling at the framing layer: a connection that sends bytes the
/// FrameParser rejects (bad magic, wrong version, oversized length
/// prefix) is counted in stats().protocol_errors and closed — the stream
/// is unrecoverable. Malformed *payloads* inside a well-framed request
/// are the handler's business (ParkServer answers them with
/// InvalidArgument status frames).
///
/// Shutdown() drains gracefully: the listener closes first, already
///-queued requests finish, their responses flush, then connections close
/// and the threads join.
class FrameServer {
 public:
  /// Produces the response frame for one request frame. Runs on a worker
  /// thread; must be thread-safe (ParkService is). An exception it throws
  /// is answered with an Internal status frame naming it, and the worker
  /// serves on.
  using Handler = std::function<Frame(const Frame&)>;
  /// Answers a request on the event thread when it can do so without
  /// waiting: returns true with `response` filled, or false to send the
  /// request to the workers. Must never block (ARCHITECTURE contract 3)
  /// and should stay O(small): every connection waits while it runs.
  using InlineHandler = std::function<bool(const Frame&, Frame* response)>;

  /// A connection is not read while it owes this much unsent output...
  static constexpr size_t kMaxUnsentBytesPerConn = size_t{1} << 20;
  /// ...or has this many requests with the workers. Both caps are far
  /// above what a client with one request in flight reaches, and neither
  /// splits a response: one larger answer still goes out whole.
  static constexpr int kMaxInFlightPerConn = 16;

  FrameServer() = default;
  ~FrameServer() { Shutdown(); }

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens and starts the event + worker threads. `try_inline`
  /// may be empty (every request goes to a worker). Fails with
  /// FailedPrecondition if already started, Internal on socket errors.
  Status Start(FrameServerOptions options, Handler handler,
               InlineHandler try_inline = nullptr);

  /// The bound port (resolves option port 0), or -1 before Start.
  int port() const { return port_; }

  /// Graceful drain; idempotent, also called by the destructor.
  void Shutdown();

  struct Stats {
    uint64_t accepted_connections = 0;
    uint64_t rejected_connections = 0;
    uint64_t active_connections = 0;
    uint64_t frames_in = 0;
    uint64_t frames_out = 0;
    uint64_t protocol_errors = 0;
    uint64_t deadline_expired = 0;
  };
  Stats stats() const;

 private:
  struct Conn {
    int fd = -1;
    FrameParser parser;
    std::string outbuf;
    size_t out_pos = 0;
    std::chrono::steady_clock::time_point last_activity;
    /// Requests dispatched but whose responses are not yet in outbuf;
    /// only the event thread touches it.
    int in_flight = 0;
    /// The parser may hold complete frames left undispatched when a
    /// backpressure cap tripped.
    bool frames_pending = false;
    /// The peer shut down its write side: nothing more to read, but the
    /// answers it is owed still go out before the close.
    bool read_closed = false;
  };

  struct Task {
    uint64_t conn_id = 0;
    Frame frame;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Response {
    uint64_t conn_id = 0;
    std::string bytes;
  };

  /// Opens the listening socket and the wake pipe, recording the bound
  /// port. On failure Start closes whatever this opened.
  Status OpenSockets();
  void EventLoop();
  void WorkerLoop();
  void WakeEventLoop();
  void AcceptNewConnections();
  /// Whether a backpressure cap stops reading and dispatching `conn`.
  static bool Backlogged(const Conn& conn);
  /// Reads whatever the socket has until a cap trips; returns false if the
  /// connection must close (error, protocol violation).
  bool ReadFromConn(uint64_t conn_id, Conn* conn);
  /// Answers inline or queues the complete frames in `conn`'s parser until
  /// it runs dry or a cap trips; returns false on a protocol violation.
  bool DispatchFrames(uint64_t conn_id, Conn* conn);
  /// The response as sent: the request's id echoed, and a response over
  /// max_frame_bytes replaced by a ResourceExhausted status frame.
  std::string FinishResponse(const Frame& request, Frame response) const;
  /// Flushes buffered output; returns false if the connection must close.
  bool WriteToConn(Conn* conn);
  void CloseConn(uint64_t conn_id);
  void DrainResponseQueue();

  FrameServerOptions options_;
  Handler handler_;
  InlineHandler try_inline_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = -1;
  bool started_ = false;

  std::thread event_thread_;
  std::vector<std::thread> workers_;

  // Connections: owned and touched by the event thread only.
  std::unordered_map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> work_queue_;
  bool workers_stop_ = false;

  std::mutex response_mu_;
  std::deque<Response> response_queue_;

  std::atomic<bool> draining_{false};
  /// Tasks dequeued by a worker whose response is not yet queued.
  std::atomic<int> tasks_executing_{0};

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> deadline_expired_{0};
};

}  // namespace paws

#endif  // PAWS_NET_SERVER_H_
