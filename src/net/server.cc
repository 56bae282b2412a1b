#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>

namespace paws {

namespace {

using Clock = std::chrono::steady_clock;

Status SocketError(const std::string& what) {
  return Status::Internal("FrameServer: " + what + ": " +
                          std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return SocketError("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Frame StatusFrame(const Status& status) {
  Frame frame;
  frame.opcode = static_cast<uint32_t>(Opcode::kStatusResponse);
  frame.payload = EncodeStatusPayload(status);
  return frame;
}

}  // namespace

Status FrameServer::Start(FrameServerOptions options, Handler handler,
                          InlineHandler try_inline) {
  if (started_) {
    return Status::FailedPrecondition("FrameServer: already started");
  }
  if (handler == nullptr) {
    return Status::InvalidArgument("FrameServer: handler is required");
  }
  if (options.num_workers < 1 || options.max_connections < 1) {
    return Status::InvalidArgument(
        "FrameServer: num_workers and max_connections must be positive");
  }
  options_ = std::move(options);
  handler_ = std::move(handler);
  try_inline_ = std::move(try_inline);

  const Status opened = OpenSockets();
  if (!opened.ok()) {
    // Close whatever was opened: a failed Start must not leave a socket
    // listening (and accepting into its backlog) until the process exits.
    for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    port_ = -1;
    return opened;
  }

  draining_ = false;
  workers_stop_ = false;
  started_ = true;
  event_thread_ = std::thread([this] { EventLoop(); });
  workers_.reserve(options_.num_workers);
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

Status FrameServer::OpenSockets() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return SocketError("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("FrameServer: bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return SocketError("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return SocketError("listen");
  PAWS_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return SocketError("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_pipe_) < 0) return SocketError("pipe");
  PAWS_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[0]));
  return SetNonBlocking(wake_pipe_[1]);
}

void FrameServer::Shutdown() {
  if (!started_) return;
  draining_ = true;
  WakeEventLoop();
  event_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  for (int fd : {wake_pipe_[0], wake_pipe_[1]}) {
    if (fd >= 0) ::close(fd);
  }
  wake_pipe_[0] = wake_pipe_[1] = -1;
  started_ = false;
}

FrameServer::Stats FrameServer::stats() const {
  Stats stats;
  stats.accepted_connections = accepted_.load(std::memory_order_relaxed);
  stats.rejected_connections = rejected_.load(std::memory_order_relaxed);
  stats.active_connections = active_.load(std::memory_order_relaxed);
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.frames_out = frames_out_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  return stats;
}

void FrameServer::WakeEventLoop() {
  const char byte = 1;
  // EAGAIN means the pipe already holds a wakeup; that is enough. EINTR
  // means nothing was written yet — losing that wakeup could leave a
  // finished response sitting unflushed until the next poll timeout, so
  // retry.
  while (::write(wake_pipe_[1], &byte, 1) < 0 && errno == EINTR) {
  }
}

void FrameServer::AcceptNewConnections() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // A signal mid-accept must not abandon connections still waiting
      // in the backlog — only a drained queue (EAGAIN) or a real error
      // ends the sweep.
      if (errno == EINTR) continue;
      break;
    }
    if (conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      // Accept-then-close: leaving the connection in the backlog would
      // make poll report the listener readable forever.
      ::close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    conn.parser = FrameParser(options_.max_frame_bytes);
    conn.last_activity = Clock::now();
    conns_.emplace(next_conn_id_++, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool FrameServer::Backlogged(const Conn& conn) {
  return conn.outbuf.size() - conn.out_pos >= kMaxUnsentBytesPerConn ||
         conn.in_flight >= kMaxInFlightPerConn;
}

bool FrameServer::ReadFromConn(uint64_t conn_id, Conn* conn) {
  char buf[64 * 1024];
  size_t cap = sizeof(buf);
  if (options_.max_read_bytes_for_test > 0 &&
      options_.max_read_bytes_for_test < cap) {
    cap = options_.max_read_bytes_for_test;
  }
  while (!Backlogged(*conn)) {
    const ssize_t n = ::recv(conn->fd, buf, cap, 0);
    if (n > 0) {
      conn->last_activity = Clock::now();
      conn->parser.Append(buf, static_cast<size_t>(n));
      if (!DispatchFrames(conn_id, conn)) return false;
      continue;
    }
    if (n == 0) {
      // Orderly EOF: the peer may have only shut down its write side, and
      // it is still owed the answers to what it sent.
      conn->read_closed = true;
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

bool FrameServer::DispatchFrames(uint64_t conn_id, Conn* conn) {
  conn->frames_pending = true;
  while (!Backlogged(*conn)) {
    Frame frame;
    StatusOr<bool> got = conn->parser.Next(&frame);
    if (!got.ok()) {
      // Unrecoverable stream (bad magic / version / oversized prefix):
      // count it and close; there is no trustworthy frame to answer on.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!*got) {
      conn->frames_pending = false;
      return true;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    Frame response;
    if (try_inline_ && try_inline_(frame, &response)) {
      conn->outbuf.append(FinishResponse(frame, std::move(response)));
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ++conn->in_flight;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      work_queue_.push_back(Task{conn_id, std::move(frame), Clock::now()});
    }
    queue_cv_.notify_one();
  }
  return true;
}

std::string FrameServer::FinishResponse(const Frame& request,
                                        Frame response) const {
  response.request_id = request.request_id;
  // The peer's FrameParser treats a frame over the cap as a broken
  // stream, which a client reports as a transport error and a router
  // answers by failing over; refuse the response in a frame it can read.
  if (response.payload.size() > options_.max_frame_bytes) {
    response.opcode = static_cast<uint32_t>(Opcode::kStatusResponse);
    response.payload = EncodeStatusPayload(Status::ResourceExhausted(
        "FrameServer: " + OpcodeName(request.opcode) + " response of " +
        std::to_string(response.payload.size()) + " bytes exceeds the " +
        std::to_string(options_.max_frame_bytes) + "-byte frame cap"));
  }
  return EncodeFrame(response);
}

bool FrameServer::WriteToConn(Conn* conn) {
  while (conn->out_pos < conn->outbuf.size()) {
    size_t chunk = conn->outbuf.size() - conn->out_pos;
    if (options_.max_write_bytes_for_test > 0 &&
        options_.max_write_bytes_for_test < chunk) {
      chunk = options_.max_write_bytes_for_test;
    }
    const ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_pos,
                             chunk, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      conn->last_activity = Clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Drop the sent prefix once it outweighs the rest, so a peer that
      // reads slowly but never catches up holds a bounded buffer.
      if (conn->out_pos > conn->outbuf.size() / 2) {
        conn->outbuf.erase(0, conn->out_pos);
        conn->out_pos = 0;
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  conn->outbuf.clear();
  conn->out_pos = 0;
  return true;
}

void FrameServer::CloseConn(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  active_.fetch_sub(1, std::memory_order_relaxed);
}

void FrameServer::DrainResponseQueue() {
  std::deque<Response> responses;
  {
    std::lock_guard<std::mutex> lock(response_mu_);
    responses.swap(response_queue_);
  }
  for (Response& response : responses) {
    const auto it = conns_.find(response.conn_id);
    if (it == conns_.end()) continue;  // client went away; drop
    Conn& conn = it->second;
    conn.outbuf.append(response.bytes);
    --conn.in_flight;
    frames_out_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FrameServer::EventLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn_ids;
  while (true) {
    DrainResponseQueue();

    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (draining) {
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_empty = work_queue_.empty();
      }
      bool responses_empty;
      {
        std::lock_guard<std::mutex> lock(response_mu_);
        responses_empty = response_queue_.empty();
      }
      bool flushed = true;
      for (const auto& kv : conns_) {
        if (kv.second.out_pos < kv.second.outbuf.size() ||
            kv.second.in_flight > 0) {
          flushed = false;
          break;
        }
      }
      if (queue_empty && responses_empty && flushed &&
          tasks_executing_.load(std::memory_order_acquire) == 0) {
        break;
      }
    }

    if (!draining) {
      // Frames held back by a backpressure cap are dispatched once their
      // connection drains, without waiting for its peer to send more.
      std::vector<uint64_t> broken;
      for (auto& kv : conns_) {
        Conn& conn = kv.second;
        if (conn.frames_pending && !Backlogged(conn) &&
            !DispatchFrames(kv.first, &conn)) {
          broken.push_back(kv.first);
        }
      }
      for (uint64_t conn_id : broken) CloseConn(conn_id);
    }

    fds.clear();
    fd_conn_ids.clear();
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn_ids.push_back(0);
    }
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fd_conn_ids.push_back(0);
    for (auto& kv : conns_) {
      short events = 0;
      // During drain no new requests are read; only responses flush out.
      if (!draining && !kv.second.read_closed && !Backlogged(kv.second)) {
        events |= POLLIN;
      }
      if (kv.second.out_pos < kv.second.outbuf.size()) events |= POLLOUT;
      fds.push_back({kv.second.fd, events, 0});
      fd_conn_ids.push_back(kv.first);
    }
    // Short timeout so idle sweeps and drain checks run even when the
    // sockets are silent.
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);

    std::vector<uint64_t> to_close;
    for (size_t i = 0; i < fds.size(); ++i) {
      const pollfd& pfd = fds[i];
      if (pfd.revents == 0) continue;
      if (pfd.fd == wake_pipe_[0]) {
        char sink[256];
        while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (listen_fd_ >= 0 && pfd.fd == listen_fd_) {
        AcceptNewConnections();
        continue;
      }
      const uint64_t conn_id = fd_conn_ids[i];
      const auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
        to_close.push_back(conn_id);
        continue;
      }
      if ((pfd.revents & POLLIN) != 0 && !ReadFromConn(conn_id, &conn)) {
        to_close.push_back(conn_id);
        continue;
      }
      // Answers given inline during the read leave now, not on the next
      // pass's POLLOUT.
      if ((pfd.revents & (POLLIN | POLLOUT)) != 0 && !WriteToConn(&conn)) {
        to_close.push_back(conn_id);
        continue;
      }
      // The peer closed its end (POLLHUP) or shut down its write side
      // (EOF). Keep the connection only while it is still owed answers
      // (send may still succeed on a half-closed socket).
      if (((pfd.revents & POLLHUP) != 0 || conn.read_closed) &&
          conn.in_flight == 0 && !conn.frames_pending &&
          conn.out_pos >= conn.outbuf.size()) {
        to_close.push_back(conn_id);
      }
    }
    for (uint64_t conn_id : to_close) CloseConn(conn_id);

    if (!draining) {
      // Connections with no read activity, no queued work and nothing
      // left to write for this long are closed.
      constexpr int kIdleTimeoutMs = 60000;
      const Clock::time_point now = Clock::now();
      std::vector<uint64_t> idle;
      for (const auto& kv : conns_) {
        const Conn& conn = kv.second;
        if (conn.in_flight == 0 && conn.out_pos >= conn.outbuf.size() &&
            conn.parser.buffered_bytes() == 0 &&
            MsBetween(conn.last_activity, now) > kIdleTimeoutMs) {
          idle.push_back(kv.first);
        }
      }
      for (uint64_t conn_id : idle) CloseConn(conn_id);
    }
  }
  // Drained: everything owed has been written; close what remains.
  std::vector<uint64_t> remaining;
  remaining.reserve(conns_.size());
  for (const auto& kv : conns_) remaining.push_back(kv.first);
  for (uint64_t conn_id : remaining) CloseConn(conn_id);
}

void FrameServer::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return workers_stop_ || !work_queue_.empty();
      });
      if (work_queue_.empty()) {
        if (workers_stop_) return;
        continue;
      }
      task = std::move(work_queue_.front());
      work_queue_.pop_front();
      // Inside the lock so a drain check can never observe an empty
      // queue while this task is in limbo.
      tasks_executing_.fetch_add(1, std::memory_order_acq_rel);
    }

    Frame response;
    const bool expired =
        options_.request_deadline_ms > 0 &&
        MsBetween(task.enqueued, Clock::now()) > options_.request_deadline_ms;
    if (expired) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      response = StatusFrame(Status::ResourceExhausted(
          "FrameServer: request deadline expired before dispatch"));
    } else {
      if (options_.pre_dispatch_hook_for_test) {
        options_.pre_dispatch_hook_for_test();
      }
      // A handler that throws answers this request alone; the worker and
      // the daemon keep serving.
      try {
        response = handler_(task.frame);
      } catch (const std::exception& e) {
        response = StatusFrame(Status::Internal(
            std::string("FrameServer: handler threw: ") + e.what()));
      } catch (...) {
        response = StatusFrame(Status::Internal(
            "FrameServer: handler threw a non-standard exception"));
      }
    }
    std::string bytes = FinishResponse(task.frame, std::move(response));
    {
      std::lock_guard<std::mutex> lock(response_mu_);
      response_queue_.push_back(Response{task.conn_id, std::move(bytes)});
    }
    tasks_executing_.fetch_sub(1, std::memory_order_acq_rel);
    WakeEventLoop();
  }
}

}  // namespace paws
