#include "fabric/serve_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fabric/event_loop.h"
#include "util/error.h"

namespace phast::fabric {
namespace {

using server::MessageType;
using server::Response;

template <typename T>
bool IsReady(const std::future<T>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// One response slot in a connection's ordered queue: pre-encoded bytes
/// (control replies), a pending query future, or a swap being built.
/// Responses leave in slot order no matter which order the batching
/// scheduler or the swap builds resolve them.
struct Slot {
  std::vector<uint8_t> ready;
  std::future<Response> future;
  /// kSwap: the new epoch, resolved by a SwapWorker once CustomizeAndSwap
  /// has published it.
  std::future<uint64_t> swap_epoch;
  uint64_t id = 0;
  VertexId source = 0;
  /// Wire type of the request, so the response re-encodes as its match
  /// (kQuery / kMatrix / kNearestPoi frames differ).
  MessageType type = MessageType::kQuery;
};

struct Connection {
  int fd = -1;
  std::vector<uint8_t> inbuf;
  size_t in_head = 0;  // parse offset into inbuf
  std::deque<Slot> slots;
  std::vector<uint8_t> outbuf;
  size_t out_head = 0;  // flush offset into outbuf
  bool read_paused = false;   // backpressure: outbuf over the cap
  bool read_closed = false;   // EOF, read error, or StopInput
  bool shutdown_when_flushed = false;

  [[nodiscard]] size_t OutboundBytes() const {
    return outbuf.size() - out_head;
  }
  /// Ends input after kShutdown, a malformed frame or a failed swap: the
  /// socket is not read again and frames not yet parsed are dropped. (At
  /// EOF, frames already read are still served.)
  void StopInput() {
    read_closed = true;
    inbuf.clear();
    in_head = 0;
  }
  /// True from a kSwap's dispatch until its epoch is published. Frames
  /// after it wait unread, so a connection's control messages act in the
  /// order they were sent: an update sent after a swap is not in its
  /// epoch, and a kEpoch sent after it reports the new epoch.
  [[nodiscard]] bool SwapBuilding() const {
    return !slots.empty() && slots.back().swap_epoch.valid() &&
           !IsReady(slots.back().swap_epoch);
  }
};

/// A kSwap build running off the loop thread. The front end owns it rather
/// than the slot, so closing a connection mid-build never waits for the
/// build; finished workers are joined on the next wake, the rest when the
/// loop exits.
struct SwapWorker {
  std::atomic<bool> done{false};
  std::jthread thread;
};

class FrontEnd {
 public:
  FrontEnd(int listen_fd, server::OracleService& service,
           server::MetricsRegistry& metrics, const FrontEndOptions& options,
           const volatile std::sig_atomic_t* stop_signal)
      : listen_fd_(listen_fd),
        service_(service),
        metrics_(metrics),
        options_(options),
        stop_signal_(stop_signal),
        connections_gauge_(metrics.GetGauge(
            "phast_server_open_connections",
            "Connections currently registered with the event loop")) {}

  bool Serve() {
    // The accept loop drains until EAGAIN, which needs a nonblocking
    // listener (ListenUnix hands out a blocking one).
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    Require(flags >= 0 &&
                ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) == 0,
            "cannot make listen socket nonblocking");
    loop_.OnWake([this] { OnWake(); });
    loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAccept(); });
    loop_.Run();
    swap_workers_.clear();  // joins builds still running at a signal stop
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    connections_gauge_.Set(0);
    return got_shutdown_;
  }

  /// Wake() is async-signal-safe (one eventfd write), so signal handlers
  /// may poke the loop through this.
  EventLoop& Loop() { return loop_; }

 private:
  void OnWake() {
    if (stop_signal_ != nullptr && *stop_signal_ != 0) {
      loop_.Stop();
      return;
    }
    swap_workers_.remove_if([](const SwapWorker& worker) {
      return worker.done.load();
    });
    // Completions do not say which connection they belong to — pump them
    // all. Connection counts per process stay small (the fabric scales by
    // replicas, not by fan-in), so this is a handful of head-of-queue
    // future polls.
    std::vector<int> close_list;
    for (auto& [fd, conn] : conns_) {
      if (Pump(*conn)) close_list.push_back(fd);
    }
    for (const int fd : close_list) Close(fd);
  }

  void OnAccept() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN (drained) or transient error: next tick
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      Connection* raw = conn.get();
      conns_.emplace(fd, std::move(conn));
      connections_gauge_.Set(static_cast<int64_t>(conns_.size()));
      loop_.Add(fd, EPOLLIN, [this, raw](uint32_t events) {
        OnConnectionEvent(*raw, events);
      });
    }
  }

  void OnConnectionEvent(Connection& conn, uint32_t events) {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      // The peer is gone: nothing sent from here on can be read, and
      // waiting for pending slots would spin on the level-triggered hangup.
      Close(conn.fd);
      return;
    }
    if ((events & EPOLLIN) != 0 && !conn.read_closed && !conn.read_paused &&
        !conn.SwapBuilding()) {
      Read(conn);
    }
    if (Pump(conn)) Close(conn.fd);
  }

  void Read(Connection& conn) {
    uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t r = ::read(conn.fd, chunk, sizeof(chunk));
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        conn.read_closed = true;
        break;
      }
      if (r == 0) {
        conn.read_closed = true;
        break;
      }
      conn.inbuf.insert(conn.inbuf.end(), chunk, chunk + r);
      // A pipelining client can stuff many frames into one read; stop
      // pulling more once backpressure kicks in mid-buffer.
      if (conn.OutboundBytes() > options_.max_outbound_bytes) break;
    }
  }

  /// Dispatches every complete buffered frame, stopping behind a kSwap
  /// until its epoch is published (Pump resumes from there).
  void ParseFrames(Connection& conn) {
    try {
      while (!conn.SwapBuilding()) {
        const size_t available = conn.inbuf.size() - conn.in_head;
        if (available < sizeof(uint32_t)) break;
        uint32_t len = 0;
        std::memcpy(&len, conn.inbuf.data() + conn.in_head, sizeof(len));
        Require(len <= server::kMaxFrameBytes,
                "protocol frame exceeds 1 GiB");
        if (available < sizeof(uint32_t) + len) break;
        const std::span<const uint8_t> payload(
            conn.inbuf.data() + conn.in_head + sizeof(uint32_t), len);
        conn.in_head += sizeof(uint32_t) + len;
        Dispatch(conn, payload);
      }
    } catch (const std::exception&) {
      // Malformed frame: stop reading, flush what we owe, close.
      conn.StopInput();
    }
    // Compact once the parsed prefix dominates the buffer.
    if (conn.in_head > 0 && conn.in_head * 2 >= conn.inbuf.size()) {
      conn.inbuf.erase(conn.inbuf.begin(),
                       conn.inbuf.begin() +
                           static_cast<ptrdiff_t>(conn.in_head));
      conn.in_head = 0;
    }
  }

  void Dispatch(Connection& conn, std::span<const uint8_t> payload) {
    const MessageType type = server::PeekType(payload);
    Slot slot;
    slot.id = server::PeekId(payload);
    if (type == MessageType::kQuery || type == MessageType::kMatrix ||
        type == MessageType::kNearestPoi) {
      server::QueryFrame query =
          type == MessageType::kQuery     ? server::DecodeQuery(payload)
          : type == MessageType::kMatrix  ? server::DecodeMatrixQuery(payload)
                                          : server::DecodePoiQuery(payload);
      // The wire frame id is the request-scoped trace id, as in the
      // synchronous front end.
      query.request.trace_id = query.id;
      slot.source = query.request.source;
      slot.type = type;
      slot.future = service_.Submit(std::move(query.request),
                                    [this] { loop_.Wake(); });
    } else if (type == MessageType::kMetrics) {
      slot.ready =
          server::EncodeMetricsText(slot.id, metrics_.RenderPrometheus());
    } else if (type == MessageType::kUpdateWeights) {
      Require(options_.conn.manager != nullptr,
              "weight updates need a customizable snapshot "
              "(phast_prepare --customizable)");
      const std::vector<server::WeightUpdate> updates =
          server::DecodeWeightUpdates(payload);
      const uint64_t seq = options_.conn.manager->UpdateWeights(updates);
      slot.ready =
          server::EncodeValueReply(MessageType::kUpdateWeights, slot.id, seq);
    } else if (type == MessageType::kSwap) {
      Require(options_.conn.manager != nullptr,
              "snapshot swaps need a customizable snapshot "
              "(phast_prepare --customizable)");
      // The build runs off the loop (see the header contract): reads keep
      // being answered under the current epoch until the new one is
      // published, and the worker wakes the loop to send the ack.
      std::promise<uint64_t> epoch;
      slot.swap_epoch = epoch.get_future();
      SwapWorker& worker = swap_workers_.emplace_back();
      worker.thread = std::jthread(
          [this, &worker, epoch = std::move(epoch)]() mutable {
            try {
              epoch.set_value(options_.conn.manager->CustomizeAndSwap(
                  options_.conn.customize_threads));
            } catch (...) {
              epoch.set_exception(std::current_exception());
            }
            worker.done.store(true);
            loop_.Wake();
          });
    } else if (type == MessageType::kEpoch) {
      const uint64_t epoch = options_.conn.manager != nullptr
                                 ? options_.conn.manager->Epoch()
                                 : 0;
      slot.ready =
          server::EncodeValueReply(MessageType::kEpoch, slot.id, epoch);
    } else {
      slot.ready = server::EncodeControl(MessageType::kShutdown, slot.id);
      conn.shutdown_when_flushed = true;
      conn.StopInput();  // later frames are ignored; payload is not read again
    }
    conn.slots.push_back(std::move(slot));
  }

  /// Parses the frames it may, moves resolved head slots into the outbound
  /// buffer, flushes, and refreshes epoll interest. Returns true when the
  /// connection is done and should be closed.
  bool Pump(Connection& conn) {
    ParseFrames(conn);
    while (!conn.slots.empty()) {
      Slot& head = conn.slots.front();
      if (head.swap_epoch.valid()) {
        if (!IsReady(head.swap_epoch)) break;
        try {
          AppendFrame(conn, server::EncodeValueReply(
                                MessageType::kSwap, head.id,
                                head.swap_epoch.get()));
        } catch (const std::exception&) {
          // A failed build fails the connection, as a malformed frame
          // does: what precedes it is flushed, nothing after it is sent.
          conn.StopInput();
          conn.slots.clear();
          break;
        }
      } else if (!head.ready.empty()) {
        AppendFrame(conn, head.ready);
      } else if (IsReady(head.future)) {
        const Response response = head.future.get();
        if (options_.conn.slow_ms > 0.0 &&
            response.latency_ms >= options_.conn.slow_ms) {
          std::fprintf(stderr,
                       "phast_serve: slow request trace_id=%llu source=%u "
                       "status=%s latency_ms=%.3f\n",
                       static_cast<unsigned long long>(head.id), head.source,
                       server::ToString(response.status),
                       response.latency_ms);
        }
        AppendFrame(conn,
                    server::EncodeResponseFor(head.type, head.id, response));
      } else {
        break;  // head still computing; later slots must wait their turn
      }
      conn.slots.pop_front();
    }

    if (!Flush(conn)) return true;  // peer is gone

    const bool drained = conn.OutboundBytes() == 0;
    if (conn.shutdown_when_flushed && conn.slots.empty() && drained) {
      got_shutdown_ = true;
    }
    // A shutdown stops the loop once every swap already dispatched, on any
    // connection, has sent its reply. Serve() closes everything after Run
    // returns.
    if (got_shutdown_ && !AnySwapQueued()) {
      loop_.Stop();
      return false;
    }
    if (conn.read_closed && conn.slots.empty() && drained) return true;

    // Backpressure: pause reads while the peer is behind on draining.
    conn.read_paused = conn.OutboundBytes() > options_.max_outbound_bytes;
    uint32_t events = 0;
    if (!conn.read_closed && !conn.read_paused && !conn.SwapBuilding()) {
      events |= EPOLLIN;
    }
    if (!drained) events |= EPOLLOUT;
    loop_.Modify(conn.fd, events);
    return false;
  }

  [[nodiscard]] bool AnySwapQueued() const {
    for (const auto& [fd, conn] : conns_) {
      for (const Slot& slot : conn->slots) {
        if (slot.swap_epoch.valid()) return true;
      }
    }
    return false;
  }

  void AppendFrame(Connection& conn, std::span<const uint8_t> payload) {
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const auto* len_bytes = reinterpret_cast<const uint8_t*>(&len);
    conn.outbuf.insert(conn.outbuf.end(), len_bytes, len_bytes + sizeof(len));
    conn.outbuf.insert(conn.outbuf.end(), payload.begin(), payload.end());
  }

  /// Writes as much outbound as the socket takes. False = fatal write
  /// error (connection must close).
  bool Flush(Connection& conn) {
    while (conn.out_head < conn.outbuf.size()) {
      const ssize_t w = ::write(conn.fd, conn.outbuf.data() + conn.out_head,
                                conn.outbuf.size() - conn.out_head);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      conn.out_head += static_cast<size_t>(w);
    }
    if (conn.out_head == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_head = 0;
    } else if (conn.out_head >= (1u << 20)) {
      conn.outbuf.erase(conn.outbuf.begin(),
                        conn.outbuf.begin() +
                            static_cast<ptrdiff_t>(conn.out_head));
      conn.out_head = 0;
    }
    return true;
  }

  void Close(int fd) {
    loop_.Remove(fd);
    ::close(fd);
    conns_.erase(fd);
    connections_gauge_.Set(static_cast<int64_t>(conns_.size()));
  }

  const int listen_fd_;
  server::OracleService& service_;
  server::MetricsRegistry& metrics_;
  const FrontEndOptions options_;
  const volatile std::sig_atomic_t* stop_signal_;
  server::Gauge& connections_gauge_;

  EventLoop loop_;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  /// Declared after loop_ and conns_ so the workers, which wake loop_, are
  /// joined first.
  std::list<SwapWorker> swap_workers_;
  bool got_shutdown_ = false;
};

}  // namespace

bool RunFrontEnd(int listen_fd, server::OracleService& service,
                 server::MetricsRegistry& metrics,
                 const FrontEndOptions& options,
                 const volatile std::sig_atomic_t* stop_signal) {
  FrontEnd front_end(listen_fd, service, metrics, options, stop_signal);
  return front_end.Serve();
}

}  // namespace phast::fabric
