// phast_router — multi-process replica fan-out for the serving fabric
// (DESIGN.md §12).
//
// One router process fronts N phast_serve replicas that all map the SAME
// PHSNAP02 snapshot (one page-cache copy of the arrays, N schedulers).
// Clients speak the ordinary serving protocol (server/protocol.h) to the
// router's socket; the router:
//
//   - routes each kQuery (and kNearestPoi) to a replica by consistent hash
//     of its *source* (fabric/router.h), keeping every replica's epoch-keyed
//     tree cache hot for the sources it owns;
//   - fans each kMatrix table out by row: the source list is partitioned
//     across replicas by the same source hash
//     (PartitionMatrixSources), the per-replica sub-tables are merged back
//     into the client's row order (MergeMatrixRows), and the response epoch
//     is the max across sub-responses. A sub-table shed by any replica
//     sheds the whole table;
//   - rewrites frame ids to router-scoped ids on the way down and back, and
//     merges responses back in per-client request order;
//   - on replica death (EOF on its connection): marks the ring arc dead,
//     retries each in-flight query once on the surviving owner, and sheds
//     (kShedShutdown) when no retry target exists — so the accounting
//     identity admitted == completed + shed holds across a kill;
//   - broadcasts the epoch-coherence messages (kUpdateWeights, kSwap,
//     kEpoch, kShutdown) to every alive replica and answers the client only
//     after all acks arrive, requiring the replicas to agree on the value —
//     a swap either moves the whole fabric to the new epoch or fails loudly.
//     All but kShutdown travel on a second, control connection per replica,
//     so queries keep flowing while a replica builds a swap; kShutdown
//     waits until every control broadcast ahead of it is acked;
//   - serves kMetrics from its own registry, reusing the
//     phast_server_requests_{admitted,completed,shed}_total names so
//     existing load generators (phast_loadgen --check-metrics) audit the
//     fabric unchanged, plus per-replica phast_router_replica_up_<i> health
//     gauges.
//
// Everything runs on one level-triggered epoll loop (fabric/event_loop.h):
// client and replica connections are nonblocking, pipelined, and
// write-buffered with backpressure.
//
//   phast_router --snapshot=g.snap --socket=/tmp/router.sock --replicas=2
//   phast_router --socket=/tmp/router.sock --attach=/tmp/r0.sock,/tmp/r1.sock
//
// With --replicas the router spawns the phast_serve binary next to its own
// executable (override with --serve-bin) and tears the children down at
// shutdown; with --attach it fans out over externally managed replicas.
// Exit code 0 = clean shutdown, 2 = usage error.
#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/event_loop.h"
#include "fabric/router.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/service.h"
#include "util/cli.h"
#include "util/error.h"

namespace {

volatile std::sig_atomic_t g_signaled = 0;
void HandleSignal(int) { g_signaled = 1; }

}  // namespace

namespace phast::fabric {
namespace {

using server::MessageType;

constexpr size_t kMaxOutboundBytes = 4u << 20;

/// Byte offset of the u32 source field inside a kQuery payload
/// (u8 type, u64 id, f64 deadline, then the source).
constexpr size_t kQuerySourceOffset = 1 + 8 + 8;

/// Same for a kNearestPoi payload, whose v2 version byte sits between the
/// id and the deadline (u8 type, u64 id, u8 version, f64 deadline).
constexpr size_t kPoiSourceOffset = 1 + 8 + 1 + 8;

void PutFrameId(std::vector<uint8_t>& payload, uint64_t id) {
  Require(payload.size() >= 9, "frame too short for an id rewrite");
  std::memcpy(payload.data() + 1, &id, sizeof(id));  // LE host, as the wire
}

struct ClientSlot {
  bool ready = false;
  std::vector<uint8_t> payload;
};

struct ClientConn {
  int fd = -1;
  std::vector<uint8_t> inbuf;
  size_t in_head = 0;
  std::deque<ClientSlot> slots;  // responses leave in this order
  std::vector<uint8_t> outbuf;
  size_t out_head = 0;
  bool read_closed = false;
  bool read_paused = false;

  [[nodiscard]] size_t OutboundBytes() const {
    return outbuf.size() - out_head;
  }
};

/// One buffered connection to a replica.
struct ReplicaLink {
  int fd = -1;
  std::vector<uint8_t> inbuf;
  size_t in_head = 0;
  std::vector<uint8_t> outbuf;
  size_t out_head = 0;
};

struct Replica {
  /// Queries, matrix slices and kShutdown travel on `data`; kUpdateWeights,
  /// kSwap and kEpoch on `control`. A replica answers each connection in
  /// request order, so a swap on the query connection would hold back
  /// every query sent after it until the build finished. kShutdown stays
  /// behind the queries it must drain, and leaves only once every control
  /// broadcast has its acks. The other three stay ordered among themselves:
  /// a swap sees every update sent before it and none sent after it.
  ReplicaLink data;
  ReplicaLink control;
  pid_t pid = -1;  // -1 when attached rather than spawned
  std::string socket_path;
  server::Gauge* up = nullptr;
};

/// One routed query awaiting its replica's answer. `frame` keeps the
/// forwarded payload (internal id already in place) so a replica death can
/// replay it once on the surviving owner.
struct PendingQuery {
  ClientConn* client = nullptr;  // null: client left; drop the answer
  ClientSlot* slot = nullptr;    // stable (deque) while client is alive
  uint64_t client_id = 0;
  uint32_t source = 0;
  size_t replica = 0;
  bool retried = false;
  /// Wire type of the routed frame (kQuery or kNearestPoi) — a shed must
  /// answer in the same dialect the client spoke.
  MessageType type = MessageType::kQuery;
  std::vector<uint8_t> frame;
};

/// One client kMatrix table being assembled from per-replica sub-tables.
struct MatrixOp {
  ClientConn* client = nullptr;
  ClientSlot* slot = nullptr;
  uint64_t client_id = 0;
  size_t cols = 0;
  size_t outstanding = 0;  // sub-requests still unanswered
  std::vector<uint32_t> table;  // rows x cols, scattered into as subs land
  uint64_t epoch = 0;           // max across sub-responses
  double latency_ms = 0.0;      // max across sub-responses
  server::ResponseStatus status = server::ResponseStatus::kOk;
};

/// One per-replica slice of a MatrixOp, replayable once on replica death.
struct PendingSub {
  std::shared_ptr<MatrixOp> op;
  std::vector<uint32_t> rows;  // partition row indices into the client table
  std::vector<VertexId> sub_sources;  // row sources, for the retry re-pick
  size_t replica = 0;
  bool retried = false;
  std::vector<uint8_t> frame;
};

/// One fan-out control message (kUpdateWeights/kSwap/kEpoch/kShutdown)
/// awaiting every alive replica's ack.
struct Broadcast {
  ClientConn* client = nullptr;
  ClientSlot* slot = nullptr;
  uint64_t client_id = 0;
  MessageType type = MessageType::kEpoch;
  std::vector<uint8_t> frame;  // the client's frame, re-stamped per replica
  size_t outstanding = 0;
  std::vector<uint64_t> values;  // one per value-carrying ack
};

class Router {
 public:
  Router(int listen_fd, std::vector<Replica> replicas,
         server::MetricsRegistry& metrics, uint32_t vnodes)
      : listen_fd_(listen_fd),
        replicas_(std::move(replicas)),
        ring_(replicas_.size(), vnodes),
        metrics_(metrics),
        admitted_(metrics.GetCounter("phast_server_requests_admitted_total",
                                     "Queries accepted by the router")),
        completed_(
            metrics.GetCounter("phast_server_requests_completed_total",
                               "Queries answered by a replica")),
        shed_(metrics.GetCounter("phast_server_requests_shed_total",
                                 "Queries shed by the router")),
        retries_(metrics.GetCounter(
            "phast_router_retries_total",
            "Queries replayed on another replica after a death")),
        deaths_(metrics.GetCounter("phast_router_replica_deaths_total",
                                   "Replica connections lost")),
        alive_gauge_(metrics.GetGauge("phast_router_replicas_alive",
                                      "Replicas currently serving")) {
    alive_gauge_.Set(static_cast<int64_t>(ring_.NumAlive()));
  }

  /// Returns true on clean (client-initiated) shutdown.
  bool Run() {
    // The accept loop drains until EAGAIN, which needs a nonblocking
    // listener (ListenUnix hands out a blocking one).
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    Require(flags >= 0 &&
                ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) == 0,
            "cannot make listen socket nonblocking");
    loop_.OnWake([this] {
      if (g_signaled != 0) loop_.Stop();
    });
    loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAccept(); });
    for (size_t i = 0; i < replicas_.size(); ++i) {
      for (ReplicaLink* link : {&replicas_[i].data, &replicas_[i].control}) {
        loop_.Add(link->fd, EPOLLIN, [this, i, link](uint32_t events) {
          OnReplicaEvent(i, *link, events);
          DrainDeadReplicas();
        });
      }
    }
    loop_.Run();
    for (auto& [fd, client] : clients_) ::close(fd);
    clients_.clear();
    return got_shutdown_;
  }

 private:
  // --- client side ---------------------------------------------------------

  void OnAccept() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      auto client = std::make_unique<ClientConn>();
      client->fd = fd;
      ClientConn* raw = client.get();
      clients_.emplace(fd, std::move(client));
      loop_.Add(fd, EPOLLIN, [this, raw](uint32_t events) {
        OnClientEvent(*raw, events);
        DrainDeadReplicas();
      });
    }
  }

  void OnClientEvent(ClientConn& client, uint32_t events) {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) client.read_closed = true;
    if ((events & EPOLLIN) != 0 && !client.read_closed &&
        !client.read_paused) {
      ReadClient(client);
    }
    if (PumpClient(client)) CloseClient(client.fd);
    MaybeStop();
  }

  void ReadClient(ClientConn& client) {
    uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t r = ::read(client.fd, chunk, sizeof(chunk));
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        client.read_closed = true;
        break;
      }
      if (r == 0) {
        client.read_closed = true;
        break;
      }
      client.inbuf.insert(client.inbuf.end(), chunk, chunk + r);
      if (client.OutboundBytes() > kMaxOutboundBytes) break;
    }
    try {
      for (;;) {
        const size_t available = client.inbuf.size() - client.in_head;
        if (available < sizeof(uint32_t)) break;
        uint32_t len = 0;
        std::memcpy(&len, client.inbuf.data() + client.in_head, sizeof(len));
        Require(len <= server::kMaxFrameBytes,
                "protocol frame exceeds 1 GiB");
        if (available < sizeof(uint32_t) + len) break;
        const std::span<const uint8_t> payload(
            client.inbuf.data() + client.in_head + sizeof(uint32_t), len);
        client.in_head += sizeof(uint32_t) + len;
        DispatchClientFrame(client, payload);
        if (client.read_closed) break;
      }
    } catch (const std::exception&) {
      client.read_closed = true;  // malformed frame: flush what we owe, close
    }
    if (client.in_head > 0 && client.in_head * 2 >= client.inbuf.size()) {
      client.inbuf.erase(client.inbuf.begin(),
                         client.inbuf.begin() +
                             static_cast<ptrdiff_t>(client.in_head));
      client.in_head = 0;
    }
  }

  void DispatchClientFrame(ClientConn& client,
                           std::span<const uint8_t> payload) {
    const MessageType type = server::PeekType(payload);
    const uint64_t client_id = server::PeekId(payload);
    client.slots.emplace_back();
    ClientSlot* slot = &client.slots.back();

    if (type == MessageType::kQuery || type == MessageType::kNearestPoi) {
      admitted_.Inc();
      const size_t source_offset = type == MessageType::kQuery
                                       ? kQuerySourceOffset
                                       : kPoiSourceOffset;
      Require(payload.size() >= source_offset + sizeof(uint32_t),
              "short query frame");
      uint32_t source = 0;
      std::memcpy(&source, payload.data() + source_offset, sizeof(source));
      if (ring_.NumAlive() == 0) {
        ShedInto(*slot, client_id, type);
        return;
      }
      PendingQuery pending;
      pending.client = &client;
      pending.slot = slot;
      pending.client_id = client_id;
      pending.source = source;
      pending.replica = ring_.Pick(source);
      pending.type = type;
      pending.frame.assign(payload.begin(), payload.end());
      const uint64_t iid = next_internal_id_++;
      PutFrameId(pending.frame, iid);
      SendToReplica(pending.replica, replicas_[pending.replica].data,
                    pending.frame);
      pending_.emplace(iid, std::move(pending));
    } else if (type == MessageType::kMatrix) {
      admitted_.Inc();
      // Decode (validating version and size limits) so the source list can
      // be partitioned into per-replica sub-tables.
      server::QueryFrame query = server::DecodeMatrixQuery(payload);
      if (ring_.NumAlive() == 0) {
        ShedInto(*slot, client_id, type);
        return;
      }
      auto op = std::make_shared<MatrixOp>();
      op->client = &client;
      op->slot = slot;
      op->client_id = client_id;
      op->cols = query.request.targets.size();
      op->table.assign(query.request.sources.size() * op->cols, 0);
      const std::vector<MatrixPartition> partitions =
          PartitionMatrixSources(ring_, query.request.sources);
      for (const MatrixPartition& part : partitions) {
        PendingSub sub;
        sub.op = op;
        sub.rows = part.rows;
        sub.replica = part.replica;
        server::Request sub_request;
        sub_request.kind = server::RequestKind::kMatrix;
        sub_request.deadline_ms = query.request.deadline_ms;
        sub_request.targets = query.request.targets;
        sub_request.sources.reserve(part.rows.size());
        for (const uint32_t row : part.rows) {
          sub_request.sources.push_back(query.request.sources[row]);
        }
        sub.sub_sources = sub_request.sources;
        const uint64_t iid = next_internal_id_++;
        sub.frame = server::EncodeMatrixQuery(iid, sub_request);
        ++op->outstanding;
        SendToReplica(sub.replica, replicas_[sub.replica].data, sub.frame);
        matrix_waits_.emplace(iid, std::move(sub));
      }
    } else if (type == MessageType::kMetrics) {
      slot->payload =
          server::EncodeMetricsText(client_id, metrics_.RenderPrometheus());
      slot->ready = true;
    } else if (type == MessageType::kUpdateWeights ||
               type == MessageType::kSwap || type == MessageType::kEpoch) {
      StartBroadcast(client, slot, client_id, type, payload);
    } else {  // kShutdown: ack only after every replica drained and acked
      got_shutdown_pending_ = true;
      client.read_closed = true;
      StartBroadcast(client, slot, client_id, MessageType::kShutdown,
                     payload);
    }
  }

  /// Fans a control frame out to every alive replica; the client's slot
  /// resolves when all acks are in (immediately when none is alive).
  void StartBroadcast(ClientConn& client, ClientSlot* slot,
                      uint64_t client_id, MessageType type,
                      std::span<const uint8_t> payload) {
    auto op = std::make_shared<Broadcast>();
    op->client = &client;
    op->slot = slot;
    op->client_id = client_id;
    op->type = type;
    op->frame.assign(payload.begin(), payload.end());
    if (type == MessageType::kShutdown && ControlInFlight()) {
      // kShutdown travels on the data link, which is not ordered against
      // the control link: a replica could stop before it has read, or
      // acked, a swap sent ahead of it. Hold it until every control
      // broadcast has its acks (ReleaseHeldShutdowns).
      held_shutdowns_.push_back(std::move(op));
      return;
    }
    SendBroadcast(op);
  }

  void SendBroadcast(const std::shared_ptr<Broadcast>& op) {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (!ring_.IsAlive(i)) continue;
      std::vector<uint8_t> frame = op->frame;
      const uint64_t iid = next_internal_id_++;
      PutFrameId(frame, iid);
      broadcast_waits_.emplace(iid, std::make_pair(op, i));
      ++op->outstanding;
      Replica& replica = replicas_[i];
      SendToReplica(i,
                    op->type == MessageType::kShutdown ? replica.data
                                                       : replica.control,
                    frame);
    }
    if (op->outstanding == 0) CompleteBroadcast(*op);
  }

  /// A kUpdateWeights/kSwap/kEpoch broadcast still awaits an ack.
  [[nodiscard]] bool ControlInFlight() const {
    for (const auto& [iid, wait] : broadcast_waits_) {
      if (wait.first->type != MessageType::kShutdown) return true;
    }
    return false;
  }

  void ReleaseHeldShutdowns() {
    if (held_shutdowns_.empty() || ControlInFlight()) return;
    std::vector<std::shared_ptr<Broadcast>> held;
    held.swap(held_shutdowns_);
    for (const std::shared_ptr<Broadcast>& op : held) {
      SendBroadcast(op);
      // With no replica alive the ack is immediate and no replica event
      // will pump the client.
      if (op->outstanding == 0 && op->client != nullptr &&
          PumpClient(*op->client)) {
        CloseClient(op->client->fd);
      }
    }
  }

  void CompleteBroadcast(Broadcast& op) {
    if (op.type == MessageType::kShutdown) got_shutdown_ = true;
    if (op.client == nullptr) return;
    if (op.type == MessageType::kShutdown) {
      op.slot->payload =
          server::EncodeControl(MessageType::kShutdown, op.client_id);
    } else {
      // The epoch-coherence contract: every replica must report the same
      // value (same overlay seq, same epoch). Divergence is a fabric bug —
      // fail the client loudly rather than answer with one replica's view.
      bool coherent = !op.values.empty();
      for (const uint64_t v : op.values) coherent &= v == op.values.front();
      if (!coherent) {
        std::fprintf(stderr,
                     "phast_router: replicas disagree on message type %u "
                     "(%zu acks); failing the connection\n",
                     static_cast<unsigned>(op.type), op.values.size());
        op.client->read_closed = true;
        op.slot->ready = true;  // empty payload: nothing to send
        return;
      }
      op.slot->payload = server::EncodeValueReply(op.type, op.client_id,
                                                  op.values.front());
    }
    op.slot->ready = true;
  }

  void ShedInto(ClientSlot& slot, uint64_t client_id,
                MessageType type = MessageType::kQuery) {
    server::Response response;
    response.status = server::ResponseStatus::kShedShutdown;
    slot.payload = server::EncodeResponseFor(type, client_id, response);
    slot.ready = true;
    shed_.Inc();
  }

  /// Resolves a fully-answered (or shed) matrix fan-out into its client
  /// slot. The merged table leaves only when every sub-table answered ok.
  void CompleteMatrix(MatrixOp& op) {
    const bool ok = op.status == server::ResponseStatus::kOk;
    if (ok) {
      completed_.Inc();
    } else {
      shed_.Inc();
    }
    if (op.client == nullptr) return;
    server::Response response;
    response.status = op.status;
    response.epoch = op.epoch;
    response.latency_ms = op.latency_ms;
    response.rows = static_cast<uint32_t>(op.cols == 0
                                              ? 0
                                              : op.table.size() / op.cols);
    response.cols = static_cast<uint32_t>(op.cols);
    if (ok) response.distances = std::move(op.table);
    op.slot->payload = server::EncodeMatrixResponse(op.client_id, response);
    op.slot->ready = true;
  }

  /// Drains ready head slots, flushes, refreshes epoll interest. True =
  /// close the connection.
  bool PumpClient(ClientConn& client) {
    while (!client.slots.empty() && client.slots.front().ready) {
      if (!client.slots.front().payload.empty()) {
        AppendFrame(client.outbuf, client.slots.front().payload);
      }
      client.slots.pop_front();
    }
    if (!FlushFd(client.fd, client.outbuf, client.out_head)) return true;
    const bool drained = client.OutboundBytes() == 0;
    if (client.read_closed && client.slots.empty() && drained) return true;
    client.read_paused = client.OutboundBytes() > kMaxOutboundBytes;
    uint32_t events = 0;
    if (!client.read_closed && !client.read_paused) events |= EPOLLIN;
    if (!drained) events |= EPOLLOUT;
    loop_.Modify(client.fd, events);
    return false;
  }

  void CloseClient(int fd) {
    const auto it = clients_.find(fd);
    if (it == clients_.end()) return;
    ClientConn* client = it->second.get();
    // Outstanding work keeps running; the answers are dropped on arrival.
    for (auto& [iid, pending] : pending_) {
      if (pending.client == client) {
        pending.client = nullptr;
        pending.slot = nullptr;
      }
    }
    for (auto& [iid, sub] : matrix_waits_) {
      if (sub.op->client == client) {
        sub.op->client = nullptr;
        sub.op->slot = nullptr;
      }
    }
    for (auto& [iid, wait] : broadcast_waits_) {
      if (wait.first->client == client) {
        wait.first->client = nullptr;
        wait.first->slot = nullptr;
      }
    }
    for (const std::shared_ptr<Broadcast>& op : held_shutdowns_) {
      if (op->client == client) {
        op->client = nullptr;
        op->slot = nullptr;
      }
    }
    loop_.Remove(fd);
    ::close(fd);
    clients_.erase(it);
    MaybeStop();
  }

  // --- replica side --------------------------------------------------------

  void OnReplicaEvent(size_t idx, ReplicaLink& link, uint32_t events) {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      MarkReplicaDead(idx);
      return;
    }
    if ((events & EPOLLOUT) != 0 &&
        !FlushFd(link.fd, link.outbuf, link.out_head)) {
      MarkReplicaDead(idx);
      return;
    }
    if ((events & EPOLLIN) == 0) return;
    uint8_t chunk[64 * 1024];
    bool dead = false;
    for (;;) {
      const ssize_t r = ::read(link.fd, chunk, sizeof(chunk));
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        dead = true;
        break;
      }
      if (r == 0) {
        dead = true;
        break;
      }
      link.inbuf.insert(link.inbuf.end(), chunk, chunk + r);
    }
    try {
      for (;;) {
        const size_t available = link.inbuf.size() - link.in_head;
        if (available < sizeof(uint32_t)) break;
        uint32_t len = 0;
        std::memcpy(&len, link.inbuf.data() + link.in_head, sizeof(len));
        Require(len <= server::kMaxFrameBytes,
                "protocol frame exceeds 1 GiB");
        if (available < sizeof(uint32_t) + len) break;
        const std::span<const uint8_t> payload(
            link.inbuf.data() + link.in_head + sizeof(uint32_t), len);
        link.in_head += sizeof(uint32_t) + len;
        HandleReplicaFrame(payload);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "phast_router: replica %zu protocol error: %s\n",
                   idx, e.what());
      dead = true;
    }
    if (link.in_head > 0 && link.in_head * 2 >= link.inbuf.size()) {
      link.inbuf.erase(
          link.inbuf.begin(),
          link.inbuf.begin() + static_cast<ptrdiff_t>(link.in_head));
      link.in_head = 0;
    }
    if (dead) MarkReplicaDead(idx);
    MaybeStop();
  }

  void HandleReplicaFrame(std::span<const uint8_t> payload) {
    const MessageType type = server::PeekType(payload);
    const uint64_t iid = server::PeekId(payload);
    if (type == MessageType::kQuery || type == MessageType::kNearestPoi) {
      const auto it = pending_.find(iid);
      if (it == pending_.end()) return;  // answer for a client that left
      PendingQuery pending = std::move(it->second);
      pending_.erase(it);
      completed_.Inc();
      if (pending.client != nullptr) {
        pending.slot->payload.assign(payload.begin(), payload.end());
        PutFrameId(pending.slot->payload, pending.client_id);
        pending.slot->ready = true;
        if (PumpClient(*pending.client)) CloseClient(pending.client->fd);
      }
      return;
    }
    if (type == MessageType::kMatrix) {
      const auto it = matrix_waits_.find(iid);
      if (it == matrix_waits_.end()) return;
      PendingSub sub = std::move(it->second);
      matrix_waits_.erase(it);
      const server::ResponseFrame frame =
          server::DecodeMatrixResponse(payload);
      MatrixOp& op = *sub.op;
      if (frame.response.status == server::ResponseStatus::kOk) {
        MergeMatrixRows(sub.rows, op.cols, frame.response.distances,
                        op.table);
      } else if (op.status == server::ResponseStatus::kOk) {
        op.status = frame.response.status;
      }
      op.epoch = std::max(op.epoch, frame.response.epoch);
      op.latency_ms = std::max(op.latency_ms, frame.response.latency_ms);
      if (--op.outstanding == 0) {
        CompleteMatrix(op);
        if (op.client != nullptr && PumpClient(*op.client)) {
          CloseClient(op.client->fd);
        }
      }
      return;
    }
    const auto it = broadcast_waits_.find(iid);
    if (it == broadcast_waits_.end()) return;
    const std::shared_ptr<Broadcast> op = it->second.first;
    broadcast_waits_.erase(it);
    if (type != MessageType::kShutdown) {
      op->values.push_back(server::DecodeValueReply(type, payload));
    }
    if (--op->outstanding == 0) {
      CompleteBroadcast(*op);
      if (op->client != nullptr && PumpClient(*op->client)) {
        CloseClient(op->client->fd);
      }
    }
  }

  /// Queues a death for processing outside whatever iteration noticed it
  /// (a retry during death handling may kill another replica; recursing
  /// would mutate the maps being walked).
  void MarkReplicaDead(size_t idx) {
    if (ring_.IsAlive(idx)) dead_queue_.push_back(idx);
  }

  /// Runs after every client or replica event: processes queued deaths,
  /// then sends held kShutdowns whose wait is over (a send can queue
  /// another death).
  void DrainDeadReplicas() {
    do {
      while (!dead_queue_.empty()) {
        const size_t idx = dead_queue_.front();
        dead_queue_.erase(dead_queue_.begin());
        if (!ring_.IsAlive(idx)) continue;  // duplicate notice
        ReplicaDown(idx);
      }
      ReleaseHeldShutdowns();
    } while (!dead_queue_.empty());
    MaybeStop();
  }

  void ReplicaDown(size_t idx) {
    Replica& replica = replicas_[idx];
    std::fprintf(stderr, "phast_router: replica %zu (%s) is down\n", idx,
                 replica.socket_path.c_str());
    for (ReplicaLink* link : {&replica.data, &replica.control}) {
      if (link->fd < 0) continue;
      // The death may have been seen on the other link first: take what
      // the replica wrote on this one before it went away, so answers it
      // sent are not retried.
      OnReplicaEvent(idx, *link, EPOLLIN);
      loop_.Remove(link->fd);
      ::close(link->fd);
      link->fd = -1;
    }
    ring_.SetAlive(idx, false);
    replica.up->Set(0);
    alive_gauge_.Set(static_cast<int64_t>(ring_.NumAlive()));
    deaths_.Inc();
    if (replica.pid > 0) ::waitpid(replica.pid, nullptr, WNOHANG);

    // In-flight queries: replay each once on the surviving owner of its
    // source, shed when there is none (or it already had its retry).
    std::vector<uint64_t> affected;
    for (const auto& [iid, pending] : pending_) {
      if (pending.replica == idx) affected.push_back(iid);
    }
    std::vector<ClientConn*> to_pump;
    for (const uint64_t iid : affected) {
      PendingQuery& pending = pending_.at(iid);
      if (!pending.retried && ring_.NumAlive() > 0) {
        pending.retried = true;
        pending.replica = ring_.Pick(pending.source);
        retries_.Inc();
        SendToReplica(pending.replica, replicas_[pending.replica].data,
                      pending.frame);
      } else {
        if (pending.client != nullptr) {
          ShedInto(*pending.slot, pending.client_id);
          to_pump.push_back(pending.client);
        } else {
          shed_.Inc();  // client already left; keep the identity honest
        }
        pending_.erase(iid);
      }
    }

    // Matrix sub-tables in flight to the dead replica: replay each slice
    // once, whole, on the surviving owner of its first row source; a slice
    // out of retries sheds the whole table (partial tables never leave).
    std::vector<uint64_t> matrix_affected;
    for (const auto& [iid, sub] : matrix_waits_) {
      if (sub.replica == idx) matrix_affected.push_back(iid);
    }
    for (const uint64_t iid : matrix_affected) {
      PendingSub& sub = matrix_waits_.at(iid);
      if (!sub.retried && ring_.NumAlive() > 0) {
        sub.retried = true;
        sub.replica = ring_.Pick(sub.sub_sources.front());
        retries_.Inc();
        SendToReplica(sub.replica, replicas_[sub.replica].data, sub.frame);
      } else {
        const std::shared_ptr<MatrixOp> op = sub.op;
        if (op->status == server::ResponseStatus::kOk) {
          op->status = server::ResponseStatus::kShedShutdown;
        }
        matrix_waits_.erase(iid);
        if (--op->outstanding == 0) {
          CompleteMatrix(*op);
          if (op->client != nullptr) to_pump.push_back(op->client);
        }
      }
    }

    // Broadcast acks this replica will never send: a dead replica cannot
    // veto (or vote in) an epoch move.
    std::vector<uint64_t> orphaned;
    for (const auto& [iid, wait] : broadcast_waits_) {
      if (wait.second == idx) orphaned.push_back(iid);
    }
    for (const uint64_t iid : orphaned) {
      const std::shared_ptr<Broadcast> op = broadcast_waits_.at(iid).first;
      broadcast_waits_.erase(iid);
      if (--op->outstanding == 0) {
        CompleteBroadcast(*op);
        if (op->client != nullptr) to_pump.push_back(op->client);
      }
    }

    for (ClientConn* client : to_pump) {
      if (clients_.count(client->fd) != 0 && PumpClient(*client)) {
        CloseClient(client->fd);
      }
    }
  }

  /// Sends on one of replica idx's links (`link` belongs to it).
  void SendToReplica(size_t idx, ReplicaLink& link,
                     std::span<const uint8_t> payload) {
    if (link.fd < 0) {
      MarkReplicaDead(idx);
      return;
    }
    AppendFrame(link.outbuf, payload);
    if (!FlushFd(link.fd, link.outbuf, link.out_head)) {
      MarkReplicaDead(idx);
      return;
    }
    const bool drained = link.outbuf.size() == link.out_head;
    loop_.Modify(link.fd,
                 EPOLLIN | (drained ? 0u : static_cast<uint32_t>(EPOLLOUT)));
  }

  // --- shared buffered-write helpers ---------------------------------------

  static void AppendFrame(std::vector<uint8_t>& outbuf,
                          std::span<const uint8_t> payload) {
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const auto* len_bytes = reinterpret_cast<const uint8_t*>(&len);
    outbuf.insert(outbuf.end(), len_bytes, len_bytes + sizeof(len));
    outbuf.insert(outbuf.end(), payload.begin(), payload.end());
  }

  static bool FlushFd(int fd, std::vector<uint8_t>& outbuf, size_t& head) {
    while (head < outbuf.size()) {
      const ssize_t w = ::write(fd, outbuf.data() + head,
                                outbuf.size() - head);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      head += static_cast<size_t>(w);
    }
    if (head == outbuf.size()) {
      outbuf.clear();
      head = 0;
    } else if (head >= (1u << 20)) {
      outbuf.erase(outbuf.begin(), outbuf.begin() + static_cast<ptrdiff_t>(head));
      head = 0;
    }
    return true;
  }

  /// A shutdown stops the loop once every replica acked and every client's
  /// buffered bytes left the building.
  void MaybeStop() {
    if (!got_shutdown_pending_) return;
    if (!pending_.empty() || !matrix_waits_.empty() ||
        !broadcast_waits_.empty() || !held_shutdowns_.empty()) {
      return;
    }
    for (const auto& [fd, client] : clients_) {
      if (!client->slots.empty() || client->OutboundBytes() != 0) return;
    }
    loop_.Stop();
  }

  const int listen_fd_;
  std::vector<Replica> replicas_;
  ConsistentHashRing ring_;
  server::MetricsRegistry& metrics_;

  server::Counter& admitted_;
  server::Counter& completed_;
  server::Counter& shed_;
  server::Counter& retries_;
  server::Counter& deaths_;
  server::Gauge& alive_gauge_;

  EventLoop loop_;
  std::unordered_map<int, std::unique_ptr<ClientConn>> clients_;
  std::unordered_map<uint64_t, PendingQuery> pending_;
  /// internal id -> matrix sub-request awaiting its replica's sub-table.
  std::unordered_map<uint64_t, PendingSub> matrix_waits_;
  /// internal id -> (operation, replica whose ack it awaits).
  std::unordered_map<uint64_t,
                     std::pair<std::shared_ptr<Broadcast>, size_t>>
      broadcast_waits_;
  /// kShutdowns waiting for the control broadcasts ahead of them.
  std::vector<std::shared_ptr<Broadcast>> held_shutdowns_;
  std::vector<size_t> dead_queue_;
  uint64_t next_internal_id_ = 1;
  bool got_shutdown_pending_ = false;
  bool got_shutdown_ = false;
};

/// The phast_serve binary, resolved next to the router executable unless
/// --serve-bin overrides it.
std::string ResolveServeBin(const CommandLine& cli) {
  if (cli.Has("serve-bin")) return cli.GetString("serve-bin", "");
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  Require(n > 0, "cannot resolve /proc/self/exe; pass --serve-bin");
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.rfind('/');
  Require(slash != std::string::npos, "unexpected executable path");
  return path.substr(0, slash + 1) + "phast_serve";
}

pid_t SpawnReplica(const std::string& serve_bin,
                   const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(serve_bin.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  Require(pid >= 0, std::string("fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    ::execv(serve_bin.c_str(), argv.data());
    std::fprintf(stderr, "phast_router: execv(%s) failed: %s\n",
                 serve_bin.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

/// Connects to a replica socket, waiting out its startup (the snapshot map
/// plus validation), and switches the fd to nonblocking.
int ConnectReplica(const std::string& path) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    try {
      const int fd = server::ConnectUnix(path);
      const int flags = ::fcntl(fd, F_GETFL, 0);
      Require(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "cannot make replica socket nonblocking");
      return fd;
    } catch (const std::exception&) {
      ::usleep(50 * 1000);
    }
  }
  Require(false, "replica socket never came up: " + path);
  return -1;  // unreachable
}

int RouterMain(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  const bool spawning = cli.Has("replicas") && cli.Has("snapshot");
  if (cli.Has("help") || !cli.Has("socket") ||
      (!spawning && !cli.Has("attach"))) {
    std::fprintf(
        stderr,
        "usage: %s --socket=SOCKPATH\n"
        "          (--snapshot=PATH --replicas=N | --attach=SOCK1,SOCK2,...)\n"
        "          [--serve-bin=PATH]         phast_serve to spawn\n"
        "          [--replica-socket-dir=DIR] where spawned replicas listen\n"
        "          [--vnodes=N]               ring points per replica\n"
        "          [--verify=full|sections|off] [--workers=N] [--max-batch=K]\n"
        "          [--queue-capacity=N] [--cache-capacity=N] [--deadline-ms=D]\n"
        "          [--rphast-max-targets=N] [--customize-threads=N]\n"
        "          [--poi=PATH]               POI index for kNearestPoi\n"
        "          (per-replica flags are forwarded to spawned replicas)\n",
        cli.ProgramName().c_str());
    return cli.Has("help") ? 0 : 2;
  }

  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::vector<Replica> replicas;
  if (spawning) {
    const std::string serve_bin = ResolveServeBin(cli);
    const std::string dir =
        cli.GetString("replica-socket-dir", "/tmp/phast-fabric");
    ::mkdir(dir.c_str(), 0755);  // best effort; spawn fails loudly below
    const int64_t n = cli.GetInt("replicas", 2);
    Require(n >= 1 && n <= 64, "--replicas must be in [1, 64]");
    std::vector<std::string> forwarded;
    for (const char* flag :
         {"verify", "workers", "max-batch", "queue-capacity",
          "cache-capacity", "deadline-ms", "rphast-max-targets",
          "customize-threads", "slow-ms", "poi"}) {
      if (cli.Has(flag)) {
        forwarded.push_back("--" + std::string(flag) + "=" +
                            cli.GetString(flag, ""));
      }
    }
    for (int64_t i = 0; i < n; ++i) {
      Replica replica;
      replica.socket_path = dir + "/replica-" + std::to_string(i) + ".sock";
      // Drop any stale socket file first: the connect loop below must only
      // ever reach the replica spawned here, never a leftover server still
      // bound to the old inode.
      ::unlink(replica.socket_path.c_str());
      std::vector<std::string> args = forwarded;
      args.push_back("--snapshot=" + cli.GetString("snapshot", ""));
      args.push_back("--socket=" + replica.socket_path);
      replica.pid = SpawnReplica(serve_bin, args);
      replicas.push_back(std::move(replica));
    }
  } else {
    std::string list = cli.GetString("attach", "");
    size_t start = 0;
    while (start <= list.size() && !list.empty()) {
      const size_t comma = list.find(',', start);
      const std::string path =
          list.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      if (!path.empty()) {
        Replica replica;
        replica.socket_path = path;
        replicas.push_back(std::move(replica));
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    Require(!replicas.empty(), "--attach lists no sockets");
  }
  for (Replica& replica : replicas) {
    replica.data.fd = ConnectReplica(replica.socket_path);
    replica.control.fd = ConnectReplica(replica.socket_path);
  }

  server::MetricsRegistry metrics;
  for (size_t i = 0; i < replicas.size(); ++i) {
    replicas[i].up = &metrics.GetGauge(
        "phast_router_replica_up_" + std::to_string(i),
        "1 while replica " + std::to_string(i) + " serves");
    replicas[i].up->Set(1);
  }

  const std::string socket_path = cli.GetString("socket", "");
  const int listen_fd = server::ListenUnix(socket_path);
  std::fprintf(stderr, "phast_router: %zu replicas, listening on %s\n",
               replicas.size(), socket_path.c_str());

  // The router owns the replica pids (when spawning); remember them before
  // Router takes the replica table.
  std::vector<pid_t> children;
  for (const Replica& replica : replicas) {
    if (replica.pid > 0) children.push_back(replica.pid);
  }

  Router router(listen_fd, std::move(replicas), metrics,
                static_cast<uint32_t>(cli.GetInt("vnodes", 64)));
  const bool clean = router.Run();

  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  for (const pid_t pid : children) {
    if (!clean) ::kill(pid, SIGTERM);  // interrupted: tear the fabric down
    ::waitpid(pid, nullptr, 0);
  }

  const uint64_t admitted =
      metrics.GetCounter("phast_server_requests_admitted_total", "").Value();
  const uint64_t completed =
      metrics.GetCounter("phast_server_requests_completed_total", "").Value();
  const uint64_t shed =
      metrics.GetCounter("phast_server_requests_shed_total", "").Value();
  std::fprintf(stderr,
               "phast_router: done (admitted=%llu completed=%llu "
               "shed=%llu)\n",
               static_cast<unsigned long long>(admitted),
               static_cast<unsigned long long>(completed),
               static_cast<unsigned long long>(shed));
  return 0;
}

}  // namespace
}  // namespace phast::fabric

int main(int argc, char** argv) {
  return phast::fabric::RouterMain(argc, argv);
}
