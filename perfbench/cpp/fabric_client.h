#pragma once

// The benchmark's side of the process boundary: running phast_prepare,
// bringing up phast_router with its phast_serve replicas, and driving the
// router's Unix socket open-loop and closed-loop through server::Client.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "server/service.h"
#include "util.h"

namespace perfbench {

/// Runs a program to completion with stdout/stderr appended to `log`;
/// throws unless it exits 0.
void RunProgram(const std::vector<std::string>& argv, const std::string& log);

/// A client over a fresh connection whose reads time out, so a stalled
/// fabric fails the run instead of hanging it.
[[nodiscard]] std::unique_ptr<phast::server::Client> Connect(
    const std::string& socket);
[[nodiscard]] std::unique_ptr<phast::server::Client> WrapFd(int fd);

struct FabricOptions {
  std::string snapshot;
  std::string poi;  // empty: kNearestPoi is not served
  uint32_t replicas = 2;
  uint32_t workers = 1;
  uint32_t customize_threads = 0;  // 0: the replica default
};

/// phast_router and the phast_serve replicas it spawns over one snapshot.
/// Sockets live in the working directory under short relative names (Unix
/// socket paths are limited to 108 bytes, the checkout path is not).
class Fabric {
 public:
  /// Spawns the router and returns once its socket accepts connections.
  /// Router connection 0 is the one that first got through.
  explicit Fabric(const FabricOptions& options);
  /// Shuts the fabric down if Shutdown() was not called; kills on failure.
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Router connection i, opened on first use and closed only after the
  /// router exited: phast_router reads a freed handler when a client
  /// disconnects while its event loop runs (it calls DrainDeadReplicas from
  /// a client's epoll callback after CloseClient erased that callback), and
  /// crashes now and then. A connection used by one phase is idle when the
  /// next phase takes it over.
  [[nodiscard]] phast::server::Client& Router(size_t i);
  [[nodiscard]] std::string ReplicaSocket(size_t i) const;

  /// The CPU the client's load threads run on, or -1. With four or more
  /// CPUs the client, the router and each replica get CPUs of their own
  /// (replicas share when fewer than two are left), so where the scheduler
  /// happens to place the busy threads does not decide throughput.
  [[nodiscard]] int ClientCpu() const { return client_cpu_; }

  /// Peak VmHWM of the router plus every replica, in MiB.
  [[nodiscard]] double PeakRssMb() const;
  /// /metrics of every replica, fetched from each replica socket directly
  /// (the router serves only its own counters).
  [[nodiscard]] std::vector<PromSnapshot> ReplicaMetrics() const;
  [[nodiscard]] PromSnapshot RouterMetrics();

  /// Clean kShutdown through the router; waits for every process to exit.
  void Shutdown();

  /// "alive", or how the router ended (reaps it if it did).
  [[nodiscard]] std::string RouterStatus();

 private:
  void Kill();

  std::string socket_ = "r.sock";
  std::map<size_t, std::unique_ptr<phast::server::Client>> router_clients_;
  std::string replica_dir_ = "rep";
  size_t replicas_ = 0;
  pid_t router_ = -1;
  std::vector<pid_t> replica_pids_;
  int client_cpu_ = -1;
};

/// One request of an open-loop phase, due `at_ns` after the phase starts.
struct Planned {
  phast::server::Request request;
  int64_t at_ns = 0;
};

struct Outcome {
  int64_t sched_ns = 0;  // when it was due
  int64_t sent_ns = 0;   // when the generator got to it
  int64_t recv_ns = 0;
  bool answered = false;
  phast::server::ResponseStatus status = phast::server::ResponseStatus::kOk;
  double service_ms = 0.0;  // Response::latency_ms, the service's own view
  uint64_t epoch = 0;
  uint32_t trees = 0;  // shortest-path trees the answer needed

  /// Client latency: from the scheduled send time to receipt.
  [[nodiscard]] double LatencyMs() const {
    return static_cast<double>(recv_ns - sched_ns) * 1e-6;
  }
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // parallel to the plan
  /// Responses of the plan indices marked `keep`, for verification.
  std::vector<phast::server::Response> kept;
  int64_t start_ns = 0;
  /// What a StallSentinel saw during the phase.
  std::vector<HostStall> host_stalls;
};

/// Open loop: request i leaves at start + plan[i].at_ns on connection
/// i % connections.size(), whatever is still outstanding; each connection
/// has a sender and a receiver thread. Returns after every answer arrived
/// or a connection failed. The connections must have nothing in flight.
/// Every thread of the phase runs on `cpu` (-1: anywhere).
[[nodiscard]] PhaseResult RunOpenLoop(
    const std::vector<phast::server::Client*>& connections,
    const std::vector<Planned>& plan, const std::vector<bool>& keep, int cpu);

/// What a closed-loop phase saw.
struct ClosedLoopResult {
  int64_t start_ns = 0;
  int64_t stop_ns = 0;  // when the last request was sent
  uint64_t sent = 0;
  uint64_t shed = 0;
  uint64_t invalid = 0;
  uint64_t unanswered = 0;
  /// Every ok answer in order: receipt time, client latency (send to
  /// receipt) and the trees it needed.
  std::vector<int64_t> ok_recv_ns;
  std::vector<double> ok_latency_ms;
  std::vector<uint32_t> ok_trees;
  /// Every keep_every-th request with its outcome and answer, for checks.
  std::vector<Planned> kept_plan;
  PhaseResult kept;

  [[nodiscard]] uint64_t Failed() const { return shed + invalid + unanswered; }
};

/// Closed loop on one connection, from the calling thread alone: keeps
/// `in_flight` requests outstanding, sending the next one `draw` gives as
/// each answer arrives, for `seconds`; then drains what is outstanding.
/// The connection must have nothing in flight. Runs on `cpu` (-1: anywhere).
[[nodiscard]] ClosedLoopResult RunClosedLoop(
    phast::server::Client& client,
    const std::function<phast::server::Request()>& draw, uint32_t in_flight,
    double seconds, size_t keep_every, int cpu);

/// Poisson arrival offsets (ns) at `rate` per second over `seconds`.
[[nodiscard]] std::vector<int64_t> PoissonArrivals(double rate,
                                                   double seconds,
                                                   uint64_t seed);

}  // namespace perfbench
