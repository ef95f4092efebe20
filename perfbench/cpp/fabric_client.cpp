#include "fabric_client.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "util/rng.h"

extern char** environ;

namespace perfbench {

using phast::server::Client;
using phast::server::Request;
using phast::server::RequestKind;
using phast::server::Response;
using phast::server::ResponseStatus;

namespace {

constexpr const char* kLogFile = "fabric.log";

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
  return pid;
}

bool Alive(pid_t pid) { return pid > 0 && ::kill(pid, 0) == 0; }

/// Waits up to `seconds` for a child to exit; true if it did.
bool WaitChild(pid_t pid, double seconds) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// Waits up to `seconds` for a process that is not our child to go away.
bool WaitGone(pid_t pid, double seconds) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    if (!Alive(pid)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return !Alive(pid);
}

}  // namespace

void RunProgram(const std::vector<std::string>& argv, const std::string& log) {
  const pid_t pid = Spawn(argv, log);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(argv[0] + " failed (see " + log + ")");
  }
}

std::unique_ptr<Client> Connect(const std::string& socket) {
  return WrapFd(phast::server::ConnectUnix(socket));
}

std::unique_ptr<Client> WrapFd(int fd) {
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return std::make_unique<Client>(fd);
}

// --- Fabric -------------------------------------------------------------------

Fabric::Fabric(const FabricOptions& options) : replicas_(options.replicas) {
  std::vector<std::string> argv = {
      PERFBENCH_ROUTER_BIN,
      "--snapshot=" + options.snapshot,
      "--socket=" + socket_,
      "--replicas=" + std::to_string(options.replicas),
      "--replica-socket-dir=" + replica_dir_,
      "--serve-bin=" PERFBENCH_SERVE_BIN,
      "--workers=" + std::to_string(options.workers),
  };
  if (!options.poi.empty()) argv.push_back("--poi=" + options.poi);
  if (options.customize_threads > 0) {
    argv.push_back("--customize-threads=" +
                   std::to_string(options.customize_threads));
  }
  router_ = Spawn(argv, kLogFile);
  // The router listens only after every replica accepted its connection,
  // so the first successful connect means the whole fabric is up.
  const int64_t deadline = NowNs() + 60'000'000'000LL;
  for (;;) {
    try {
      router_clients_[0] = WrapFd(phast::server::ConnectUnix(socket_));
      break;
    } catch (const std::exception&) {
      int status = 0;
      if (::waitpid(router_, &status, WNOHANG) == router_) {
        router_ = -1;
        throw std::runtime_error(std::string("phast_router exited at "
                                             "startup (see ") + kLogFile + ")");
      }
      if (NowNs() > deadline) {
        Kill();
        throw std::runtime_error("phast_router never came up");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  replica_pids_ = ChildrenOf(router_);
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() >= 4) {
    client_cpu_ = cpus[0];
    PinProcess(router_, cpus[1]);
    for (size_t i = 0; i < replica_pids_.size(); ++i) {
      PinProcess(replica_pids_[i], cpus[2 + i % (cpus.size() - 2)]);
    }
  }
}

Fabric::~Fabric() {
  if (router_ < 0) return;
  try {
    Shutdown();
  } catch (const std::exception&) {
    Kill();
  }
}

Client& Fabric::Router(size_t i) {
  std::unique_ptr<Client>& client = router_clients_[i];
  if (!client) client = Connect(socket_);
  return *client;
}

std::string Fabric::ReplicaSocket(size_t i) const {
  return replica_dir_ + "/replica-" + std::to_string(i) + ".sock";
}

double Fabric::PeakRssMb() const {
  double total = perfbench::PeakRssMb(router_);
  for (const pid_t pid : replica_pids_) total += perfbench::PeakRssMb(pid);
  return total;
}

std::vector<PromSnapshot> Fabric::ReplicaMetrics() const {
  std::vector<PromSnapshot> out;
  for (size_t i = 0; i < replicas_; ++i) {
    out.push_back(ParsePrometheus(Connect(ReplicaSocket(i))->FetchMetrics()));
  }
  return out;
}

PromSnapshot Fabric::RouterMetrics() {
  return ParsePrometheus(Router(0).FetchMetrics());
}

std::string Fabric::RouterStatus() {
  if (router_ < 0) return "phast_router not running";
  int status = 0;
  if (::waitpid(router_, &status, WNOHANG) != router_) {
    return "phast_router alive";
  }
  router_ = -1;
  return WIFSIGNALED(status)
             ? "phast_router killed by signal " +
                   std::to_string(WTERMSIG(status))
             : "phast_router exited with " +
                   std::to_string(WEXITSTATUS(status));
}

void Fabric::Shutdown() {
  if (router_ < 0) return;
  const std::string status = RouterStatus();
  if (router_ < 0) {
    Kill();
    throw std::runtime_error(status + " during the run");
  }
  Router(0).Shutdown();
  if (!WaitChild(router_, 20.0)) {
    Kill();
    throw std::runtime_error("phast_router did not exit after kShutdown");
  }
  router_ = -1;
  router_clients_.clear();
  for (const pid_t pid : replica_pids_) {
    if (!WaitGone(pid, 10.0)) ::kill(pid, SIGKILL);
  }
  replica_pids_.clear();
}

void Fabric::Kill() {
  for (const pid_t pid : replica_pids_) ::kill(pid, SIGKILL);
  if (router_ > 0) {
    ::kill(router_, SIGKILL);
    ::waitpid(router_, nullptr, 0);
  }
  for (const pid_t pid : replica_pids_) WaitGone(pid, 5.0);
  router_ = -1;
  replica_pids_.clear();
  router_clients_.clear();
}

// --- open and closed loop --------------------------------------------------------

namespace {

uint32_t TreesOf(const Request& request) {
  return request.kind == RequestKind::kMatrix
             ? static_cast<uint32_t>(request.sources.size())
             : 1;
}

}  // namespace

PhaseResult RunOpenLoop(const std::vector<Client*>& clients,
                        const std::vector<Planned>& plan,
                        const std::vector<bool>& keep, int cpu) {
  // Set before any thread of the phase starts: they inherit it.
  const ScopedPin pin(cpu);
  PhaseResult result;
  result.outcomes.resize(plan.size());
  result.kept.resize(plan.size());
  const size_t connections = clients.size();
  Tracer& tracer = Tracer::Get();

  // A short lead so every thread is parked before the first due time.
  result.start_ns = NowNs() + 2'000'000;
  const int64_t start = result.start_ns;
  StallSentinel sentinel;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    // Sender: Client::SendQuery touches only the id counter and the receiver
    // only the read buffer, so one Client serves both threads.
    threads.emplace_back([&, c] {
      for (size_t i = c; i < plan.size(); i += connections) {
        Outcome& out = result.outcomes[i];
        out.sched_ns = start + plan[i].at_ns;
        out.trees = TreesOf(plan[i].request);
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(out.sched_ns)));
        out.sent_ns = NowNs();
        try {
          (void)clients[c]->SendQuery(plan[i].request);
        } catch (const std::exception&) {
          return;  // what was not sent stays unanswered
        }
        tracer.Record("client.send", out.sent_ns, NowNs(), i + 1);
      }
    });
    threads.emplace_back([&, c] {
      // Ids continue across phases on a kept connection; within a phase
      // they must come back consecutive, in request order.
      uint64_t expected_id = 0;
      for (size_t i = c; i < plan.size(); i += connections, ++expected_id) {
        phast::server::ResponseFrame frame;
        try {
          frame = clients[c]->ReceiveResponse();
        } catch (const std::exception&) {
          return;  // the rest of this connection stays unanswered
        }
        Outcome& out = result.outcomes[i];
        out.recv_ns = NowNs();
        if (i == c) expected_id = frame.id;
        if (frame.id != expected_id) return;
        out.answered = true;
        out.status = frame.response.status;
        out.service_ms = frame.response.latency_ms;
        out.epoch = frame.response.epoch;
        tracer.Record("client.request", out.sched_ns, out.recv_ns, i + 1);
        if (keep[i]) result.kept[i] = std::move(frame.response);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.host_stalls = sentinel.Stop();
  return result;
}

ClosedLoopResult RunClosedLoop(Client& client,
                               const std::function<Request()>& draw,
                               uint32_t in_flight, double seconds,
                               size_t keep_every, int cpu) {
  const ScopedPin pin(cpu);
  ClosedLoopResult result;
  struct Pending {
    int64_t sent_ns;
    uint32_t trees;
    size_t kept;  // index into kept_plan, or SIZE_MAX
  };
  std::deque<Pending> pending;
  Tracer& tracer = Tracer::Get();
  result.start_ns = NowNs();
  const int64_t end = result.start_ns + static_cast<int64_t>(seconds * 1e9);
  const auto send = [&] {
    Request request = draw();
    Pending p{NowNs(), TreesOf(request), SIZE_MAX};
    (void)client.SendQuery(request);
    if (result.sent % keep_every == 0) {
      p.kept = result.kept_plan.size();
      result.kept_plan.push_back({std::move(request), p.sent_ns});
    }
    ++result.sent;
    pending.push_back(p);
  };
  try {
    for (uint32_t i = 0; i < in_flight; ++i) send();
    while (!pending.empty()) {
      phast::server::ResponseFrame frame = client.ReceiveResponse();
      const int64_t recv = NowNs();
      const Pending p = pending.front();
      pending.pop_front();
      const Response& r = frame.response;
      if (r.status == ResponseStatus::kOk) {
        result.ok_recv_ns.push_back(recv);
        result.ok_latency_ms.push_back(static_cast<double>(recv - p.sent_ns) *
                                       1e-6);
        result.ok_trees.push_back(p.trees);
      } else if (r.status == ResponseStatus::kInvalidRequest) {
        ++result.invalid;
      } else {
        ++result.shed;
      }
      tracer.Record("client.request", p.sent_ns, recv);
      if (p.kept != SIZE_MAX) {
        Outcome out;
        out.sched_ns = out.sent_ns = p.sent_ns;
        out.recv_ns = recv;
        out.answered = true;
        out.status = r.status;
        out.service_ms = r.latency_ms;
        out.epoch = r.epoch;
        out.trees = p.trees;
        result.kept.outcomes.push_back(out);
        result.kept.kept.push_back(std::move(frame.response));
      }
      if (recv < end) {
        send();
        result.stop_ns = NowNs();
      }
    }
  } catch (const std::exception&) {
    // A broken connection: what is still outstanding stays unanswered.
  }
  result.unanswered = pending.size();
  // Kept requests that never came back still need an outcome slot.
  result.kept.outcomes.resize(result.kept_plan.size());
  result.kept.kept.resize(result.kept_plan.size());
  return result;
}

std::vector<int64_t> PoissonArrivals(double rate, double seconds,
                                     uint64_t seed) {
  phast::Rng rng(seed);
  std::vector<int64_t> at;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    at.push_back(static_cast<int64_t>(t * 1e9));
  }
  return at;
}

}  // namespace perfbench
