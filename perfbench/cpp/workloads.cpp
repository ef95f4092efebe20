// The four workloads. Each is a client of the real system: the serve
// workloads run phast_prepare, spawn phast_router (which spawns the
// phast_serve replicas) and drive the router socket open-loop, then
// closed-loop; batch_trees calls the engine in process. Every latency is
// taken on this process's clock, never from the service's own
// Response::latency_ms (that is the service's view, reported per layer).

#include <unistd.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>

#include "apps/poi.h"
#include "bench.h"
#include "dijkstra/dijkstra.h"
#include "fabric/router.h"
#include "fabric_client.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "phast/batch.h"
#include "phast/phast.h"
#include "phast/prepare.h"
#include "pq/dary_heap.h"
#include "server/snapshot.h"
#include "server/workload.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using phast::Graph;
using phast::PoiIndex;
using phast::Rng;
using phast::VertexId;
using phast::Weight;
using phast::server::Request;
using phast::server::RequestKind;
using phast::server::Response;
using phast::server::ResponseStatus;

// --- fixed workload configuration -------------------------------------------

/// What a serve workload asks for.
enum class Mix {
  kTrees,        // tree_serve: 10% full trees, the rest 1-16 targets
  kTables,       // table_serve: kMatrix (<= 8x8) and kNearestPoi (k <= 8)
  kTargetLists,  // reweight_serve: 1-16 targets, never a full tree
};

/// A serve workload: the instance, the open-loop rate, the closed-loop
/// depth that max_rps is measured at and the latency limit it must meet.
struct ServeConfig {
  InstanceSpec instance;
  Mix mix = Mix::kTrees;
  bool poi = false;
  /// Offered rate of the fixed-rate phase (latency percentiles), per second.
  double fixed_rate = 0.0;
  /// Requests kept outstanding in the capacity phase (max_rps).
  uint32_t in_flight = 32;
  /// p99 limit (client clock) the capacity phase must meet; the info line
  /// says whether it did.
  double latency_limit_ms = 20.0;
  /// kUpdateWeights + kSwap rounds per second while reads run; 0 = none.
  double swaps_per_s = 0.0;
  uint32_t customize_threads = 0;
};

// Router connections, all kept open for the fabric's lifetime: control
// (setup, checks, metrics, shutdown), the load connection (one sender and
// one receiver thread open-loop, the calling thread alone closed-loop) and
// the metric writer.
constexpr size_t kControlConn = 0;
constexpr size_t kLoadConns[] = {1};
constexpr size_t kWriterConn = 3;
constexpr uint32_t kReplicas = 2;
constexpr size_t kVerifySample = 64;  // answers checked per fixed-rate phase
constexpr size_t kKeepEvery = 2000;   // ... one per this many, capacity phase
constexpr int kSetups = 5;            // set-ups per untraced run (setup_s)
constexpr int kFinalChecks = 8;       // full trees checked after the swaps
constexpr size_t kGroup = 1000;       // requests per latency_p99_ms group
constexpr uint32_t kBatchK = 16;      // trees per sweep in batch_trees
constexpr size_t kBatchRound = 256;   // sources per ComputeManyTrees call

InstanceSpec NetworkFor(const std::string& workload, bool smoke) {
  InstanceSpec spec;
  // reweight_serve serves a witness-free hierarchy (~260x the arcs of the
  // pruned one at 96x96), so it runs on a smaller network: there a swap
  // takes tens of milliseconds and a run holds dozens of them.
  const bool customizable = workload == "reweight_serve";
  const uint32_t side = smoke ? (customizable ? 20 : 32)
                              : (customizable ? 32 : 128);
  spec.width = side;
  spec.height = side;
  spec.customizable = customizable;
  return spec;
}

ServeConfig ServeConfigFor(const RunConfig& cfg) {
  ServeConfig sc;
  sc.instance = NetworkFor(cfg.workload, cfg.smoke);
  if (cfg.workload == "tree_serve") {
    sc.mix = Mix::kTrees;
    sc.fixed_rate = 3000.0;
  } else if (cfg.workload == "table_serve") {
    sc.mix = Mix::kTables;
    sc.poi = true;
    sc.fixed_rate = 600.0;
    sc.in_flight = 16;
  } else {
    sc.mix = Mix::kTargetLists;
    sc.fixed_rate = 1000.0;
    sc.swaps_per_s = 2.0;
    sc.customize_threads = 1;
  }
  if (cfg.smoke) sc.fixed_rate = std::min(sc.fixed_rate, 300.0);
  return sc;
}

// --- answer checking ----------------------------------------------------------

bool SameAsDijkstra(const Graph& graph, const PoiIndex* poi,
                    const Request& request, const Response& response) {
  if (response.status != ResponseStatus::kOk) return false;
  if (request.kind == RequestKind::kMatrix) {
    const size_t rows = request.sources.size();
    const size_t cols = request.targets.size();
    if (response.rows != rows || response.cols != cols ||
        response.distances.size() != rows * cols) {
      return false;
    }
    for (size_t r = 0; r < rows; ++r) {
      const auto ref =
          phast::Dijkstra<phast::BinaryHeap>(graph, request.sources[r]);
      for (size_t c = 0; c < cols; ++c) {
        if (response.distances[r * cols + c] != ref.dist[request.targets[c]]) {
          return false;
        }
      }
    }
    return true;
  }
  const auto ref = phast::Dijkstra<phast::BinaryHeap>(graph, request.source);
  if (request.kind == RequestKind::kNearestPoi) {
    // Brute-force scan of the category bucket, ordered by (dist, vertex).
    if (poi == nullptr) return false;
    std::vector<std::pair<Weight, VertexId>> expected;
    for (const VertexId v : poi->Bucket(request.poi_category)) {
      if (ref.dist[v] != phast::kInfWeight) expected.push_back({ref.dist[v], v});
    }
    std::sort(expected.begin(), expected.end());
    if (expected.size() > request.poi_k) expected.resize(request.poi_k);
    if (response.poi_vertices.size() != expected.size() ||
        response.distances.size() != expected.size()) {
      return false;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (response.distances[i] != expected[i].first ||
          response.poi_vertices[i] != expected[i].second) {
        return false;
      }
    }
    return true;
  }
  if (request.targets.empty()) {
    return response.distances.size() == ref.dist.size() &&
           std::equal(response.distances.begin(), response.distances.end(),
                      ref.dist.begin());
  }
  if (response.distances.size() != request.targets.size()) return false;
  for (size_t i = 0; i < request.targets.size(); ++i) {
    if (response.distances[i] != ref.dist[request.targets[i]]) return false;
  }
  return true;
}

/// One kept answer awaiting its check, against the metric it was served
/// under.
struct Check {
  const Request* request;
  const Response* response;
  const Graph* graph;
};

/// Runs the checks in parallel; returns the number of mismatches.
uint64_t RunChecks(const std::vector<Check>& checks, const PoiIndex* poi) {
  uint64_t mismatches = 0;
  const int64_t count = static_cast<int64_t>(checks.size());
#pragma omp parallel for schedule(dynamic, 1) reduction(+ : mismatches)
  for (int64_t i = 0; i < count; ++i) {
    const Check& c = checks[static_cast<size_t>(i)];
    if (!SameAsDijkstra(*c.graph, poi, *c.request, *c.response)) ++mismatches;
  }
  return mismatches;
}

uint64_t DigestResponse(uint64_t hash, size_t index, const Response& r) {
  hash = Fnv1a(hash, &index, sizeof(index));
  hash = Fnv1a(hash, r.distances.data(), r.distances.size() * sizeof(Weight));
  return Fnv1a(hash, r.poi_vertices.data(),
               r.poi_vertices.size() * sizeof(VertexId));
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Seeded sample of plan indices (about `want` of `size`).
std::vector<bool> SampleMask(size_t size, size_t want, uint64_t seed) {
  std::vector<bool> keep(size, false);
  if (size == 0 || want == 0) return keep;
  const uint64_t stride = std::max<uint64_t>(1, size / want);
  Rng rng(seed ^ 0xA5A5A5A5ULL);
  for (size_t i = 0; i < size; ++i) keep[i] = rng.NextBounded(stride) == 0;
  return keep;
}

// --- live metric updates (reweight_serve) ------------------------------------

struct SwapRecord {
  int64_t ack_ns = 0;
  uint64_t epoch = 0;
  double seconds = 0.0;  // kSwap sent to ack
};

/// The writer connection of reweight_serve: streams seeded kUpdateWeights +
/// kSwap rounds and tracks the metric of every epoch it published, so answers
/// can be checked against the graph they were served under.
class MetricWriter {
 public:
  MetricWriter(phast::server::Client& client, const Graph& base,
               uint64_t seed)
      : client_(client), rng_(seed ^ 0x5EEDF00DULL), base_(base) {
    epoch_ = client_.FetchEpoch();
    if (epoch_ < 1) throw std::runtime_error("fabric reports epoch 0");
    graphs_.emplace(epoch_, base);
    for (VertexId v = 0; v < base.NumVertices(); ++v) {
      arc_tail_.insert(arc_tail_.end(), base.Degree(v), v);
    }
  }

  /// One round: 64 point re-weights, then a swap. Returns false if the
  /// fabric did not move to exactly the next epoch.
  bool Round() {
    std::vector<phast::server::WeightUpdate> updates(64);
    for (auto& u : updates) {
      const size_t arc = rng_.NextBounded(arc_tail_.size());
      u.tail = arc_tail_[arc];
      u.head = base_.ArcArray()[arc].other;
      u.weight = static_cast<Weight>(rng_.NextInRange(1, 100'000));
    }
    Graph next = Apply(graphs_.at(epoch_), updates);
    {
      const Span span("server.update_weights");
      (void)client_.UpdateWeights(updates);
    }
    const int64_t sent = NowNs();
    uint64_t epoch = 0;
    {
      const Span span("snapshot_manager.swap");
      epoch = client_.TriggerSwap();
    }
    const int64_t ack = NowNs();
    swaps_.push_back({ack, epoch, static_cast<double>(ack - sent) * 1e-9});
    if (epoch != epoch_ + 1) return false;
    epoch_ = epoch;
    graphs_.emplace(epoch, std::move(next));
    return true;
  }

  [[nodiscard]] const std::map<uint64_t, Graph>& Graphs() const {
    return graphs_;
  }
  [[nodiscard]] const std::vector<SwapRecord>& Swaps() const { return swaps_; }

 private:
  static Graph Apply(const Graph& graph,
                     const std::vector<phast::server::WeightUpdate>& updates) {
    std::vector<phast::ArcId> first(graph.FirstArray());
    std::vector<phast::Arc> arcs(graph.ArcArray());
    for (const auto& u : updates) {
      for (phast::ArcId a = first[u.tail]; a < first[u.tail + 1]; ++a) {
        if (arcs[a].other == u.head) {
          arcs[a].weight = u.weight;
          break;
        }
      }
    }
    return Graph::FromCsrArrays(std::move(first), std::move(arcs));
  }

  phast::server::Client& client_;
  Rng rng_;
  const Graph& base_;
  uint64_t epoch_ = 0;
  std::vector<VertexId> arc_tail_;
  std::map<uint64_t, Graph> graphs_;
  std::vector<SwapRecord> swaps_;
};

/// Runs `rounds` writer rounds on a thread, evenly spread over `seconds`.
class WriterThread {
 public:
  WriterThread(MetricWriter& writer, int rounds, double seconds)
      : thread_([this, &writer, rounds, seconds] {
          try {
            const int64_t start = NowNs();
            for (int r = 0; r < rounds; ++r) {
              const auto at = static_cast<int64_t>(seconds * 1e9 * r / rounds);
              std::this_thread::sleep_until(
                  std::chrono::steady_clock::time_point(
                      std::chrono::nanoseconds(start + at)));
              if (!writer.Round()) ++errors_;
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: writer failed: %s\n", e.what());
            ++errors_;
          }
        }) {}
  ~WriterThread() { Join(); }
  WriterThread(const WriterThread&) = delete;
  WriterThread& operator=(const WriterThread&) = delete;

  /// Waits for the rounds; returns the count of failed rounds.
  uint64_t Join() {
    if (thread_.joinable()) thread_.join();
    return errors_;
  }

 private:
  uint64_t errors_ = 0;  // written by the thread, read after join
  std::thread thread_;   // last: starts after errors_ exists
};

// --- phase evaluation -----------------------------------------------------------

struct PhaseStats {
  uint64_t sent = 0;
  uint64_t shed = 0;
  uint64_t invalid = 0;
  uint64_t unanswered = 0;  // transport errors: no answer frame
  uint64_t stale = 0;       // answered under an epoch older than a prior ack
  /// ok answers, client clock from schedule, in schedule order; without
  /// the host_stalled ones.
  std::vector<double> latency_ms;
  uint64_t host_stalled = 0;
  double host_stall_ms = 0.0;      // machine-wide pauses the sentinel saw
  double p50 = 0.0;
  double p99 = 0.0;
  /// Median over consecutive groups of kGroup latency samples of each
  /// group's p99 (each has 10 samples beyond it): what stalls the sentinel
  /// missed move the groups they hit, not the median.
  double group_p99 = 0.0;

  [[nodiscard]] uint64_t Failed() const {
    return shed + invalid + unanswered + stale;
  }
};

PhaseStats Evaluate(const std::vector<Planned>& plan, const PhaseResult& res,
                    const std::vector<SwapRecord>& swaps) {
  PhaseStats st;
  st.sent = plan.size();
  for (size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = res.outcomes[i];
    if (!o.answered) {
      ++st.unanswered;
      continue;
    }
    if (o.status == ResponseStatus::kOk) {
      // Epoch check: a request sent after a swap ack must not be answered
      // under an older epoch. (Sheds carry no epoch.)
      uint64_t min_epoch = 0;
      for (const SwapRecord& s : swaps) {
        if (s.ack_ns < o.sent_ns) min_epoch = std::max(min_epoch, s.epoch);
      }
      if (o.epoch < min_epoch) {
        ++st.stale;
        continue;
      }
      // In flight during a host stall, or queued behind it while the
      // backlog drains (about as long again): timed by the host, not us.
      const bool stalled = std::any_of(
          res.host_stalls.begin(), res.host_stalls.end(),
          [&](const HostStall& h) {
            return o.recv_ns >= h.begin_ns &&
                   o.sched_ns <= 2 * h.end_ns - h.begin_ns;
          });
      if (stalled) {
        ++st.host_stalled;
      } else {
        st.latency_ms.push_back(o.LatencyMs());
      }
    } else if (o.status == ResponseStatus::kInvalidRequest) {
      ++st.invalid;
    } else {
      ++st.shed;
    }
  }
  for (const HostStall& h : res.host_stalls) {
    st.host_stall_ms += static_cast<double>(h.end_ns - h.begin_ns) * 1e-6;
  }
  st.p50 = Quantile(st.latency_ms, 0.50);
  st.p99 = Quantile(st.latency_ms, 0.99);
  std::vector<double> group_p99;
  for (size_t g = 0; g + kGroup <= st.latency_ms.size(); g += kGroup) {
    const auto begin = st.latency_ms.begin() + static_cast<std::ptrdiff_t>(g);
    group_p99.push_back(
        Quantile(std::vector<double>(begin, begin + kGroup), 0.99));
  }
  st.group_p99 = group_p99.empty() ? st.p99 : Median(group_p99);
  return st;
}

// --- serve workloads ------------------------------------------------------------

class ServeRun {
 public:
  ServeRun(const RunConfig& cfg, ServeConfig sc) : cfg_(cfg), sc_(sc) {}

  RunReport Run() {
    try {
      return cfg_.trace ? Traced() : Untraced();
    } catch (const std::exception& e) {
      if (!fabric_) throw;
      throw std::runtime_error(std::string(e.what()) + " [" +
                               fabric_->RouterStatus() + "]");
    }
  }

 private:
  double SetupOnce(bool keep);
  void LoadOracle();
  Request Draw(Rng& rng) const;
  std::vector<Planned> MakePlan(double rate, double seconds,
                                uint64_t seed) const;
  void WarmUp();
  PhaseResult FixedPhase(const std::vector<Planned>& plan,
                         const std::vector<bool>& keep);
  void CollectChecks(std::vector<Planned> plan, PhaseResult res,
                     const std::vector<bool>& keep);
  uint64_t FinalCheckDigest();
  ServeLayerStats LayerStats(const std::vector<Planned>& plan,
                             const PhaseResult& res,
                             const std::vector<PromSnapshot>& before,
                             const std::vector<PromSnapshot>& after,
                             const PromSnapshot& router_before,
                             const PromSnapshot& router_after) const;
  double HopProbe();
  [[nodiscard]] std::vector<phast::server::Client*> LoadClients() {
    std::vector<phast::server::Client*> clients;
    for (const size_t i : kLoadConns) clients.push_back(&fabric_->Router(i));
    return clients;
  }
  [[nodiscard]] const std::vector<SwapRecord>& Swaps() const {
    return writer_ ? writer_->Swaps() : no_swaps_;
  }
  std::string InfoJson(const std::string& extra) const;
  RunReport Untraced();
  RunReport Traced();

  struct Capacity {
    double max_rps = 0.0;
    double trees_per_s = 0.0;  // tree completions/s at max_rps
    double p99_ms = 0.0;       // client latency, send to receipt
    size_t windows = 0;
    uint64_t sent = 0;
    uint64_t failed = 0;
  };
  Capacity MeasureCapacity();
  [[nodiscard]] double FixedSeconds() const { return 0.45 * cfg_.seconds; }
  [[nodiscard]] double CapacitySeconds() const { return 0.45 * cfg_.seconds; }
  [[nodiscard]] int SwapRounds() const {
    return static_cast<int>(std::ceil(FixedSeconds() * sc_.swaps_per_s));
  }

  const RunConfig cfg_;
  const ServeConfig sc_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<phast::server::Snapshot> snapshot_;
  std::unique_ptr<PoiIndex> poi_;
  std::unique_ptr<phast::server::ZipfSampler> zipf_;
  std::vector<VertexId> rank_;
  phast::server::WorkloadOptions wl_;
  std::unique_ptr<MetricWriter> writer_;
  const std::vector<SwapRecord> no_swaps_;
  // Phases whose kept answers are checked after timing (a deque: checks_
  // points into its elements).
  std::deque<std::pair<std::vector<Planned>, PhaseResult>> checked_;
  std::vector<Check> checks_;
  uint64_t writer_errors_ = 0;
};

double ServeRun::SetupOnce(bool keep) {
  const int64_t t0 = NowNs();
  std::vector<std::string> argv = {
      PERFBENCH_PREPARE_BIN, "--out=g.snap",
      "--width=" + std::to_string(sc_.instance.width),
      "--height=" + std::to_string(sc_.instance.height),
      "--seed=" + std::to_string(sc_.instance.graph_seed)};
  if (sc_.instance.customizable) argv.push_back("--customizable");
  if (sc_.poi) {
    argv.push_back("--poi=g.poi");
    argv.push_back("--poi-seed=" + std::to_string(sc_.instance.graph_seed));
  }
  RunProgram(argv, "prepare.log");
  const int64_t t1 = NowNs();
  FabricOptions options;
  options.snapshot = "g.snap";
  if (sc_.poi) options.poi = "g.poi";
  options.replicas = kReplicas;
  options.workers = 1;
  options.customize_threads = sc_.customize_threads;
  auto fabric = std::make_unique<Fabric>(options);
  const int64_t t2 = NowNs();
  Request first;
  first.source = 0;
  first.targets = {1};
  if (fabric->Router(kControlConn).Call(first).status !=
      ResponseStatus::kOk) {
    throw std::runtime_error("first answer was not ok");
  }
  const int64_t t3 = NowNs();
  Tracer& tracer = Tracer::Get();
  tracer.Record("setup.prepare", t0, t1);
  tracer.Record("setup.spawn", t1, t2);
  tracer.Record("setup.first_answer", t2, t3);
  if (keep) {
    fabric_ = std::move(fabric);
  } else {
    fabric->Shutdown();
  }
  return static_cast<double>(t3 - t0) * 1e-9;
}

void ServeRun::LoadOracle() {
  snapshot_ = std::make_unique<phast::server::Snapshot>(
      phast::server::ReadSnapshotFile("g.snap"));
  if (!snapshot_->has_graph) throw std::runtime_error("snapshot has no graph");
  if (sc_.poi) poi_ = std::make_unique<PoiIndex>(phast::ReadPoiFile("g.poi"));
  const uint32_t n = snapshot_->graph.NumVertices();
  zipf_ = std::make_unique<phast::server::ZipfSampler>(n, 0.99);
  rank_ = phast::server::MakeRankMapping(n, cfg_.seed);
  wl_.zipf_skew = 0.99;
  wl_.max_targets = 16;
  wl_.matrix_max_dim = 8;
  wl_.poi_max_k = 8;
  wl_.full_tree_fraction = sc_.mix == Mix::kTrees ? 0.1 : 0.0;
  if (sc_.swaps_per_s > 0.0) {
    writer_ = std::make_unique<MetricWriter>(fabric_->Router(kWriterConn),
                                             snapshot_->graph, cfg_.seed);
  }
}

Request ServeRun::Draw(Rng& rng) const {
  if (sc_.mix == Mix::kTables) {
    return rng.NextBool(0.5)
               ? phast::server::DrawMatrixRequest(wl_, *zipf_, rank_, rng)
               : phast::server::DrawPoiRequest(wl_, *zipf_, rank_,
                                               poi_->NumCategories(), rng);
  }
  return phast::server::DrawRequest(wl_, *zipf_, rank_, rng);
}

std::vector<Planned> ServeRun::MakePlan(double rate, double seconds,
                                        uint64_t seed) const {
  Rng rng(seed);
  std::vector<Planned> plan;
  for (const int64_t at : PoissonArrivals(rate, seconds, seed ^ 0x1234567ULL)) {
    plan.push_back({Draw(rng), at});
  }
  return plan;
}

/// Faults the mapping in and warms the caches; not recorded.
void ServeRun::WarmUp() {
  const auto warm = MakePlan(sc_.fixed_rate, std::min(0.5, 0.05 * cfg_.seconds),
                             cfg_.seed ^ 0x3A3AULL);
  (void)RunOpenLoop(LoadClients(), warm,
                    std::vector<bool>(warm.size(), false),
                    fabric_->ClientCpu());
}

PhaseResult ServeRun::FixedPhase(const std::vector<Planned>& plan,
                                 const std::vector<bool>& keep) {
  std::unique_ptr<WriterThread> writer;
  if (writer_) {
    writer = std::make_unique<WriterThread>(*writer_, SwapRounds(),
                                            FixedSeconds());
  }
  PhaseResult res =
      RunOpenLoop(LoadClients(), plan, keep, fabric_->ClientCpu());
  if (writer) writer_errors_ += writer->Join();
  return res;
}

void ServeRun::CollectChecks(std::vector<Planned> plan, PhaseResult res,
                             const std::vector<bool>& keep) {
  checked_.emplace_back(std::move(plan), std::move(res));
  const auto& [kept_plan, kept_res] = checked_.back();
  for (size_t i = 0; i < kept_plan.size(); ++i) {
    const Outcome& o = kept_res.outcomes[i];
    if (!keep[i] || !o.answered || o.status != ResponseStatus::kOk) continue;
    const Graph* graph = &snapshot_->graph;
    if (writer_) {
      const auto it = writer_->Graphs().find(o.epoch);
      if (it == writer_->Graphs().end()) {
        ++writer_errors_;  // answered under an epoch nobody published
        continue;
      }
      graph = &it->second;
    }
    checks_.push_back({&kept_plan[i].request, &kept_res.kept[i], graph});
  }
}

/// After the fixed-rate phase's swap rounds the served metric is a function
/// of the seed alone: full trees from seeded sources, checked and digested,
/// are what reweight_serve's traced and untraced runs compare.
uint64_t ServeRun::FinalCheckDigest() {
  Rng rng(cfg_.seed ^ 0xD16E57ULL);
  phast::server::Client& client = fabric_->Router(kControlConn);
  std::vector<Planned> plan(kFinalChecks);
  PhaseResult res;
  res.outcomes.resize(plan.size());
  res.kept.resize(plan.size());
  uint64_t digest = kFnvSeed;
  for (size_t i = 0; i < plan.size(); ++i) {
    plan[i].request.source = static_cast<VertexId>(rng.NextBounded(rank_.size()));
    res.kept[i] = client.Call(plan[i].request);
    res.outcomes[i].answered = true;
    res.outcomes[i].status = res.kept[i].status;
    res.outcomes[i].epoch = res.kept[i].epoch;
    digest = DigestResponse(digest, i, res.kept[i]);
  }
  CollectChecks(std::move(plan), std::move(res),
                std::vector<bool>(kFinalChecks, true));
  return digest;
}

ServeLayerStats ServeRun::LayerStats(const std::vector<Planned>& plan,
                                     const PhaseResult& res,
                                     const std::vector<PromSnapshot>& before,
                                     const std::vector<PromSnapshot>& after,
                                     const PromSnapshot& router_before,
                                     const PromSnapshot& router_after) const {
  ServeLayerStats s;
  std::vector<double> service, transport, lag;
  double parts = 0.0;
  size_t tables = 0;
  const phast::fabric::ConsistentHashRing ring(kReplicas);
  for (size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = res.outcomes[i];
    if (!o.answered || o.status != ResponseStatus::kOk) continue;
    service.push_back(o.service_ms);
    transport.push_back(static_cast<double>(o.recv_ns - o.sent_ns) * 1e-6 -
                        o.service_ms);
    lag.push_back(static_cast<double>(o.sent_ns - o.sched_ns) * 1e-6);
    if (plan[i].request.kind == RequestKind::kMatrix) {
      // The router's own partition function, on the router's ring shape.
      const Span span("router.partition", i + 1);
      parts += static_cast<double>(
          phast::fabric::PartitionMatrixSources(ring, plan[i].request.sources)
              .size());
      ++tables;
    }
  }
  s.service_latency_p50_ms = Quantile(service, 0.5);
  s.service_latency_p99_ms = Quantile(service, 0.99);
  s.transport_p50_ms = Quantile(transport, 0.5);
  s.transport_p99_ms = Quantile(transport, 0.99);
  s.lag_p99_ms = Quantile(lag, 0.99);
  s.fanout_parts = tables > 0 ? parts / static_cast<double>(tables) : 0.0;

  const PromSnapshot d = DeltaSum(before, after);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  s.batch_width = ratio(d.Value("phast_server_batch_width_sum"),
                        d.Value("phast_server_batch_width_count"));
  const double hits = d.Value("phast_server_tree_cache_hits_total");
  const double misses = d.Value("phast_server_tree_cache_misses_total");
  s.cache_hit_frac = ratio(hits, hits + misses);
  s.rphast_batch_frac = ratio(d.Value("phast_server_rphast_batches_total"),
                              d.Value("phast_server_batches_total"));
  s.shed_frac = ratio(d.Value("phast_server_requests_shed_total"),
                      d.Value("phast_server_requests_admitted_total"));
  s.upward_ms_p50 = HistogramQuantile(d, "phast_server_upward_ms", 0.5);
  s.sweep_ms_p50 = HistogramQuantile(d, "phast_server_sweep_ms", 0.5);
  s.swap_customize_ms = ratio(d.Value("phast_server_customize_ms_sum"),
                              d.Value("phast_server_customize_ms_count"));
  s.swap_cache_flushes = d.Value("phast_server_tree_cache_swap_flushes_total");
  s.retries = router_after.Value("phast_router_retries_total") -
              router_before.Value("phast_router_retries_total");
  return s;
}

/// The same low-rate requests sent through the router and straight to a
/// replica socket, one at a time; the p50 difference is the router hop.
double ServeRun::HopProbe() {
  const size_t count = cfg_.smoke ? 20 : 200;
  Rng rng(cfg_.seed ^ 0x40B0ULL);
  phast::server::Client& via_router = fabric_->Router(kControlConn);
  auto direct = Connect(fabric_->ReplicaSocket(0));
  std::vector<double> routed, straight;
  for (size_t i = 0; i < count; ++i) {
    Request request;
    request.source = rank_[zipf_->Sample(rng)];
    request.targets = {static_cast<VertexId>(rng.NextBounded(rank_.size()))};
    int64_t t0 = NowNs();
    (void)via_router.Call(request);
    routed.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    t0 = NowNs();
    (void)direct->Call(request);
    straight.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  return Median(routed) - Median(straight);
}

std::string ServeRun::InfoJson(const std::string& extra) const {
  const auto& layout = snapshot_->layout;
  const size_t m = snapshot_->graph.NumArcs();
  const size_t gplus = layout.up_arcs.size() + layout.down_arcs.size();
  std::string out = "{\"workload\": " + JsonString(cfg_.workload);
  out += ", \"seed\": " + std::to_string(cfg_.seed);
  out += ", \"host\": " + HostJson();
  out += ", \"instance\": {\"generator\": \"country\", \"width\": " +
         std::to_string(sc_.instance.width) +
         ", \"height\": " + std::to_string(sc_.instance.height) +
         ", \"graph_seed\": " + std::to_string(sc_.instance.graph_seed) +
         ", \"customizable\": " +
         (sc_.instance.customizable ? "true" : "false") +
         ", \"n\": " + std::to_string(layout.num_vertices) +
         ", \"m\": " + std::to_string(m) +
         ", \"levels\": " + std::to_string(layout.num_levels) +
         ", \"gplus_arcs\": " + std::to_string(gplus) +
         ", \"shortcuts\": " + std::to_string(gplus >= m ? gplus - m : 0) +
         ", \"replicas\": " + std::to_string(kReplicas) +
         ", \"workers_per_replica\": 1}";
  return out + extra + "}";
}

RunReport ServeRun::Untraced() {
  std::vector<double> setups;
  const int reps = cfg_.smoke ? 1 : kSetups;
  for (int r = 0; r < reps; ++r) setups.push_back(SetupOnce(r + 1 == reps));
  LoadOracle();
  WarmUp();

  const auto plan = MakePlan(sc_.fixed_rate, FixedSeconds(), cfg_.seed);
  const auto keep = SampleMask(plan.size(), kVerifySample, cfg_.seed);
  PhaseResult fixed = FixedPhase(plan, keep);
  const PhaseStats fs = Evaluate(plan, fixed, Swaps());
  uint64_t digest = kFnvSeed;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (keep[i] && fixed.outcomes[i].answered) {
      digest = DigestResponse(digest, i, fixed.kept[i]);
    }
  }
  CollectChecks(plan, std::move(fixed), keep);
  if (writer_) digest = FinalCheckDigest();
  // Peak memory while serving at the fixed rate; the capacity phase would
  // add router buffering that varies with the host.
  const double rss = fabric_->PeakRssMb();

  // Reads only: on reweight_serve, max_rps is the read capacity of the
  // witness-free hierarchy (a swap stalls every replica's reads for its
  // whole length).
  const Capacity cap = MeasureCapacity();

  fabric_->Shutdown();

  const uint64_t mismatches = RunChecks(checks_, poi_.get());
  RunReport report;
  report.attempted = fs.sent + cap.sent + checks_.size();
  report.failed = fs.Failed() + cap.failed + mismatches + writer_errors_;
  report.correct = mismatches == 0 && writer_errors_ == 0 && fs.stale == 0 &&
                   cap.failed == 0;
  if (!cfg_.smoke && !SupportsP99(fs.latency_ms.size())) {
    throw std::runtime_error("fixed-rate phase too short for a p99");
  }

  std::vector<double> swap_s;
  for (const SwapRecord& r : Swaps()) swap_s.push_back(r.seconds);
  MetricSet& m = report.metrics;
  m.Add("setup_s", Median(setups), "s");
  m.Add("latency_p50_ms", fs.p50, "ms");
  m.Add("latency_p99_ms", fs.group_p99, "ms");
  m.Add("max_rps", cap.max_rps, "1/s");
  m.Add("trees_per_s", cap.trees_per_s, "1/s");
  m.Add("rss_mb", rss, "MiB");
  // A pruned hierarchy cannot be re-customized: a new metric means a new
  // prepare and restart, which is what setup measures.
  m.Add("swap_s", writer_ ? Median(swap_s) : Median(setups), "s");

  char extra[768];
  std::snprintf(
      extra, sizeof(extra),
      ", \"fixed_rate\": %.1f, \"latency_samples\": %zu, "
      "\"latency_p99_all_ms\": %.4f, \"host_stall_ms\": %.1f, "
      "\"host_stalled\": %llu, \"in_flight\": %u, \"capacity_windows\": %zu, "
      "\"capacity_p99_ms\": %.4f, \"latency_limit_ms\": %.1f, "
      "\"capacity_within_limit\": %s, \"failed_frac\": %.6f, "
      "\"verified\": %zu, \"mismatches\": %llu, \"stale\": %llu, "
      "\"swaps\": %zu, \"answers_digest\": \"%s\"",
      sc_.fixed_rate, fs.latency_ms.size(), fs.p99, fs.host_stall_ms,
      static_cast<unsigned long long>(fs.host_stalled), sc_.in_flight,
      cap.windows, cap.p99_ms, sc_.latency_limit_ms,
      cap.p99_ms <= sc_.latency_limit_ms ? "true" : "false",
      static_cast<double>(report.failed) /
          static_cast<double>(std::max<uint64_t>(1, report.attempted)),
      checks_.size(), static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(fs.stale), swap_s.size(),
      Hex(digest).c_str());
  report.info = InfoJson(extra);
  return report;
}

/// max_rps: the rate of ok answers with sc_.in_flight requests kept
/// outstanding on the load connection, as the mean over 0.1 s windows from
/// when the pipeline is full to the last send. On a shared host the rate
/// switches between levels that last seconds; the mean weighs them by
/// their time, where a median would pick one. A shed, invalid or missing
/// answer fails the run.
ServeRun::Capacity ServeRun::MeasureCapacity() {
  Rng rng(cfg_.seed * 131 + 7);
  ClosedLoopResult res = RunClosedLoop(
      fabric_->Router(kLoadConns[0]), [&] { return Draw(rng); },
      sc_.in_flight, CapacitySeconds(), cfg_.smoke ? 50 : kKeepEvery,
      fabric_->ClientCpu());
  constexpr double kWindowS = 0.1;
  const auto window_ns = static_cast<int64_t>(kWindowS * 1e9);
  const double lead_s = std::min(0.2, 0.25 * CapacitySeconds());
  const int64_t begin = res.start_ns + static_cast<int64_t>(lead_s * 1e9);
  const size_t windows =
      res.stop_ns > begin
          ? static_cast<size_t>((res.stop_ns - begin) / window_ns)
          : 0;
  std::vector<double> answers(windows, 0.0);
  std::vector<double> trees(windows, 0.0);
  for (size_t i = 0; i < res.ok_recv_ns.size(); ++i) {
    if (res.ok_recv_ns[i] < begin) continue;
    const auto w = static_cast<size_t>((res.ok_recv_ns[i] - begin) / window_ns);
    if (w >= windows) continue;
    answers[w] += 1.0 / kWindowS;
    trees[w] += res.ok_trees[i] / kWindowS;
  }
  Capacity cap;
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  cap.max_rps = mean(answers);
  cap.trees_per_s = mean(trees);
  cap.p99_ms = Quantile(res.ok_latency_ms, 0.99);
  cap.windows = windows;
  cap.sent = res.sent;
  cap.failed = res.Failed();
  const std::vector<bool> keep(res.kept_plan.size(), true);
  CollectChecks(std::move(res.kept_plan), std::move(res.kept), keep);
  return cap;
}

RunReport ServeRun::Traced() {
  Tracer& tracer = Tracer::Get();
  tracer.Enable(true);
  (void)SetupOnce(true);
  LoadOracle();
  WarmUp();
  const auto plan = MakePlan(sc_.fixed_rate, FixedSeconds(), cfg_.seed);
  const auto keep = SampleMask(plan.size(), kVerifySample, cfg_.seed);

  // The same fixed-rate phase twice, untraced then traced: the gap between
  // their p50s is the tracing overhead.
  tracer.Enable(false);
  PhaseResult plain = FixedPhase(plan, keep);
  const PhaseStats plain_stats = Evaluate(plan, plain, Swaps());
  uint64_t digest = kFnvSeed;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (keep[i] && plain.outcomes[i].answered) {
      digest = DigestResponse(digest, i, plain.kept[i]);
    }
  }
  CollectChecks(plan, std::move(plain), keep);
  if (writer_) digest = FinalCheckDigest();

  tracer.Enable(true);
  const auto before = fabric_->ReplicaMetrics();
  const auto router_before = fabric_->RouterMetrics();
  PhaseResult traced = FixedPhase(plan, keep);
  const auto after = fabric_->ReplicaMetrics();
  const auto router_after = fabric_->RouterMetrics();
  const PhaseStats traced_stats = Evaluate(plan, traced, Swaps());
  ServeLayerStats layers =
      LayerStats(plan, traced, before, after, router_before, router_after);
  CollectChecks(plan, std::move(traced), keep);
  layers.hop_p50_ms = HopProbe();
  fabric_->Shutdown();

  const uint64_t mismatches = RunChecks(checks_, poi_.get());
  RunReport report;
  report.attempted = plain_stats.sent + traced_stats.sent + checks_.size();
  report.failed = plain_stats.Failed() + traced_stats.Failed() + mismatches +
                  writer_errors_;
  report.correct = mismatches == 0 && writer_errors_ == 0 &&
                   plain_stats.stale == 0 && traced_stats.stale == 0;
  const double overhead =
      plain_stats.p50 > 0.0 ? traced_stats.p50 / plain_stats.p50 - 1.0 : 0.0;
  RunLayerProbes(sc_.instance, cfg_.seed, cfg_.smoke, layers, overhead,
                 report.metrics);
  char extra[256];
  std::snprintf(extra, sizeof(extra),
                ", \"verified\": %zu, \"mismatches\": %llu, \"spans\": %zu, "
                "\"answers_digest\": \"%s\"",
                checks_.size(), static_cast<unsigned long long>(mismatches),
                tracer.NumSpans(), Hex(digest).c_str());
  report.info = InfoJson(extra);
  return report;
}

// --- batch_trees ------------------------------------------------------------------

struct RoundLog {
  std::vector<double> ms;  // wall time of each ComputeManyTrees call
  /// ms of the calls no host stall overlapped (the latency percentiles).
  std::vector<double> unstalled_ms;
  double trees = 0.0;
  double busy_s = 0.0;
};

/// In-process many-tree computation (the paper's Table I/II case): calls of
/// kBatchRound uniform sources through ComputeManyTrees at k = 16 on every
/// OpenMP thread. No server, fabric or protocol code runs.
RunReport RunBatchTrees(const RunConfig& cfg) {
  const InstanceSpec spec = NetworkFor(cfg.workload, cfg.smoke);
  Tracer& tracer = Tracer::Get();
  tracer.Enable(cfg.trace);
  // One OpenMP thread per CPU, each pinned to its own (the paper's set-up,
  // and what keeps a call's time from depending on thread migrations).
  const std::vector<int> cpus = AllowedCpus();
#pragma omp parallel default(none) shared(cpus)
  {
#ifdef _OPENMP
    (void)PinThread(0, cpus[static_cast<size_t>(omp_get_thread_num()) %
                            cpus.size()]);
#endif
  }
  std::vector<double> setups;
  // rss_mb: the process's peak through its first set-up. Later set-ups and
  // the calls add what the allocator keeps of per-thread workspaces, which
  // varies from run to run with how the threads' frees interleave.
  double setup_rss_mb = 0.0;
  std::unique_ptr<phast::PreparedNetwork> prepared;
  std::unique_ptr<phast::Phast> engine;
  const int reps = cfg.smoke || cfg.trace ? 1 : kSetups;
  for (int r = 0; r < reps; ++r) {
    engine.reset();
    prepared.reset();
    const int64_t t0 = NowNs();
    phast::CountryParams params;
    params.width = spec.width;
    params.height = spec.height;
    params.seed = spec.graph_seed;
    const phast::EdgeList edges = phast::GenerateCountry(params).edges;
    prepared = std::make_unique<phast::PreparedNetwork>(
        phast::PrepareNetwork(edges));
    engine = std::make_unique<phast::Phast>(prepared->ch);
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (r == 0) setup_rss_mb = PeakRssMb(::getpid());
  }
  const uint32_t n = engine->NumVertices();

  // Sampled trees for the answer check: fixed source indices of the first
  // calls, so the untraced and traced runs of a seed check the same trees.
  constexpr size_t kCheckedRounds = 8;
  constexpr size_t kCheckStride = 64;
  constexpr size_t kPerRound = kBatchRound / kCheckStride;
  std::vector<Request> requests(kCheckedRounds * kPerRound);
  std::vector<Response> responses(requests.size());

  phast::BatchOptions options;
  options.trees_per_sweep = kBatchK;
  std::vector<VertexId> sources(kBatchRound);
  const auto run_rounds = [&](double seconds, uint64_t seed, bool sample,
                              RoundLog& log) {
    Rng rng(seed);
    std::vector<std::pair<int64_t, int64_t>> calls;
    StallSentinel sentinel;
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (size_t round = 0;
         NowNs() < end || (sample && round < kCheckedRounds); ++round) {
      for (VertexId& s : sources) s = static_cast<VertexId>(rng.NextBounded(n));
      const bool sampled = sample && round < kCheckedRounds;
      const int64_t t0 = NowNs();
      phast::ComputeManyTrees(
          *engine, std::span<const VertexId>(sources), options,
          [&](size_t i, const phast::Phast::Workspace& ws, uint32_t slot) {
            if (!sampled || i % kCheckStride != 0) return;
            const size_t k = round * kPerRound + i / kCheckStride;
            requests[k].source = sources[i];
            responses[k].distances.resize(n);
            for (VertexId v = 0; v < n; ++v) {
              responses[k].distances[v] = engine->Distance(ws, v, slot);
            }
          });
      const int64_t t1 = NowNs();
      tracer.Record("phast.many_trees", t0, t1, round + 1);
      calls.push_back({t0, t1});
      log.ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      log.trees += static_cast<double>(kBatchRound);
      log.busy_s += static_cast<double>(t1 - t0) * 1e-9;
    }
    const std::vector<HostStall> stalls = sentinel.Stop();
    for (const auto& [t0, t1] : calls) {
      const bool stalled =
          std::any_of(stalls.begin(), stalls.end(), [&](const HostStall& h) {
            return t1 >= h.begin_ns && t0 <= h.end_ns;
          });
      if (!stalled) log.unstalled_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    }
  };

  {
    RoundLog warm;
    run_rounds(cfg.smoke ? 0.05 : 0.3, cfg.seed ^ 0x3A3AULL, false, warm);
  }
  RoundLog log;
  double overhead = 0.0;
  if (cfg.trace) {
    tracer.Enable(false);
    run_rounds(0.45 * cfg.seconds, cfg.seed, true, log);
    RoundLog traced;
    tracer.Enable(true);
    run_rounds(0.45 * cfg.seconds, cfg.seed, false, traced);
    const double plain_p50 = Median(log.unstalled_ms);
    overhead = plain_p50 > 0.0 ? Median(traced.unstalled_ms) / plain_p50 - 1.0
                               : 0.0;
  } else {
    run_rounds(0.85 * cfg.seconds, cfg.seed, true, log);
  }

  std::vector<Check> checks;
  uint64_t digest = kFnvSeed;
  for (size_t k = 0; k < requests.size(); ++k) {
    digest = DigestResponse(digest, k, responses[k]);
    checks.push_back({&requests[k], &responses[k], &prepared->graph});
  }
  const uint64_t mismatches = RunChecks(checks, nullptr);
  RunReport report;
  report.attempted = static_cast<uint64_t>(log.trees) + checks.size();
  report.failed = mismatches;
  report.correct = mismatches == 0;

  if (cfg.trace) {
    RunLayerProbes(spec, cfg.seed, cfg.smoke, ServeLayerStats{}, overhead,
                   report.metrics);
  } else {
    if (!cfg.smoke && !SupportsP99(log.unstalled_ms.size())) {
      throw std::runtime_error("batch_trees ran too few calls for a p99");
    }
    MetricSet& m = report.metrics;
    m.Add("setup_s", Median(setups), "s");
    // Calls a host stall overlapped are timed by the host, not the engine.
    m.Add("latency_p50_ms", Median(log.unstalled_ms), "ms");
    m.Add("latency_p99_ms", Quantile(log.unstalled_ms, 0.99), "ms");
    // Throughput as the median over windows of kWindowCalls consecutive
    // calls: a burst of host steal slows the windows it hits, not the median.
    constexpr size_t kWindowCalls = 64;
    std::vector<double> window_calls_per_s;
    for (size_t w = 0; w + kWindowCalls <= log.ms.size(); w += kWindowCalls) {
      double ms = 0.0;
      for (size_t i = w; i < w + kWindowCalls; ++i) ms += log.ms[i];
      window_calls_per_s.push_back(kWindowCalls * 1e3 / ms);
    }
    const double calls_per_s =
        window_calls_per_s.empty()
            ? static_cast<double>(log.ms.size()) / log.busy_s
            : Median(window_calls_per_s);
    // One caller in a closed loop: the rate of kBatchRound-source calls the
    // engine sustains, and the trees they carry.
    m.Add("max_rps", calls_per_s, "1/s");
    m.Add("trees_per_s", calls_per_s * kBatchRound, "1/s");
    m.Add("rss_mb", setup_rss_mb, "MiB");
    // A pruned hierarchy takes a new metric only by preparing again.
    m.Add("swap_s", Median(setups), "s");
  }

  const size_t gplus =
      prepared->ch.up_arcs.size() + prepared->ch.down_arcs.size();
  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"batch_trees\", \"seed\": %llu, \"host\": %s, "
      "\"instance\": {\"generator\": \"country\", \"width\": %u, "
      "\"height\": %u, \"graph_seed\": %llu, \"customizable\": false, "
      "\"n\": %u, \"m\": %zu, \"levels\": %u, \"gplus_arcs\": %zu, "
      "\"shortcuts\": %zu, \"k\": %u, \"sources_per_call\": %zu, "
      "\"omp_threads\": %d}, \"latency_samples\": %zu, \"verified\": %zu, "
      "\"mismatches\": %llu, \"answers_digest\": \"%s\"}",
      static_cast<unsigned long long>(cfg.seed), HostJson().c_str(),
      spec.width, spec.height,
      static_cast<unsigned long long>(spec.graph_seed), n,
      prepared->graph.NumArcs(), prepared->ch.NumLevels(), gplus,
      prepared->ch.num_shortcuts, kBatchK, kBatchRound, threads, log.ms.size(),
      checks.size(), static_cast<unsigned long long>(mismatches),
      Hex(digest).c_str());
  report.info = buf;
  return report;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "tree_serve" || name == "table_serve" ||
         name == "batch_trees" || name == "reweight_serve";
}

RunReport RunWorkload(const RunConfig& cfg) {
  if (cfg.workload == "batch_trees") return RunBatchTrees(cfg);
  ServeRun run(cfg, ServeConfigFor(cfg));
  return run.Run();
}

}  // namespace perfbench
