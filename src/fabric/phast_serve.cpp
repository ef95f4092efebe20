// phast_serve — the distance-oracle replica daemon.
//
// Maps a snapshot artifact (see phast_prepare), rebuilds the PHAST engine
// with zero preprocessing, and serves the length-prefixed protocol
// (server/protocol.h) either over a Unix-domain socket or over the
// stdin/stdout pipe. All scheduling — batching, deadlines, shedding, the
// tree cache — lives in OracleService; this binary is transport + lifecycle.
//
//   phast_serve --snapshot=country.snap --socket=/tmp/phast.sock
//   phast_serve --snapshot=country.snap --stdio   # single pipe connection
//
// A PHSNAP02 snapshot is mmap-ed and served zero-copy: the engine's arrays
// are read-only views straight into the page cache, so N replicas over one
// file share one physical copy and cold start costs O(TOC). --verify picks
// the integrity/start-time tradeoff (full | sections | off; see
// fabric/mapping.h). A PHSNAP01 snapshot falls back to a copy-load out of
// the same mapping.
//
// A customizable snapshot (phast_prepare --customizable) is served through a
// SnapshotManager: clients may stream kUpdateWeights frames and trigger
// kSwap, which customizes the hierarchy to the pending overlay and
// hot-swaps the engine with zero dropped requests (epoch-versioned reads,
// DESIGN.md §10). Epoch 1 still serves zero-copy from the mapping; every
// customized epoch owns its arrays. Other snapshots pin one engine.
//
// Socket connections are multiplexed by one level-triggered epoll loop
// (fabric/serve_loop.h): pipelined requests, ordered responses, write
// backpressure — no thread per connection. --stdio keeps the synchronous
// single-pipe loop for harnesses that drive the daemon over a pipe pair.
//
// Observability (DESIGN.md §8): --trace-out=FILE enables scoped-span
// tracing for the process lifetime and writes a Chrome trace at shutdown
// (including the fabric.map cold-start span); --slow-ms=D logs completed
// requests at or above D ms to stderr; --startup-profile runs one profiled
// sweep and logs its summary at startup.
//
// Runs until a client sends a shutdown frame (or SIGINT/SIGTERM, or EOF in
// --stdio mode). Exit code 0 = clean shutdown, 2 = usage error.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <optional>
#include <string>

#include "apps/poi.h"
#include "fabric/mapping.h"
#include "fabric/serve_loop.h"
#include "obs/sweep_profile.h"
#include "obs/trace.h"
#include "phast/phast.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/snapshot.h"
#include "server/snapshot_manager.h"
#include "util/cli.h"
#include "util/timer.h"

namespace {

volatile std::sig_atomic_t g_signaled = 0;
void HandleSignal(int) { g_signaled = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace phast;
  const CommandLine cli(argc, argv);
  if (cli.Has("help") || !cli.Has("snapshot") ||
      (!cli.Has("socket") && !cli.GetBool("stdio", false))) {
    std::fprintf(
        stderr,
        "usage: %s --snapshot=PATH (--socket=SOCKPATH | --stdio)\n"
        "          [--verify=full|sections|off]  integrity work at startup\n"
        "          [--workers=N] [--max-batch=K] [--queue-capacity=N]\n"
        "          [--cache-capacity=N] [--deadline-ms=D]\n"
        "          [--rphast-max-targets=N]\n"
        "          [--poi=PATH]  PHPOI01 bucket index enabling kNearestPoi\n"
        "          [--customize-threads=N]  threads per kSwap customization\n"
        "          [--trace-out=FILE] [--slow-ms=D] [--startup-profile]\n",
        cli.ProgramName().c_str());
    return cli.Has("help") ? 0 : 2;
  }

  std::signal(SIGPIPE, SIG_IGN);  // torn client writes are handled inline
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const std::string trace_out = cli.GetString("trace-out", "");
  if (!trace_out.empty()) obs::EnableTracing(true);
  const bool startup_profile = cli.GetBool("startup-profile", false);

  const Timer load;
  // The mapping outlives everything below: a zero-copy engine's spans alias
  // it for the whole process lifetime.
  const fabric::MappedSnapshot mapped(
      cli.GetString("snapshot", ""),
      fabric::ParseVerifyMode(cli.GetString("verify", "sections")));

  // A customizable snapshot (hierarchy + graph sections) is served through
  // the hot-swap path; anything else pins a single engine for the process
  // lifetime. Metrics must outlive the manager (it registers gauges).
  server::MetricsRegistry metrics;
  std::optional<server::SnapshotManager> manager;
  std::optional<Phast> pinned;
  if (mapped.IsZeroCopy()) {
    PhastLayoutView view = mapped.LayoutView();
    // collect_profile is runtime-only (never serialized); opting in makes
    // every served batch carry a per-level profile in its workspace.
    view.options.collect_profile = startup_profile;
    const server::SnapshotMeta meta = mapped.Image().Meta();
    if (meta.has_graph != 0 && meta.has_ch != 0) {
      // Graph and hierarchy are mutated per-metric, so they are copied out
      // of the mapping; the epoch-1 engine itself stays a view.
      manager.emplace(Phast(view, mapped.Validation()),
                      server::DecodeSnapshotGraph(mapped.Image()),
                      server::DecodeSnapshotCH(mapped.Image()), metrics);
    } else {
      pinned.emplace(view, mapped.Validation());
    }
  } else {
    server::Snapshot snapshot = mapped.CopyDecode();
    snapshot.layout.options.collect_profile = startup_profile;
    if (snapshot.has_graph && snapshot.has_ch) {
      manager.emplace(std::move(snapshot), metrics);
    } else {
      pinned.emplace(std::move(snapshot.layout));
    }
  }
  const bool customizable = manager.has_value();
  // Valid for the startup log and profile only: after serving starts, a
  // swap may retire this engine.
  const Phast& engine = customizable ? manager->Current()->engine : *pinned;
  std::fprintf(
      stderr,
      "phast_serve: %u vertices, %u levels, %s in %.1f ms "
      "(%llu payload bytes verified)%s\n",
      engine.NumVertices(), engine.NumLevels(),
      mapped.IsZeroCopy() ? "mapped zero-copy" : "copy-loaded",
      load.ElapsedMs(),
      static_cast<unsigned long long>(mapped.PayloadBytesVerified()),
      customizable ? " (customizable)" : "");

  if (startup_profile) {
    // One profiled sweep up front: logs the level structure (Figure 1
    // shape) so a serve log records the instance's sweep character.
    Phast::Workspace ws = engine.MakeWorkspace(1);
    engine.ComputeTree(0, ws);
    const obs::SweepProfile& profile = ws.Profile();
    std::fprintf(stderr,
                 "phast_serve: startup profile: %zu levels, %llu arcs, "
                 "upward %.3f ms (%llu settled), sweep %.3f ms\n",
                 profile.levels.size(),
                 static_cast<unsigned long long>(profile.TotalArcs()),
                 static_cast<double>(profile.upward.nanos) * 1e-6,
                 static_cast<unsigned long long>(profile.upward.queue_pops),
                 static_cast<double>(profile.sweep_nanos) * 1e-6);
  }

  server::ServiceOptions options;
  options.num_workers = static_cast<uint32_t>(cli.GetInt("workers", 2));
  options.max_batch = static_cast<uint32_t>(cli.GetInt("max-batch", 8));
  options.queue_capacity =
      static_cast<size_t>(cli.GetInt("queue-capacity", 256));
  options.cache_capacity =
      static_cast<size_t>(cli.GetInt("cache-capacity", 8));
  options.default_deadline_ms = cli.GetDouble("deadline-ms", 0.0);
  options.rphast_max_targets =
      static_cast<size_t>(cli.GetInt("rphast-max-targets", 0));

  // Without an index kNearestPoi requests are rejected as invalid; the
  // kMatrix workload needs no sidecar.
  std::optional<PoiIndex> poi;
  if (cli.Has("poi")) {
    poi.emplace(ReadPoiFile(cli.GetString("poi", "")));
    Require(poi->NumVertices() == engine.NumVertices(),
            "POI index was built for a different snapshot");
    options.poi = &*poi;
    std::fprintf(stderr, "phast_serve: poi index: %u categories, %zu pois\n",
                 poi->NumCategories(), poi->TotalPois());
  }

  std::optional<server::OracleService> service;
  if (customizable) {
    service.emplace(*manager, options, metrics);
  } else {
    service.emplace(*pinned, options, metrics);
  }
  fabric::FrontEndOptions fe_options;
  fe_options.conn.slow_ms = cli.GetDouble("slow-ms", 0.0);
  fe_options.conn.manager = customizable ? &*manager : nullptr;
  fe_options.conn.customize_threads =
      static_cast<uint32_t>(cli.GetInt("customize-threads", 0));

  const auto dump_trace = [&trace_out] {
    if (trace_out.empty()) return;
    obs::WriteChromeTraceFile(trace_out);
    std::fprintf(stderr, "phast_serve: trace written to %s (%zu spans, %llu "
                 "dropped)\n",
                 trace_out.c_str(), obs::CollectSpans().size(),
                 static_cast<unsigned long long>(obs::DroppedSpanCount()));
  };

  if (cli.GetBool("stdio", false)) {
    server::ServeConnection(STDIN_FILENO, STDOUT_FILENO, *service, metrics,
                            fe_options.conn);
    service->Stop();
    dump_trace();
    std::fprintf(stderr, "phast_serve: pipe closed, exiting\n");
    return 0;
  }

  const std::string socket_path = cli.GetString("socket", "");
  const int listen_fd = server::ListenUnix(socket_path);
  std::fprintf(stderr, "phast_serve: listening on %s\n", socket_path.c_str());

  fabric::RunFrontEnd(listen_fd, *service, metrics, fe_options, &g_signaled);
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  service->Stop();
  dump_trace();

  const server::ServiceCounters c = service->Counters();
  std::fprintf(stderr,
               "phast_serve: done (admitted=%llu completed=%llu shed=%llu)\n",
               static_cast<unsigned long long>(c.admitted),
               static_cast<unsigned long long>(c.completed),
               static_cast<unsigned long long>(c.Shed()));
  return 0;
}
