// phast_trace — tracing & profiling driver (DESIGN.md §8).
//
// Builds a synthetic country, runs profiled PHAST batches with tracing
// enabled, prints the per-level sweep profile (the paper's Figure 1 shape:
// vertices/arcs/time/modeled bandwidth per CH level) plus upward-search
// stats and hardware counters when the perf interface is available, and
// writes a Chrome trace-event JSON loadable in chrome://tracing / Perfetto.
//
//   phast_trace --trace-out=trace.json
//   phast_trace --width=160 --height=160 --k=8 --sweeps=4 --json
//
// Exit code 0 = success, 2 = usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "obs/contraction_profile.h"
#include "obs/perf_counters.h"
#include "obs/sweep_profile.h"
#include "obs/trace.h"
#include "phast/phast.h"
#include "phast/prepare.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace phast;
  const CommandLine cli(argc, argv);
  if (cli.Has("help")) {
    std::printf(
        "usage: %s [--width=W --height=H --seed=S] [--k=K] [--sweeps=N]\n"
        "          [--ch-threads=N]    contraction threads (0 = all)\n"
        "          [--trace-out=FILE]  write Chrome trace JSON\n"
        "          [--json]            print sweep + contraction profiles as "
        "JSON\n",
        cli.ProgramName().c_str());
    return 0;
  }

  obs::EnableTracing(true);

  CountryParams params;
  params.width = static_cast<uint32_t>(cli.GetInt("width", 96));
  params.height = static_cast<uint32_t>(cli.GetInt("height", 96));
  params.seed = static_cast<uint64_t>(cli.GetInt("seed", 1));
  const auto k = static_cast<uint32_t>(cli.GetInt("k", 4));
  const int sweeps = static_cast<int>(cli.GetInt("sweeps", 4));
  if (k == 0 || sweeps <= 0) {
    std::fprintf(stderr, "phast_trace: --k and --sweeps must be positive\n");
    return 2;
  }

  PrepareOptions prepare_options;
  prepare_options.ch_params.threads =
      static_cast<uint32_t>(cli.GetInt("ch-threads", 0));
  const PreparedNetwork prepared = [&] {
    PHAST_SPAN("trace.prepare");
    return PrepareNetwork(GenerateCountry(params).edges, prepare_options);
  }();
  const obs::ContractionProfile& ch_profile = prepared.ch_stats.profile;
  std::printf(
      "instance: %u vertices, %u CH levels (contraction: %u threads, "
      "%u rounds, max batch %u, avg %.1f, %.2fs)\n",
      prepared.NumVertices(), prepared.ch.NumLevels(), ch_profile.threads,
      ch_profile.NumRounds(), ch_profile.MaxBatch(), ch_profile.AvgBatch(),
      prepared.ch_stats.seconds);

  Phast::Options options;
  options.collect_profile = true;
  const Phast engine(prepared.ch, options);
  Phast::Workspace ws = engine.MakeWorkspace(k);

  Rng rng(params.seed + 1);
  std::vector<VertexId> sources(k);
  obs::PerfCounterGroup perf;
  obs::PerfSample sample;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (VertexId& s : sources) {
      s = static_cast<VertexId>(rng.NextBounded(engine.NumVertices()));
    }
    const obs::ScopedPerfSample scoped(perf, sample);
    engine.ComputeTrees(sources, ws);
  }

  const obs::SweepProfile& profile = ws.Profile();
  std::printf("last batch (k=%u): upward %.3f ms (%llu settled, %llu arcs), "
              "sweep %.3f ms\n",
              profile.k, static_cast<double>(profile.upward.nanos) * 1e-6,
              static_cast<unsigned long long>(profile.upward.queue_pops),
              static_cast<unsigned long long>(profile.upward.arcs_relaxed),
              static_cast<double>(profile.sweep_nanos) * 1e-6);
  std::printf("%8s %10s %12s %10s %10s\n", "level", "vertices", "arcs", "us",
              "GB/s");
  for (const obs::LevelProfile& level : profile.levels) {
    std::printf("%8u %10u %12llu %10.1f %10.2f\n", level.level, level.vertices,
                static_cast<unsigned long long>(level.arcs),
                static_cast<double>(level.nanos) * 1e-3,
                level.BandwidthGBps());
  }
  std::printf("perf: %s\n",
              obs::FormatPerfSample(sample, perf.Available()).c_str());
  if (cli.GetBool("json", false)) {
    std::printf("%s\n", profile.ToJson().c_str());
    std::printf("%s\n", ch_profile.ToJson().c_str());
  }

  if (cli.Has("trace-out")) {
    const std::string path = cli.GetString("trace-out", "");
    obs::WriteChromeTraceFile(path);
    std::printf("trace written to %s (%zu spans, %llu dropped)\n",
                path.c_str(), obs::CollectSpans().size(),
                static_cast<unsigned long long>(obs::DroppedSpanCount()));
  }
  return 0;
}
