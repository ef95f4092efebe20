#include "gpusim/gphast.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "util/error.h"
#include "util/timer.h"

namespace phast {

Gphast::Gphast(const Phast& engine, const DeviceSpec& spec)
    : engine_(engine), device_(spec) {
  Require(!engine.LevelBoundaries().empty(),
          "GPHAST requires a level-ordered PHAST engine");
}

uint64_t Gphast::DeviceMemoryBytes(uint32_t k) const {
  const uint64_t n = engine_.NumVertices();
  // Topology: first array + (tail, weight) arc records; labels k-strided;
  // one visit bit per vertex. Matches what ComputeTrees actually touches.
  const uint64_t arcs = engine_.SweepTopology().down_first[n];
  return (n + 1) * sizeof(ArcId) + arcs * sizeof(DownArc) +
         n * static_cast<uint64_t>(k) * sizeof(Weight) + (n + 7) / 8;
}

Gphast::Result Gphast::ComputeTrees(std::span<const VertexId> sources,
                                    Phast::Workspace& ws) {
  PHAST_SPAN_ARG("gphast.batch", ws.NumTrees());
  Result result;
  Require(FitsInDeviceMemory(ws.NumTrees()),
          "k trees exceed the modeled device memory");

  const double before = device_.TotalStats().modeled_seconds;

  // Phase one on the CPU (measured wall time, like the paper).
  Timer host_timer;
  {
    PHAST_SPAN("gphast.upward");
    engine_.RunUpwardPhase(sources, ws);
  }
  result.host_seconds = host_timer.ElapsedSec();

  // Copy the search spaces to the device: per visited vertex one id plus
  // its k labels ("less than 2 KB" per source on Europe, §VI).
  const uint64_t copy_bytes =
      ws.UpwardSearchSpace() *
      (sizeof(VertexId) + static_cast<uint64_t>(ws.NumTrees()) * sizeof(Weight));
  device_.HostToDeviceCopy(copy_bytes);

  // One kernel per level, highest level first (§VI).
  PHAST_SPAN("gphast.device_sweep");
  const SweepArgs args = engine_.MakeSweepArgs(ws);
  const std::span<const VertexId> levels = engine_.LevelBoundaries();
  for (size_t group = 0; group + 1 < levels.size(); ++group) {
    if (levels[group] == levels[group + 1]) continue;  // empty level
    device_.BeginKernel();
    SimulateLevelKernel(args, levels[group], levels[group + 1]);
    device_.EndKernel();
    ++result.kernels_launched;
  }
  engine_.FinishExternalSweep(ws);

  result.modeled_device_seconds =
      device_.TotalStats().modeled_seconds - before;
  return result;
}

void Gphast::SimulateLevelKernel(const SweepArgs& args, VertexId begin,
                                 VertexId end) {
  const uint32_t k = args.k;
  const uint32_t warp = device_.Spec().warp_size;
  const uint64_t threads = static_cast<uint64_t>(end - begin) * k;

  // Virtual device addresses: reuse the host addresses — the relative
  // layout (and therefore segment coalescing) is identical.
  const auto first_addr = reinterpret_cast<uint64_t>(args.down_first);
  const auto arcs_addr = reinterpret_cast<uint64_t>(args.down_arcs);
  const auto labels_addr = reinterpret_cast<uint64_t>(args.labels);
  const auto marks_addr = reinterpret_cast<uint64_t>(args.marks);

  std::vector<uint64_t> access;   // scratch: addresses of active lanes
  std::vector<Weight> lane_dist;  // per-lane running label
  access.reserve(warp);
  lane_dist.resize(warp);

  for (uint64_t warp_begin = 0; warp_begin < threads; warp_begin += warp) {
    const uint32_t lanes =
        static_cast<uint32_t>(std::min<uint64_t>(warp, threads - warp_begin));

    // Lane -> (sweep position, tree slot). Consecutive threads take
    // consecutive slots of the same vertex, so for k >= warp_size a whole
    // warp shares one vertex (§VI).
    const auto pos_of = [&](uint32_t lane) {
      return begin + static_cast<VertexId>((warp_begin + lane) / k);
    };
    const auto slot_of = [&](uint32_t lane) {
      return static_cast<uint32_t>((warp_begin + lane) % k);
    };
    const auto vertex_of = [&](uint32_t lane) {
      const VertexId pos = pos_of(lane);
      return args.order != nullptr ? args.order[pos] : pos;
    };

    // Step 1: read the arc range (first[pos], first[pos+1]).
    access.clear();
    for (uint32_t l = 0; l < lanes; ++l) {
      access.push_back(first_addr + pos_of(l) * sizeof(ArcId));
    }
    device_.WarpMemoryAccess(access, sizeof(ArcId));

    // Step 2: visit marks (implicit initialization, §IV-C).
    if (args.marks != nullptr) {
      access.clear();
      for (uint32_t l = 0; l < lanes; ++l) {
        access.push_back(marks_addr + (vertex_of(l) >> 6) * sizeof(uint64_t));
      }
      device_.WarpMemoryAccess(access, sizeof(uint64_t));
    }

    // Initialize per-lane labels (register-resident on a real GPU).
    uint32_t max_arcs = 0;
    for (uint32_t l = 0; l < lanes; ++l) {
      const VertexId pos = pos_of(l);
      const VertexId v = vertex_of(l);
      const bool marked = args.marks == nullptr || args.Marked(v);
      lane_dist[l] =
          marked ? args.labels[static_cast<size_t>(v) * k + slot_of(l)]
                 : kInfWeight;
      max_arcs = std::max(max_arcs, args.down_first[pos + 1] -
                                        args.down_first[pos]);
    }

    // Step 3: predicated arc loop — the warp iterates max_arcs times, lanes
    // whose vertex has fewer incoming arcs sit out (§VI SIMT divergence).
    for (uint32_t step = 0; step < max_arcs; ++step) {
      access.clear();
      for (uint32_t l = 0; l < lanes; ++l) {
        const VertexId pos = pos_of(l);
        const ArcId arc = args.down_first[pos] + step;
        if (arc < args.down_first[pos + 1]) {
          access.push_back(arcs_addr + static_cast<uint64_t>(arc) *
                                           sizeof(DownArc));
        }
      }
      if (access.empty()) continue;
      device_.WarpMemoryAccess(access, sizeof(DownArc));

      access.clear();
      for (uint32_t l = 0; l < lanes; ++l) {
        const VertexId pos = pos_of(l);
        const ArcId arc = args.down_first[pos] + step;
        if (arc >= args.down_first[pos + 1]) continue;
        const DownArc& a = args.down_arcs[arc];
        const uint64_t label_index =
            static_cast<uint64_t>(a.tail) * k + slot_of(l);
        access.push_back(labels_addr + label_index * sizeof(Weight));
        // Functional relaxation (what the kernel computes).
        const Weight candidate =
            SaturatingAdd(args.labels[label_index], a.weight);
        if (candidate < lane_dist[l]) {
          lane_dist[l] = candidate;
          if (args.parents != nullptr) {
            args.parents[static_cast<size_t>(vertex_of(l)) * k + slot_of(l)] =
                a.tail;
          }
        }
      }
      device_.WarpMemoryAccess(access, sizeof(Weight));
      device_.WarpCompute(2);  // add + min per step
    }

    // Step 4: write back the final labels.
    access.clear();
    for (uint32_t l = 0; l < lanes; ++l) {
      const uint64_t label_index =
          static_cast<uint64_t>(vertex_of(l)) * k + slot_of(l);
      access.push_back(labels_addr + label_index * sizeof(Weight));
      args.labels[label_index] = lane_dist[l];
    }
    device_.WarpMemoryAccess(access, sizeof(Weight));
  }
}

}  // namespace phast
