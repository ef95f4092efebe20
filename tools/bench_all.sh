#!/usr/bin/env bash
# bench_all.sh — run the structured benches and aggregate their JSON into
# one BENCH_PHAST.json (schema "phast-bench-v1"), seeding the performance
# trajectory across PRs (DESIGN.md §8).
#
# Usage:
#   tools/bench_all.sh [BUILD_DIR] [OUTPUT]
#
# Defaults: BUILD_DIR=build, OUTPUT=BENCH_PHAST.json. Knobs (env):
#   BENCH_WIDTH / BENCH_HEIGHT   instance size        (default 96x96)
#   BENCH_SOURCES                sources per average  (default 4)
#   BENCH_REQUESTS               bench_server load    (default 2000)
#   BENCH_REPLICAS_LIST          bench_server fabric  (default 1,2,4)
#   BENCH_THREADS_LIST           ch_preprocessing     (default 1,2,4,8)
#   BENCH_KERNELS_FILTER         --benchmark_filter   (default all)
#   BENCH_CUSTOMIZE_ROUNDS       customization rounds (default 2)
#
# Aggregated benches: tab1_single_tree, tab2_multi_tree (per-cell time per
# tree with its upward/sweep split), fig1_levels (with a profiled-sweep
# section), server (including the fabric replica sweep and the
# cold-start-vs-copy-load row), ch_preprocessing (build-time scaling with a
# per-round contraction profile), customization (metric swap vs witness-free
# rebuild, byte-identity asserted), matrix (distance tables through every
# MatrixMode plus k-nearest-POI cutoff sweeps), and the google-benchmark
# kernels microbenches.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUTPUT="${2:-BENCH_PHAST.json}"
WIDTH="${BENCH_WIDTH:-96}"
HEIGHT="${BENCH_HEIGHT:-96}"
SOURCES="${BENCH_SOURCES:-4}"
REQUESTS="${BENCH_REQUESTS:-2000}"
REPLICAS_LIST="${BENCH_REPLICAS_LIST:-1,2,4}"
THREADS_LIST="${BENCH_THREADS_LIST:-1,2,4,8}"
KERNELS_FILTER="${BENCH_KERNELS_FILTER:-.*}"
CUSTOMIZE_ROUNDS="${BENCH_CUSTOMIZE_ROUNDS:-2}"

for binary in bench/bench_tab1_single_tree bench/bench_tab2_multi_tree \
              bench/bench_fig1_levels \
              bench/bench_server bench/bench_ch_preprocessing \
              bench/bench_customization bench/bench_kernels \
              bench/bench_matrix; do
  if [[ ! -x "$BUILD_DIR/$binary" ]]; then
    echo "bench_all: $BUILD_DIR/$binary not built" >&2
    exit 2
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "=== bench_all: tab1_single_tree ===" >&2
"$BUILD_DIR/bench/bench_tab1_single_tree" \
  --width="$WIDTH" --height="$HEIGHT" --sources="$SOURCES" \
  --json-out="$TMP/tab1_single_tree.json"

echo "=== bench_all: tab2_multi_tree ===" >&2
"$BUILD_DIR/bench/bench_tab2_multi_tree" \
  --width="$WIDTH" --height="$HEIGHT" --sources="$SOURCES" \
  --json-out="$TMP/tab2_multi_tree.json"

echo "=== bench_all: fig1_levels ===" >&2
"$BUILD_DIR/bench/bench_fig1_levels" \
  --width="$WIDTH" --height="$HEIGHT" \
  --json-out="$TMP/fig1_levels.json"

echo "=== bench_all: server ===" >&2
"$BUILD_DIR/bench/bench_server" \
  --width="$WIDTH" --height="$HEIGHT" --requests="$REQUESTS" \
  --replicas-list="$REPLICAS_LIST" \
  --json-out="$TMP/server.json"

echo "=== bench_all: ch_preprocessing ===" >&2
"$BUILD_DIR/bench/bench_ch_preprocessing" \
  --width="$WIDTH" --height="$HEIGHT" --threads-list="$THREADS_LIST" \
  --json-out="$TMP/ch_preprocessing.json"

echo "=== bench_all: customization ===" >&2
"$BUILD_DIR/bench/bench_customization" \
  --width="$WIDTH" --height="$HEIGHT" --rounds="$CUSTOMIZE_ROUNDS" \
  --json-out="$TMP/customization.json"

echo "=== bench_all: matrix ===" >&2
"$BUILD_DIR/bench/bench_matrix" \
  --width="$WIDTH" --height="$HEIGHT" --sources="$SOURCES" \
  --json-out="$TMP/matrix.json"

echo "=== bench_all: kernels ===" >&2
"$BUILD_DIR/bench/bench_kernels" \
  --benchmark_filter="$KERNELS_FILTER" \
  --benchmark_out="$TMP/kernels.json" --benchmark_out_format=json

python3 - "$TMP" "$OUTPUT" <<'EOF'
import json
import sys

tmp, output = sys.argv[1], sys.argv[2]
doc = {"schema": "phast-bench-v1", "benches": {}}
for name in ("tab1_single_tree", "tab2_multi_tree", "fig1_levels", "server",
             "ch_preprocessing", "customization", "matrix", "kernels"):
    with open(f"{tmp}/{name}.json", encoding="utf-8") as f:
        doc["benches"][name] = json.load(f)
with open(output, "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
names = ", ".join(doc["benches"])
print(f"bench_all: wrote {output} ({names})")
EOF
