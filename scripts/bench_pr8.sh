#!/usr/bin/env bash
# bench_pr8.sh — measure the streaming dataset subsystem and produce
# BENCH_PR8.json.
#
# Two measurements:
#
#  1. Sampling savings: build the same benchmark × cache sweep twice —
#     exhaustively and with representative-interval sampling — into
#     fresh stores, and compare the per-process sim_runs counters each
#     build prints. Same suites, same -max-windows: the window
#     population the plan clusters is exactly the population the full
#     build simulates.
#
#  2. Worker-count invariance: run tiny fig7 twice (-j1 and -j8) into
#     fresh artifact dirs/stores and require the trained model
#     artifacts to be byte-identical.
#
#   scripts/bench_pr8.sh [out.json]
#
# Environment knobs: NGROUPS (default 8), PHASES (default 2), OPS
# (default 20000), MAXWIN (default 40), SAMPLE_K (default 4).
set -euo pipefail

OUT="${1:-BENCH_PR8.json}"
NGROUPS="${NGROUPS:-8}"
PHASES="${PHASES:-2}"
OPS="${OPS:-20000}"
MAXWIN="${MAXWIN:-40}"
SAMPLE_K="${SAMPLE_K:-4}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/cbx-dataset" ./cmd/cbx-dataset
go build -o "$WORK/cbx-experiments" ./cmd/cbx-experiments

build() { # build <store> <name> [extra flags...]
  local root="$1" name="$2"
  shift 2
  "$WORK/cbx-dataset" -root "$root" build -name "$name" \
    -suites spec,zipf -groups "$NGROUPS" -phases "$PHASES" -ops "$OPS" \
    -cache 64x12,128x6 -heatmap 16x16 -window 150 \
    -max-windows "$MAXWIN" -j 4 "$@"
}

sim_runs() { grep -o 'sim_runs=[0-9]*' <<<"$1" | head -1 | cut -d= -f2; }
stream_windows() { grep -o 'stream_windows=[0-9]*' <<<"$1" | head -1 | cut -d= -f2; }

echo "== full build =="
FULL_OUT="$(build "$WORK/full" full)"
echo "$FULL_OUT"
echo "== sampled build (k=$SAMPLE_K) =="
SAMP_OUT="$(build "$WORK/samp" sampled -sample -sample-k "$SAMPLE_K" -sample-seed 1)"
echo "$SAMP_OUT"

FULL_SIMS="$(sim_runs "$FULL_OUT")"
SAMP_SIMS="$(sim_runs "$SAMP_OUT")"
FULL_WINS="$(stream_windows "$FULL_OUT")"
SAMP_WINS="$(stream_windows "$SAMP_OUT")"

echo "== fig7 equivalence (-j1 vs -j8) =="
T0=$SECONDS
"$WORK/cbx-experiments" -scale tiny -run fig7 -artifacts "$WORK/s1" -store "$WORK/s1-store" -j 1 >/dev/null
S1_SECS=$((SECONDS - T0))
T0=$SECONDS
"$WORK/cbx-experiments" -scale tiny -run fig7 -artifacts "$WORK/s8" -store "$WORK/s8-store" -j 8 >/dev/null
S8_SECS=$((SECONDS - T0))
cmp "$WORK/s1/tiny-fig7-rq1-mixed.cbgan" "$WORK/s8/tiny-fig7-rq1-mixed.cbgan"
MODEL_SHA="$(sha256sum "$WORK/s1/tiny-fig7-rq1-mixed.cbgan" | cut -d' ' -f1)"
echo "fig7 model artifacts byte-identical ($MODEL_SHA)"

python3 - "$OUT" <<EOF
import json, sys, platform, os, datetime
full_sims, samp_sims = $FULL_SIMS, $SAMP_SIMS
full_wins, samp_wins = $FULL_WINS, $SAMP_WINS
ratio = full_sims / samp_sims
assert ratio >= 3, f"sampling saved only {ratio:.2f}x sim runs"
doc = {
    "description": "Streaming dataset subsystem (internal/stream + internal/sampling): "
                   "exhaustive vs representative-sampled build of the same "
                   "spec+zipf x {64x12,128x6} sweep, and tiny fig7 -j1-vs-j8 "
                   "artifact equivalence. Reproduce with: scripts/bench_pr8.sh",
    "date": datetime.date.today().isoformat(),
    "goos": "linux",
    "machine": platform.machine(),
    "nproc": os.cpu_count(),
    "sampling_savings": {
        "suites": "spec,zipf", "groups": $NGROUPS, "phases": $PHASES,
        "ops": $OPS, "caches": ["64x12", "128x6"], "max_windows": $MAXWIN,
        "sample_k": $SAMPLE_K,
        "full_sim_runs": full_sims,
        "sampled_sim_runs": samp_sims,
        "sim_run_savings_ratio": round(ratio, 2),
        "full_windows_simulated": full_wins,
        "sampled_windows_simulated": samp_wins,
        "window_savings_ratio": round(full_wins / samp_wins, 2),
    },
    "stream_equivalence": {
        "experiment": "tiny fig7",
        "model_sha256": "$MODEL_SHA",
        "byte_identical": ["-j1", "-j8"],
        "j1_seconds": $S1_SECS,
        "j8_seconds": $S8_SECS,
    },
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {sys.argv[1]}: {ratio:.2f}x fewer sim runs, "
      f"{full_wins}/{samp_wins} windows simulated")
EOF
