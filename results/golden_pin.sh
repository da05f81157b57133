#!/bin/bash
# Golden pin: re-runs a cheap subset of run_all.sh (inversek2j + sobel at
# the full experiment scale) and byte-compares the per-benchmark output
# lines against the committed results/*.txt. The content of a benchmark's
# rows is independent of which other suite members ran; only the table
# column padding depends on the widest name in the run, so space runs are
# collapsed on both sides and the compare is byte-exact after that — any
# change that perturbs a published digit or label fails here.
set -euo pipefail
cd "$(dirname "$0")/.."
R=results
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
BENCHES="inversek2j,sobel"

# pin FILE BENCHES [FLAGS...]: runs the binary FILE names (a trailing
# `_extended` is the same binary on the grown suite) with FLAGS and
# `--bench BENCHES`, then compares each benchmark's rows against the
# committed results/FILE.txt.
pin() {
  file=$1 benches=$2
  shift 2
  cargo run --locked --release -q -p mithra-bench --bin "${file%_extended}" -- \
    "$@" --bench "$benches" > "$OUT/$file.txt" 2> "$OUT/$file.log"
  for b in ${benches//,/ }; do
    grep "^$b" "$R/$file.txt" | tr -s ' ' > "$OUT/$file.$b.expected"
    grep "^$b" "$OUT/$file.txt" | tr -s ' ' > "$OUT/$file.$b.actual"
    if ! cmp -s "$OUT/$file.$b.expected" "$OUT/$file.$b.actual"; then
      echo "GOLDEN PIN FAILED: $file/$b diverged from committed $R/$file.txt" >&2
      diff -u "$OUT/$file.$b.expected" "$OUT/$file.$b.actual" >&2 || true
      exit 1
    fi
    echo "pinned: $file/$b ($(wc -l < "$OUT/$file.$b.actual") lines byte-identical)"
  done
}

pin table1_benchmarks "$BENCHES"
pin fig01_error_cdf "$BENCHES"
# fig08's oracle, table and neural rows come from sim::simulate over every
# validation dataset, so this slice pins the runtime decision loop.
pin fig08_per_benchmark "$BENCHES"
# Table II's neural topology and size columns: run from a cold cache (as
# in CI) this retrains the paper's neural classifier for each benchmark.
pin table2_classifier_sizes "$BENCHES"

# Extended-workload slice: the kmeans rows of the *_extended Table I and
# Figure 1 files (run_all.sh regenerates those with --bench
# kmeans,raytrace; rows are per-benchmark independent, so a kmeans-only
# re-run compares byte-exactly after space collapsing, same as above).
pin table1_benchmarks_extended kmeans
pin fig01_error_cdf_extended kmeans

# The slices below re-run inversek2j with exactly the flags run_all.sh
# uses (their defaults differ).
#
# figz: the routed-frontier rows. --pool-check doubles as a parity
# assert: the binary exits non-zero if the pool-of-one conformance report
# diverges from the binary baseline's.
pin figz_multi_approximator inversek2j \
  --scale full --quality 5 --cache-dir target/mithra-cache \
  --pool 3 --pool-check --out "$OUT/BENCH_route_pin.json"

# figw: the closed-loop self-healing rows (step + ramp + transient at the
# per-benchmark default drift severity) — pins the whole watchdog →
# recert → hot-swap → conformance chain, swap epoch and trial counts
# included.
pin figw_self_healing inversek2j \
  --scale full --quality 5 --cache-dir target/mithra-cache \
  --out "$OUT/BENCH_recert_pin.json"
# The text rows round; the JSON does not. The pin run's inversek2j
# sessions must equal the committed BENCH_recert.json records field for
# field at full precision: recert cycles and energy (the shadow and
# upload pricing), post-swap speedup and the conformance trial records
# included.
python3 - "$OUT/BENCH_recert_pin.json" BENCH_recert.json <<'PY'
import json, sys

def sessions(path):
    with open(path) as f:
        return [s for s in json.load(f)["sessions"] if s["benchmark"] == "inversek2j"]

got, want = sessions(sys.argv[1]), sessions(sys.argv[2])
if not want or [s["scenario"] for s in got] != [s["scenario"] for s in want]:
    sys.exit(f"GOLDEN PIN FAILED: figw inversek2j scenarios {[s['scenario'] for s in got]}"
             f" != committed {[s['scenario'] for s in want]}")
for g, w in zip(got, want):
    diverged = sorted(k for k in w.keys() | g.keys() if g.get(k) != w.get(k))
    if diverged:
        sys.exit(f"GOLDEN PIN FAILED: figw inversek2j/{w['scenario']} diverged from"
                 f" committed BENCH_recert.json in {diverged}")
print(f"pinned: BENCH_recert.json inversek2j ({len(want)} sessions, full precision)")
PY

# figv: the design-space exploration rows (frontier lines + table row) —
# pins the probe predictors, the prune/budget selection, every
# fully-evaluated certificate and the emitted frontier.
pin figv_design_space inversek2j \
  --scale full --quality 5 --cache-dir target/mithra-cache \
  --out "$OUT/BENCH_explore_pin.json"

# fig11: the only committed result that trains through the fixed-policy
# table path (TableClassifier::train_with_policy) at all 16 Figure-11
# geometries. Its rows aggregate the whole suite, so it runs with
# run_all.sh's invocation (no flags) and the whole file compares byte
# for byte.
cargo run --locked --release -q -p mithra-bench --bin fig11_pareto \
  > "$OUT/fig11_pareto.txt" 2> "$OUT/fig11_pareto.log"
if ! cmp -s "$R/fig11_pareto.txt" "$OUT/fig11_pareto.txt"; then
  echo "GOLDEN PIN FAILED: fig11_pareto diverged from committed $R/fig11_pareto.txt" >&2
  diff -u "$R/fig11_pareto.txt" "$OUT/fig11_pareto.txt" >&2 || true
  exit 1
fi
echo "pinned: fig11_pareto (whole file, $(wc -l < "$OUT/fig11_pareto.txt") lines byte-identical)"
echo "golden pin OK"
