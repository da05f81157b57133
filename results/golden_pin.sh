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

pin() {
  name=$1
  cargo run --locked --release -q -p mithra-bench --bin "$name" -- \
    --bench "$BENCHES" > "$OUT/$name.txt" 2> "$OUT/$name.log"
  for b in ${BENCHES//,/ }; do
    grep "^$b" "$R/$name.txt" | tr -s ' ' > "$OUT/$name.$b.expected"
    grep "^$b" "$OUT/$name.txt" | tr -s ' ' > "$OUT/$name.$b.actual"
    if ! cmp -s "$OUT/$name.$b.expected" "$OUT/$name.$b.actual"; then
      echo "GOLDEN PIN FAILED: $name/$b diverged from committed $R/$name.txt" >&2
      diff -u "$OUT/$name.$b.expected" "$OUT/$name.$b.actual" >&2 || true
      exit 1
    fi
    echo "pinned: $name/$b ($(wc -l < "$OUT/$name.$b.actual") lines byte-identical)"
  done
}

pin table1_benchmarks
pin fig01_error_cdf
# fig08's oracle, table and neural rows come from sim::simulate over every
# validation dataset, so this slice pins the runtime decision loop.
pin fig08_per_benchmark

# Extended-workload slice: the kmeans rows of the *_extended Table I and
# Figure 1 files (run_all.sh regenerates those with --bench
# kmeans,raytrace; rows are per-benchmark independent, so a kmeans-only
# re-run compares byte-exactly after space collapsing, same as above).
b=kmeans
for name in table1_benchmarks fig01_error_cdf; do
  cargo run --locked --release -q -p mithra-bench --bin "$name" -- \
    --bench "$b" > "$OUT/${name}_extended.txt" 2> "$OUT/${name}_extended.log"
  grep "^$b" "$R/${name}_extended.txt" | tr -s ' ' > "$OUT/${name}_extended.$b.expected"
  grep "^$b" "$OUT/${name}_extended.txt" | tr -s ' ' > "$OUT/${name}_extended.$b.actual"
  if ! cmp -s "$OUT/${name}_extended.$b.expected" "$OUT/${name}_extended.$b.actual"; then
    echo "GOLDEN PIN FAILED: ${name}_extended/$b diverged from committed $R/${name}_extended.txt" >&2
    diff -u "$OUT/${name}_extended.$b.expected" "$OUT/${name}_extended.$b.actual" >&2 || true
    exit 1
  fi
  echo "pinned: ${name}_extended/$b ($(wc -l < "$OUT/${name}_extended.$b.actual") lines byte-identical)"
done

# One figz slice: the routed-frontier rows for inversek2j, re-run with
# exactly the flags run_all.sh uses (the figz defaults differ) and
# byte-compared the same way. --pool-check doubles as a parity assert:
# the binary exits non-zero if the pool-of-one conformance report
# diverges from the binary baseline's.
name=figz_multi_approximator
b=inversek2j
cargo run --locked --release -q -p mithra-bench --bin "$name" -- \
  --scale full --quality 5 --cache-dir target/mithra-cache \
  --pool 3 --pool-check --out "$OUT/BENCH_route_pin.json" \
  --bench "$b" > "$OUT/$name.txt" 2> "$OUT/$name.log"
grep "^$b" "$R/$name.txt" | tr -s ' ' > "$OUT/$name.$b.expected"
grep "^$b" "$OUT/$name.txt" | tr -s ' ' > "$OUT/$name.$b.actual"
if ! cmp -s "$OUT/$name.$b.expected" "$OUT/$name.$b.actual"; then
  echo "GOLDEN PIN FAILED: $name/$b diverged from committed $R/$name.txt" >&2
  diff -u "$OUT/$name.$b.expected" "$OUT/$name.$b.actual" >&2 || true
  exit 1
fi
echo "pinned: $name/$b ($(wc -l < "$OUT/$name.$b.actual") lines byte-identical)"

# One figw slice: the closed-loop self-healing rows for inversek2j
# (step + ramp + transient at the per-benchmark default drift severity),
# re-run with exactly the flags run_all.sh uses and byte-compared the
# same way — pins the whole watchdog → recert → hot-swap → conformance
# chain, swap epoch and trial counts included.
name=figw_self_healing
b=inversek2j
cargo run --locked --release -q -p mithra-bench --bin "$name" -- \
  --scale full --quality 5 --cache-dir target/mithra-cache \
  --out "$OUT/BENCH_recert_pin.json" \
  --bench "$b" > "$OUT/$name.txt" 2> "$OUT/$name.log"
grep "^$b" "$R/$name.txt" | tr -s ' ' > "$OUT/$name.$b.expected"
grep "^$b" "$OUT/$name.txt" | tr -s ' ' > "$OUT/$name.$b.actual"
if ! cmp -s "$OUT/$name.$b.expected" "$OUT/$name.$b.actual"; then
  echo "GOLDEN PIN FAILED: $name/$b diverged from committed $R/$name.txt" >&2
  diff -u "$OUT/$name.$b.expected" "$OUT/$name.$b.actual" >&2 || true
  exit 1
fi
echo "pinned: $name/$b ($(wc -l < "$OUT/$name.$b.actual") lines byte-identical)"

# One figv slice: the design-space exploration rows for inversek2j
# (frontier lines + table row), re-run with exactly the flags
# run_all.sh uses and byte-compared the same way — pins the probe
# predictors, the prune/budget selection, every fully-evaluated
# certificate and the emitted frontier.
name=figv_design_space
b=inversek2j
cargo run --locked --release -q -p mithra-bench --bin "$name" -- \
  --scale full --quality 5 --cache-dir target/mithra-cache \
  --out "$OUT/BENCH_explore_pin.json" \
  --bench "$b" > "$OUT/$name.txt" 2> "$OUT/$name.log"
grep "^$b" "$R/$name.txt" | tr -s ' ' > "$OUT/$name.$b.expected"
grep "^$b" "$OUT/$name.txt" | tr -s ' ' > "$OUT/$name.$b.actual"
if ! cmp -s "$OUT/$name.$b.expected" "$OUT/$name.$b.actual"; then
  echo "GOLDEN PIN FAILED: $name/$b diverged from committed $R/$name.txt" >&2
  diff -u "$OUT/$name.$b.expected" "$OUT/$name.$b.actual" >&2 || true
  exit 1
fi
echo "pinned: $name/$b ($(wc -l < "$OUT/$name.$b.actual") lines byte-identical)"
echo "golden pin OK"
