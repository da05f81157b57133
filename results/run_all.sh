#!/bin/bash
# Regenerates every table and figure at the paper's scale.
set -x
cd "$(dirname "$0")/.."
R=results
# Fresh run, fresh log: progress.txt and failures.txt accumulate via
# appends below, so clear them up front.
: > $R/progress.txt
rm -f $R/failures.txt
run() {
  name=$1; shift; start=$(date +%s)
  cargo run --release -q -p mithra-bench --bin $name -- "$@" > $R/$name.txt 2> $R/$name.log || echo "FAILED: $name" >> $R/failures.txt
  echo "done: $name in $(( $(date +%s) - start ))s" >> $R/progress.txt
  # Per-stage wall times: each compile session prints a StageReport block
  # to stderr; mirror it into progress.txt so a long run is inspectable.
  grep -E '^(compile session \[|  (npu-training|profiling|certification|classifier-training|validation-profiling|pool-training|routed-certification|router-training) )' $R/$name.log >> $R/progress.txt 2>/dev/null || true
}
run table1_benchmarks
run fig01_error_cdf
run fig06_main_results
run fig07_false_decisions
run fig08_per_benchmark
run table2_classifier_sizes
run fig09_random_filtering
run fig10_success_sweep
run fig11_pareto
run ablation_designs
run textA_sw_overhead
# Fault-robustness sweep: q5 keeps the certified thresholds tight enough
# that faulted outputs register as violations (q10's lax thresholds mask
# them); 30/8 datasets keep the three-rate sweep tractable.
run figx_fault_robustness --scale full --datasets 30 --validation 8 --quality 5 --cache-dir target/mithra-cache
# Conformance validation: does the certified guarantee actually hold on
# unseen datasets? q5 is the paper's headline spec; 100 Monte-Carlo
# trials give the exact binomial test enough power to flag a broken
# certificate, and the mutation self-check must detect every planted
# defect for the verdicts to count.
run figy_guarantee_validation --scale full --quality 5 --cache-dir target/mithra-cache --out BENCH_conform.json
# Routed multi-approximator frontier: can a pool of cheap/medium/accurate
# topologies beat the binary accept/reject frontier at the same certified
# (S, beta)? --pool-check additionally compiles a pool of one per
# benchmark and requires its conformance report to be byte-identical to
# the binary baseline's.
run figz_multi_approximator --scale full --quality 5 --cache-dir target/mithra-cache --pool 3 --pool-check --out BENCH_route.json
# Closed-loop self-healing: per benchmark × drift scenario, the watchdog
# detects injected input drift, the recert engine re-certifies a fresh
# operating point online under the always-valid sequential test, and the
# swapped pair is judged on unseen drifted datasets. Drift severity is
# per-benchmark (see figw's default_noise_for).
run figw_self_healing --scale full --quality 5 --cache-dir target/mithra-cache --out BENCH_recert.json
# Design-space exploration: enumerate 27 pool compositions per
# benchmark, prune with probe-trained predictors down to the auto
# budget (a quarter of the space), fully certify the survivors, and
# emit the per-benchmark Pareto frontier over (speedup, energy,
# certified S). The fixed figz tiering and the pool of one ride along
# as force-evaluated anchors.
run figv_design_space --scale full --quality 5 --cache-dir target/mithra-cache --out BENCH_explore.json
# Extended (non-AxBench) workloads: Table I and Figure 1 regenerated for
# the grown suite members into separate *_extended files, so the paper's
# six-benchmark originals stay byte-identical (golden_pin.sh compares
# them exactly). The "paper" column for these rows is the measured
# full-approximation error, pinned by mithra-bench's
# measured_full_approx_error test.
for name in table1_benchmarks fig01_error_cdf; do
  start=$(date +%s)
  cargo run --release -q -p mithra-bench --bin $name -- --bench kmeans,raytrace \
    > $R/${name}_extended.txt 2> $R/${name}_extended.log || echo "FAILED: ${name}_extended" >> $R/failures.txt
  echo "done: ${name}_extended in $(( $(date +%s) - start ))s" >> $R/progress.txt
done
# Conformance verdicts for the extended workloads: the certified (S, beta)
# guarantee on 100 unseen full-scale datasets per workload, same spec as
# the six-benchmark figy run above.
start=$(date +%s)
cargo run --release -q -p mithra-bench --bin figy_guarantee_validation -- \
  --scale full --quality 5 --cache-dir target/mithra-cache \
  --bench kmeans,raytrace --out BENCH_conform_extended.json \
  > $R/figy_guarantee_validation_extended.txt 2> $R/figy_guarantee_validation_extended.log \
  || echo "FAILED: figy_guarantee_validation_extended" >> $R/failures.txt
echo "done: figy_guarantee_validation_extended in $(( $(date +%s) - start ))s" >> $R/progress.txt
echo ALL_DONE >> $R/progress.txt
