#!/usr/bin/env bash
# Prints every deterministic line of `capebench --seconds 0` (a warm-up
# plus one timed round) on all four workloads at seeds 11 and 3: the
# untraced `sim_cycles` and `ok_frac`, and every traced line whose unit is
# count, frac, ops, cycles, MB or ratio, except the host-time shares
# (`share.*`) and the tracer's own overhead (`trace.*`). Host time and
# `csb.pool_threads` (it follows the host's CPU count) are left out.
#
# Each line reads `<workload> <seed> <metric> <value> <unit>`. CI diffs the
# output with results/capebench_counts.txt; a change that moves a line
# commits the regenerated file:
#
#   results/capebench_counts.sh > results/capebench_counts.txt
set -euo pipefail
cd "$(dirname "$0")/.."
run() {
    cargo run --release --offline --quiet --manifest-path capebench/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds 0 --trace "$3"
}
for workload in scan131k tenants stream32k storm; do
    for seed in 11 3; do
        run "$workload" "$seed" 0 | awk -v w="$workload" -v s="$seed" '
            $1 == "sim_cycles" || $1 == "ok_frac" { print w, s, $1, $2, $3 }'
        run "$workload" "$seed" 1 | awk -v w="$workload" -v s="$seed" '
            NF == 3 && $1 !~ /^(share|trace)\./ && $3 ~ /^(count|frac|ops|cycles|MB|ratio)$/ {
                print w, s, $1, $2, $3
            }'
    done
done
