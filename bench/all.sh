#!/bin/sh
# Run every workload once and print its metrics; extra arguments (such as
# --seed N or --trace 1) are passed to each run.  Run from anywhere.
set -e
cd "$(dirname "$0")/.."
for workload in sweep records monomials; do
    python3 bench/run.py --workload "$workload" "$@"
done
