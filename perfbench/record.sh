#!/usr/bin/env bash
# Re-records perfbench/expected.json from this checkout: the paper-quick
# hashes, and for each simulator workload the observations of seeds 0-31 and
# of the held-out seed 7919. Run it from the root of the checkout, only after
# a change that is meant to alter the simulated results, and check the new
# paper-quick hashes against `sha256sum` of the stdout and CSVs of
# `go run ./cmd/experiments -quick -workers 1 -out DIR`.
set -euo pipefail

out=perfbench/expected.json
bash perfbench/run.sh --workload paper-quick --record "$out"
for w in cache-concurrent cache-pressure nfs-cacheless; do
	for seed in $(seq 0 31) 7919; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --record "$out"
	done
done
