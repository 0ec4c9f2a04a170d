#!/usr/bin/env bash
# Builds the benchmark and the dmi-serve daemon from the checkout it runs
# in, then runs one workload and prints its JSON result as the last line.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-catalog --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, scratch files and trace files all stay
# under .bench_build/ in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/dmi-serve || ! -d internal ]]; then
  echo "perfbench: run from the repository root (go.mod, cmd/dmi-serve or internal/ missing)" >&2
  exit 2
fi
root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -o "$out/bin/dmi-serve" ./cmd/dmi-serve
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --serve-bin "$out/bin/dmi-serve" "$@"
