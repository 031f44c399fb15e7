#!/usr/bin/env bash
# Byte-identity net over the paper numbers: re-runs the 15 paper-figure
# bench binaries and one short wmsn_cli run per protocol, and cmp's each
# output against the committed copy under tests/golden/bench/ and
# tests/golden/cli/. Any drift means a change moved a simulated number, not
# just its cost.
#
# usage: check_golden.sh <bench-bin-dir> <wmsn_cli> <repo-root> [--update]
#   --update  write the outputs into tests/golden/ instead of comparing
#             (regenerate from a build of the code whose numbers are pinned)
# exit: 0 all identical, 1 drift, 2 usage.
set -uo pipefail

usage="usage: check_golden.sh <bench-bin-dir> <wmsn_cli> <repo-root> [--update]"
benchdir="${1:?$usage}"
cli="${2:?$usage}"
root="${3:?$usage}"
update=0
if [ $# -ge 4 ]; then
  [ "$4" = "--update" ] || { echo "$usage" >&2; exit 2; }
  update=1
fi
cli="$(cd "$(dirname "$cli")" && pwd)/$(basename "$cli")"  # survives the cd below
golden="$root/tests/golden"

benches=(fig2_hops table1_mlr gateway_scaling lifetime energy_balance
         routing_overhead robustness mesh_tier security_overhead
         attack_resistance load_balance burst_front sleep_scaling placement
         reactive)
protocols=(flooding gossip spin diffusion leach pegasis teen single-sink spr
           mlr secmlr)
cli_args=(--sensors 90 --rounds 4 --seed 3)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
status=0

check() {  # committed-file produced-file
  if [ "$update" -eq 1 ]; then
    mkdir -p "$(dirname "$1")"
    cp "$2" "$1"
  elif ! cmp -s "$1" "$2"; then
    echo "FAIL: ${1#"$root"/} differs:"
    diff "$1" "$2" | head -20
    status=1
  fi
}

for b in "${benches[@]}"; do
  if ! "$benchdir/bench_$b" >"$work/bench_$b.txt"; then
    echo "FAIL: bench_$b exited non-zero"
    status=1
    continue
  fi
  check "$golden/bench/bench_$b.txt" "$work/bench_$b.txt"
done

for p in "${protocols[@]}"; do
  # Each run writes into its own directory under the same relative path, so
  # the "(metrics written to ...)" notice is part of the pinned stdout.
  mkdir "$work/$p"
  if ! (cd "$work/$p" && "$cli" --protocol "$p" "${cli_args[@]}" \
          --metrics-out metrics.json >stdout.txt); then
    echo "FAIL: wmsn_cli --protocol $p exited non-zero"
    status=1
    continue
  fi
  check "$golden/cli/$p.stdout.txt" "$work/$p/stdout.txt"
  check "$golden/cli/$p.metrics.json" "$work/$p/metrics.json"
done

if [ "$update" -eq 1 ]; then
  echo "check_golden: wrote ${#benches[@]} bench and ${#protocols[@]} cli goldens"
elif [ "$status" -eq 0 ]; then
  echo "check_golden: ${#benches[@]} bench and ${#protocols[@]} cli outputs byte-identical"
fi
exit "$status"
