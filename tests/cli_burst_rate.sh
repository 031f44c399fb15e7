#!/usr/bin/env bash
# The burst workload's background rate follows --rate, as the campaign spec's
# `rate` key does: two rates must give two different runs.
#
# usage: cli_burst_rate.sh <wmsn_cli>
set -euo pipefail
cli="$1"
args=(--workload burst --sensors 60 --rounds 2 --seed 3)
low="$("$cli" "${args[@]}" --rate 0.02)"
high="$("$cli" "${args[@]}" --rate 0.5)"
if [ "$low" = "$high" ]; then
  echo "FAIL: --workload burst ignores --rate (0.02 and 0.5 give equal output)"
  exit 1
fi
echo "ok: --rate moves the burst workload's background traffic"
