#!/usr/bin/env bash
# Campaign orchestration smoke gate (scripts/check_all.sh "campaign" row).
# Exercises the wmsn_campaign determinism contract on campaigns/smoke.spec:
#
#   1. worker-count independence  — the artifact from --workers 1 and
#      --workers 4 must be byte-identical
#   2. kill + resume              — run with --stop-after (deterministic
#      mid-campaign stop, exit 3), then --resume; the final artifact must be
#      byte-identical to the uninterrupted one
#   3. crash isolation            — WMSN_CAMPAIGN_CRASH_RUN kills one worker
#      mid-run; the campaign must still complete (exit 0) and record exactly
#      that run as failed
#   4. committed artifacts        — fresh runs of campaigns/attacks.spec and
#      campaigns/obs_overhead.spec must equal BENCH_attacks.json and
#      BENCH_obs_overhead.json byte for byte, so a stale artifact fails
#
# usage: check_campaign.sh <path-to-wmsn_campaign> <repo-source-dir>
set -euo pipefail

bin="${1:?usage: check_campaign.sh <wmsn_campaign> <source-dir>}"
srcdir="${2:?usage: check_campaign.sh <wmsn_campaign> <source-dir>}"
spec="$srcdir/campaigns/smoke.spec"
[ -f "$spec" ] || { echo "check_campaign: missing $spec" >&2; exit 1; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

run() {  # out-tag extra-args...
  local tag="$1"; shift
  "$bin" "$spec" --out "$work/$tag.json" --journal "$work/$tag.journal" \
         --quiet "$@"
}

# 1. Worker-count independence.
run w1 --workers 1
run w4 --workers 4
cmp -s "$work/w1.json" "$work/w4.json" || {
  echo "check_campaign: artifact differs between --workers 1 and 4" >&2
  exit 1
}

# 2. Kill mid-campaign (exit 3 by contract), then resume to the same bytes.
set +e
run resumed --workers 2 --stop-after 3
stop_status=$?
set -e
[ "$stop_status" -eq 3 ] || {
  echo "check_campaign: --stop-after exited $stop_status, expected 3" >&2
  exit 1
}
[ ! -f "$work/resumed.json" ] || {
  echo "check_campaign: --stop-after must not write the artifact" >&2
  exit 1
}
run resumed --workers 2 --resume
cmp -s "$work/w1.json" "$work/resumed.json" || {
  echo "check_campaign: resumed artifact differs from uninterrupted run" >&2
  exit 1
}

# 3. Crash isolation: one injected worker death -> exactly one failed run,
#    campaign completes.
WMSN_CAMPAIGN_CRASH_RUN="mlr/baseline/s3" run crash --workers 2
grep -q '"runs_failed": 1' "$work/crash.json" || {
  echo "check_campaign: injected crash not recorded as one failed run" >&2
  exit 1
}
grep -q 'worker process died mid-run' "$work/crash.json" || {
  echo "check_campaign: crashed run missing its failure reason" >&2
  exit 1
}

# 4. Committed artifacts are current.
for name in attacks obs_overhead; do
  artifact="$srcdir/BENCH_$name.json"
  "$bin" "$srcdir/campaigns/$name.spec" --out "$work/$name.json" \
         --journal "$work/$name.journal" --quiet --workers 4
  cmp -s "$artifact" "$work/$name.json" || {
    echo "check_campaign: $artifact differs from a fresh run of" \
         "campaigns/$name.spec" >&2
    exit 1
  }
done

echo "check_campaign: worker-count, resume, crash-isolation and artifact" \
     "gates green"
