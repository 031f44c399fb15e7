#!/usr/bin/env bash
# A bad flag value must exit 2 with a one-line message: never abort on an
# uncaught exception, never wrap "-1" into a huge unsigned value.
#
# usage: cli_bad_flags.sh <wmsn_cli> <wmsn_campaign> <repo-root> \
#                         <bench binary> <bench_obs_overhead>
set -u
cli="$1"
campaign="$2"
spec="$3/campaigns/smoke.spec"
bench="$4"
obs_bench="$5"
status=0

expect_exit2() {  # command...
  local err rc
  err="$("$@" 2>&1 >/dev/null)"
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: $* exited $rc, want 2"
    status=1
  elif [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ]; then
    echo "FAIL: $* printed more than one line: $err"
    status=1
  else
    echo "ok: $* -> $err"
  fi
}

for v in abc -1; do
  expect_exit2 "$cli" --sensors "$v"
  expect_exit2 "$cli" --seed "$v"
  expect_exit2 "$campaign" "$spec" --workers "$v"
  expect_exit2 "$campaign" "$spec" --stop-after "$v"
  expect_exit2 "$bench" --threads "$v"
done
expect_exit2 "$obs_bench" --reps abc
expect_exit2 "$cli" --area abc
expect_exit2 "$cli" --rate 1.5x
# Bad scenario names and out-of-range fractions exit 2 the same way.
for flag in --protocol --attack --deployment --workload --queue-policy; do
  expect_exit2 "$cli" "$flag" bogus
done
expect_exit2 "$cli" --link-loss 1.5
expect_exit2 "$cli" --trace-sample 0
expect_exit2 "$cli" --trace-sample 0.0004
expect_exit2 "$cli" --fault-plan zz
# Fault-plan ordinals and rounds past 32 bits are errors, not truncations.
expect_exit2 "$cli" --fault-plan s99999999999999999999999@3
expect_exit2 "$cli" --fault-plan s1@99999999999
exit "$status"
