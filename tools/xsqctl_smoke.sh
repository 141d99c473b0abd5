#!/usr/bin/env bash
# End-to-end smoke test for xsqctl against a listening xsqd, run by
# ctest (example_xsqctl_smoke). Covers the client paths the stdin smoke
# (xsqd_smoke.sh) cannot reach: STATS over TCP, the HTTP scrape
# (http-metrics lists the same metric names as METRICS), RECORD then
# RUNCACHED, and follow receiving the EVENT frame of a PUBLISH. Then
# every address flag must refuse a port above 65535 with exit 2 (usage)
# instead of wrapping it onto some other port.
set -u
xsqd=${1:?usage: xsqctl_smoke.sh /path/to/xsqd /path/to/xsqctl /path/to/xsq_router}
xsqctl=${2:?usage: xsqctl_smoke.sh /path/to/xsqd /path/to/xsqctl /path/to/xsq_router}
router=${3:?usage: xsqctl_smoke.sh /path/to/xsqd /path/to/xsqctl /path/to/xsq_router}

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "xsqctl_smoke: $*" >&2
  exit 1
}

# Polls (up to 5 s) until file $1 has a line matching regex $2.
wait_for_line() {
  for _ in $(seq 1 100); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.05
  done
  return 1
}

"$xsqd" --listen=0 --workers=2 >"$workdir/xsqd" 2>"$workdir/xsqd.err" \
  </dev/null &
pids+=($!)
wait_for_line "$workdir/xsqd" '^LISTENING [0-9]*$' \
  || fail "xsqd never printed LISTENING: $(cat "$workdir/xsqd.err")"
port=$(sed -n 's/^LISTENING \([0-9]*\)$/\1/p' "$workdir/xsqd" | head -1)
ctl() { timeout 10 "$xsqctl" --port="$port" "$@"; }

# STATS over TCP.
ctl stats >"$workdir/stats" || fail "stats exited non-zero"
grep -q '^STAT sessions_opened [0-9]*$' "$workdir/stats" \
  || fail "stats lacks sessions_opened"
[ "$(tail -1 "$workdir/stats")" = "OK" ] || fail "stats did not end in OK"

# The HTTP scrape and the METRICS verb expose the same metric names.
ctl metrics >"$workdir/metrics" || fail "metrics exited non-zero"
ctl http-metrics >"$workdir/http" || fail "http-metrics exited non-zero"
sed -n 's/^METRIC # TYPE \([^ ]*\) .*/\1/p' "$workdir/metrics" \
  | sort >"$workdir/metrics.names"
sed -n 's/^# TYPE \([^ ]*\) .*/\1/p' "$workdir/http" | sort >"$workdir/http.names"
[ -s "$workdir/metrics.names" ] || fail "metrics listed no metric names"
diff "$workdir/metrics.names" "$workdir/http.names" >&2 \
  || fail "http-metrics and metrics list different metric names"

# RECORD, then RUNCACHED the recorded tape.
printf '<r><a>x</a><a>y</a></r>' >"$workdir/doc.xml"
ctl record doc "$workdir/doc.xml" >"$workdir/record" \
  || fail "record exited non-zero: $(cat "$workdir/record")"
grep -q '^OK [0-9]* [0-9]*$' "$workdir/record" || fail "record reply"
actual=$(ctl cached doc '/r/a/text()') || fail "cached exited non-zero"
[ "$actual" = "$(printf 'ITEM x\nITEM y\nOK')" ] \
  || fail "cached replied: $actual"

# follow sees the EVENT frame of a PUBLISH.
timeout 20 "$xsqctl" --port="$port" follow '/r/a/text()' \
  >"$workdir/follow" 2>"$workdir/follow.err" &
pids+=($!)
wait_for_line "$workdir/follow" '^OK [0-9]*$' \
  || fail "follow never subscribed: $(cat "$workdir/follow.err")"
ctl publish "$workdir/doc.xml" >"$workdir/publish" \
  || fail "publish exited non-zero: $(cat "$workdir/publish")"
wait_for_line "$workdir/follow" '^EVENT ' \
  || fail "follow received no EVENT frame: $(cat "$workdir/follow")"

# A port above 65535 is a usage error (exit 2), never a wrapped port.
expect_usage() {
  timeout 10 "$@" </dev/null >/dev/null 2>&1
  local rc=$?
  [ "$rc" -eq 2 ] || fail "exit $rc, want 2: $*"
}
expect_usage "$xsqctl" --port=70000 stats
expect_usage "$xsqctl" --router=127.0.0.1:70000 stats
expect_usage "$xsqd" --listen=70000
expect_usage "$router" --shard=127.0.0.1:70000 --listen=0

echo "xsqctl_smoke: all green"
