#!/usr/bin/env bash
# End-to-end smoke test for the xsqd daemon's line protocol, run by
# ctest (example_xsqd_smoke). Drives OPEN/PUSH/CLOSE/STATS/METRICS
# through a pipe and diffs the exact responses; the expected ITEM lines
# are what StreamingQuery produces for the same query+document, so this
# pins the daemon to the library's results. The METRICS block also pins
# the exposition names of the serving-path histograms.
set -u
xsqd=${1:?usage: xsqd_smoke.sh /path/to/xsqd}

actual=$("$xsqd" --workers=2 <<'EOF'
OPEN //book[price<20]/title/text()
PUSH 1 <catalog><book><title>Cheap</title><price>10</price></book>
PUSH 1 <book><title>Pricey</title><price>99</price></book></catalog>
CLOSE 1
OPEN /r/x/sum()
PUSH 2 <r><x>1</x><x>2.5</x></r>
CLOSE 2
DRAIN 99
QUIT
EOF
) || { echo "xsqd exited non-zero" >&2; exit 1; }

expected='OK 1
OK
OK
ITEM Cheap
OK
OK 2
OK
AGG 3.500000
OK
ERR InvalidArgument: unknown session id 99
OK'

if [ "$actual" != "$expected" ]; then
  echo "xsqd protocol output mismatch" >&2
  diff <(echo "$expected") <(echo "$actual") >&2
  exit 1
fi

# A malformed query must answer ERR, not kill the daemon.
bad=$(printf 'OPEN not a query\nQUIT\n' | "$xsqd" --workers=1)
case $bad in
  "ERR "*) ;;
  *) echo "expected ERR for a malformed query, got: $bad" >&2; exit 1 ;;
esac

# STATS must report the work done and be line-parseable.
stats=$("$xsqd" --workers=1 <<'EOF'
OPEN //a/text()
PUSH 1 <a>hi</a>
CLOSE 1
STATS
QUIT
EOF
)
for key in sessions_opened chunks_processed items_emitted plan_cache_misses; do
  if ! echo "$stats" | grep -q "^STAT $key "; then
    echo "STATS output missing '$key':" >&2
    echo "$stats" >&2
    exit 1
  fi
done
if ! echo "$stats" | grep -q "^STAT items_emitted 1$"; then
  echo "expected exactly one emitted item in STATS:" >&2
  echo "$stats" >&2
  exit 1
fi

# Cached-document serving: RECORD parses once, RUNCACHED replays the
# tape (twice, same session, auto-rewind), EVICT drops it.
cached=$("$xsqd" --workers=2 <<'EOF'
RECORD doc <r><item>one</item><item>two</item></r>
OPEN //item/text()
RUNCACHED 1 doc
RUNCACHED 1 doc
RUNCACHED 1 missing
EVICT doc
RUNCACHED 1 doc
EVICT doc
STATS
QUIT
EOF
) || { echo "xsqd exited non-zero in cached-serving block" >&2; exit 1; }

# RECORD answers "OK <events> <bytes>"; the event count is pinned by the
# document (docbegin + 3 begin + 3 end + 2 text + docend), the byte
# count is an implementation detail.
record_line=$(echo "$cached" | head -1)
case $record_line in
  "OK 10 "*) ;;
  *) echo "unexpected RECORD reply: $record_line" >&2; exit 1 ;;
esac

cached_expected='OK 1
ITEM one
ITEM two
OK
ITEM one
ITEM two
OK
ERR NotFound: document not recorded: missing
OK
ERR NotFound: document not recorded: doc
ERR NotFound: document not recorded: doc'
cached_actual=$(echo "$cached" | sed -n '2,12p')
if [ "$cached_actual" != "$cached_expected" ]; then
  echo "cached-serving protocol output mismatch" >&2
  diff <(echo "$cached_expected") <(echo "$cached_actual") >&2
  exit 1
fi

# The document-cache counters must reflect the runs above: two replay
# hits, two misses (the RUNCACHEDs after eviction/for an unknown name),
# nothing left resident after EVICT.
for want in "doc_cache_hits 2" "doc_cache_misses 2" "doc_cache_documents 0" \
            "tape_replays 2"; do
  if ! echo "$cached" | grep -q "^STAT $want$"; then
    echo "STATS cache counters wrong; wanted 'STAT $want' in:" >&2
    echo "$cached" | grep "^STAT" >&2
    exit 1
  fi
done
# METRICS must expose the serving-path histograms with non-zero counts
# after a query has run. The names are part of the daemon's interface —
# dashboards scrape them — so this pins them exactly.
metrics=$("$xsqd" --workers=1 <<'EOF'
OPEN //a/text()
PUSH 1 <r><a>hi</a><a>ho</a></r>
CLOSE 1
METRICS
QUIT
EOF
) || { echo "xsqd exited non-zero in METRICS block" >&2; exit 1; }

# Wall-clock histograms populate in every build; the phase histograms
# additionally need the XSQ_OBS hooks compiled in (xsq_obs_enabled 1).
hists="xsq_request_latency_us xsq_queue_wait_us xsq_chunk_latency_us"
if echo "$metrics" | grep -q "^METRIC xsq_obs_enabled 1$"; then
  hists="$hists xsq_phase_parse_us xsq_phase_automaton_us xsq_phase_buffer_us"
fi
for hist in $hists; do
  count=$(echo "$metrics" | sed -n "s/^METRIC ${hist}_count //p")
  if [ -z "$count" ] || [ "$count" -eq 0 ]; then
    echo "METRICS: expected non-zero ${hist}_count, got '${count:-missing}':" >&2
    echo "$metrics" | grep "^METRIC" | grep "_count" >&2
    exit 1
  fi
done
# Scalars from STATS must be re-exposed with the xsq_ prefix.
if ! echo "$metrics" | grep -q "^METRIC xsq_sessions_opened 1$"; then
  echo "METRICS: missing 'xsq_sessions_opened 1' scalar:" >&2
  echo "$metrics" | grep "^METRIC xsq_" | head -20 >&2
  exit 1
fi
# The latency histograms are additionally split by engine kind:
# //a/text() has a closure axis, so it ran on XSQ-F and the labeled
# series must carry the sample (the names+labels are dashboard
# interface, pinned exactly).
for labeled in 'xsq_request_latency_us_count{engine="f"} 1' \
               'xsq_chunk_latency_us_count{engine="f"} 1'; do
  if ! echo "$metrics" | grep -qF "METRIC $labeled"; then
    echo "METRICS: missing engine-labeled series '$labeled':" >&2
    echo "$metrics" | grep "engine=" >&2
    exit 1
  fi
done
# Slow-query exemplars: the slowest query per latency bucket rides
# along as comment lines, carrying the query text.
if ! echo "$metrics" | grep -q '^METRIC # exemplar xsq_request_latency_us bucket{le="'; then
  echo "METRICS: missing slow-query exemplar comments:" >&2
  echo "$metrics" | grep "exemplar" >&2
  exit 1
fi
if ! echo "$metrics" | grep '^METRIC # exemplar' | grep -qF '//a/text()'; then
  echo "METRICS: exemplar comment does not carry the query text:" >&2
  echo "$metrics" | grep "exemplar" >&2
  exit 1
fi
# Net counters are part of the exposition even with no --listen.
if ! echo "$metrics" | grep -q "^METRIC xsq_connections_accepted 0$"; then
  echo "METRICS: missing 'xsq_connections_accepted 0' scalar:" >&2
  echo "$metrics" | grep "^METRIC xsq_conn" >&2
  exit 1
fi

# With --slow-query-ms active, the daemon dumps the per-bucket
# slow-query exemplars to stderr at exit (the offline twin of the
# METRICS comments).
slow=$(printf 'OPEN //a/text()\nPUSH 1 <r><a>hi</a></r>\nCLOSE 1\nQUIT\n' \
       | "$xsqd" --workers=1 --slow-query-ms=10000 2>&1 >/dev/null)
if ! echo "$slow" | grep -q '^\[xsq\] slow-query exemplars:$'; then
  echo "--slow-query-ms: missing exemplar dump header on stderr:" >&2
  echo "$slow" >&2
  exit 1
fi
if ! echo "$slow" | grep '^# exemplar' | grep -qF '//a/text()'; then
  echo "--slow-query-ms: exemplar dump does not carry the query:" >&2
  echo "$slow" >&2
  exit 1
fi

# --- networking: the same protocol served over TCP ---

# --listen=0 picks an ephemeral port and prints it; drive one query
# through the socket and scrape GET /metrics over HTTP from the same
# port, then shut down with SIGTERM (graceful drain, exit 0).
if command -v python3 >/dev/null 2>&1; then
  tcp_out=$(mktemp)
  "$xsqd" --workers=2 --listen=0 > "$tcp_out" < /dev/null &
  xsqd_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^LISTENING //p' "$tcp_out")
    [ -n "$port" ] && break
    sleep 0.05
  done
  if [ -z "$port" ]; then
    echo "--listen=0 never printed LISTENING <port>" >&2
    kill "$xsqd_pid" 2>/dev/null
    exit 1
  fi
  socket_reply=$(python3 - "$port" <<'PYEOF'
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=5)
s.sendall(b"OPEN //a/text()\nPUSH 1 <r><a>tcp</a></r>\nCLOSE 1\nQUIT\n")
data = b""
while True:
    chunk = s.recv(4096)
    if not chunk:
        break
    data += chunk
sys.stdout.write(data.decode())
PYEOF
)
  tcp_expected='OK 1
OK
ITEM tcp
OK
OK'
  if [ "$socket_reply" != "$tcp_expected" ]; then
    echo "TCP transcript mismatch" >&2
    diff <(echo "$tcp_expected") <(echo "$socket_reply") >&2
    kill "$xsqd_pid" 2>/dev/null
    exit 1
  fi
  http_body=$(python3 - "$port" <<'PYEOF'
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=5)
s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
data = b""
while True:
    chunk = s.recv(4096)
    if not chunk:
        break
    data += chunk
head, _, body = data.partition(b"\r\n\r\n")
if not head.startswith(b"HTTP/1.0 200"):
    sys.stderr.write("bad status: %r\n" % head.split(b"\r\n")[0])
    sys.exit(1)
sys.stdout.write(body.decode())
PYEOF
) || { echo "GET /metrics scrape failed" >&2; kill "$xsqd_pid" 2>/dev/null; exit 1; }
  for want in "xsq_request_latency_us_count" "xsq_connections_accepted"; do
    if ! echo "$http_body" | grep -q "^$want"; then
      echo "GET /metrics body missing '$want':" >&2
      echo "$http_body" | head -20 >&2
      kill "$xsqd_pid" 2>/dev/null
      exit 1
    fi
  done
  kill -TERM "$xsqd_pid"
  wait "$xsqd_pid"
  term_status=$?
  if [ "$term_status" -ne 0 ]; then
    echo "SIGTERM drain: expected exit 0, got $term_status" >&2
    exit 1
  fi
  rm -f "$tcp_out"
fi

# --- pub/sub: standing queries matched per single parse ---

# SUBSCRIBE registers standing queries, PUBLISH matches one document
# against all of them (the reply pins the parse-once bookkeeping:
# survivors/hpdt count predicate work, both 0 for predicate-free subs),
# and matches arrive asynchronously as EVENT frames — hence the sleep
# before STATS/QUIT, which gives the dispatcher time to deliver.
ps=$( { printf 'SUBSCRIBE //book/title/text()\nSUBSCRIBE //book/count()\n'
        printf 'PUBLISH <lib><book><title>XSQ</title></book><book><title>YFilter</title></book></lib>\n'
        sleep 0.5
        printf 'UNSUBSCRIBE 1\nSTATS\nMETRICS\nQUIT\n'
      } | "$xsqd" --workers=1 ) \
  || { echo "xsqd exited non-zero in pub/sub block" >&2; exit 1; }
if ! echo "$ps" | grep -q "^OK matched=2 survivors=0 hpdt=0 enqueued=3 shed=0$"; then
  echo "pub/sub: unexpected PUBLISH reply:" >&2
  echo "$ps" | grep -v "^STAT\|^METRIC" >&2
  exit 1
fi
for frame in "EVENT 1 ITEM XSQ" "EVENT 1 ITEM YFilter" "EVENT 2 AGG 2.000000"; do
  if ! echo "$ps" | grep -qF "$frame"; then
    echo "pub/sub: missing frame '$frame':" >&2
    echo "$ps" | grep -v "^STAT\|^METRIC" >&2
    exit 1
  fi
done
# STATS gauges/counters after one publish, three deliveries, and one
# unsubscribe (the count() subscription is still standing).
for want in "subscriptions_active 1" "publishes 1" "events_delivered 3" \
            "fanout_shed 0"; do
  if ! echo "$ps" | grep -q "^STAT $want$"; then
    echo "pub/sub: expected 'STAT $want':" >&2
    echo "$ps" | grep "^STAT" >&2
    exit 1
  fi
done
# The same scalars re-exposed with the xsq_ prefix, plus the pub/sub
# histograms (names are dashboard interface, pinned exactly).
for want in "xsq_subscriptions_active 1" "xsq_publishes 1" \
            "xsq_events_delivered 3" "xsq_fanout_shed 0" \
            "xsq_publish_latency_us_count 1"; do
  if ! echo "$ps" | grep -q "^METRIC $want$"; then
    echo "pub/sub: expected 'METRIC $want':" >&2
    echo "$ps" | grep "^METRIC xsq_pub\|^METRIC xsq_sub\|^METRIC xsq_event\|^METRIC xsq_fanout" >&2
    exit 1
  fi
done
batches=$(echo "$ps" | sed -n 's/^METRIC xsq_fanout_batch_count //p')
if [ -z "$batches" ] || [ "$batches" -eq 0 ]; then
  echo "pub/sub: expected non-zero xsq_fanout_batch_count, got '${batches:-missing}'" >&2
  exit 1
fi

# --- robustness: malformed input must never abort the daemon ---

# Unknown verbs and bad session ids answer ERR and the loop keeps
# serving; EOF in the middle of the final line (no trailing newline
# after CLOSE 1) still processes that command, then exits 0.
mal=$(printf "FROB\nPUSH x <a/>\nCANCEL notanid\nOPEN //a/text()\nPUSH 1 <a>hi</a>\nCLOSE 1" | "$xsqd" --workers=1)
if [ $? -ne 0 ]; then
  echo "xsqd exited non-zero on malformed input" >&2; exit 1
fi
mal_expected="ERR InvalidArgument: unknown command 'FROB'
ERR InvalidArgument: bad session id
ERR InvalidArgument: bad session id
OK 1
OK
ITEM hi
OK"
if [ "$mal" != "$mal_expected" ]; then
  echo "malformed-input transcript mismatch" >&2
  diff <(echo "$mal_expected") <(echo "$mal") >&2
  exit 1
fi

# An oversized protocol line is rejected with ERR and discarded without
# buffering it; the commands after it are served normally.
junk=$(printf 'J%.0s' $(seq 1 200))
over=$(printf 'OPEN //a/text()\n%s\nPUSH 1 <a>hi</a>\nCLOSE 1\nQUIT\n' "$junk" \
       | "$xsqd" --workers=1 --max-line-bytes=32) \
  || { echo "xsqd exited non-zero on oversized line" >&2; exit 1; }
over_expected='OK 1
ERR LimitExceeded: line exceeds --max-line-bytes=32; command discarded
OK
ITEM hi
OK
OK'
if [ "$over" != "$over_expected" ]; then
  echo "oversized-line transcript mismatch" >&2
  diff <(echo "$over_expected") <(echo "$over") >&2
  exit 1
fi

# CANCEL fails the session's evaluation with kCancelled; the failure is
# counted in STATS and re-exposed as an xsq_ metric scalar.
cx=$("$xsqd" --workers=1 <<'EOF'
OPEN //a/text()
PUSH 1 <r><a>hi</a>
CANCEL 1
CLOSE 1
STATS
METRICS
QUIT
EOF
) || { echo "xsqd exited non-zero in CANCEL block" >&2; exit 1; }
if ! echo "$cx" | grep -q "^ERR Cancelled"; then
  echo "CANCEL: expected an 'ERR Cancelled' reply from CLOSE:" >&2
  echo "$cx" | grep -v "^STAT\|^METRIC" >&2
  exit 1
fi
if ! echo "$cx" | grep -q "^STAT cancelled 1$"; then
  echo "CANCEL: expected 'STAT cancelled 1':" >&2
  echo "$cx" | grep "^STAT" >&2
  exit 1
fi
if ! echo "$cx" | grep -q "^METRIC xsq_cancelled 1$"; then
  echo "CANCEL: expected 'METRIC xsq_cancelled 1':" >&2
  echo "$cx" | grep "^METRIC xsq_" >&2
  exit 1
fi

# --default-deadline-ms: a document still evaluating when the deadline
# expires fails with kDeadlineExceeded at the next chunk boundary.
dl=$( { printf 'OPEN //a/text()\nPUSH 1 <r><a>hi</a>\n'
        sleep 0.4
        printf 'CLOSE 1\nSTATS\nQUIT\n'
      } | "$xsqd" --workers=1 --default-deadline-ms=50 ) \
  || { echo "xsqd exited non-zero in deadline block" >&2; exit 1; }
if ! echo "$dl" | grep -q "^ERR DeadlineExceeded"; then
  echo "deadline: expected an 'ERR DeadlineExceeded' reply from CLOSE:" >&2
  echo "$dl" | grep -v "^STAT" >&2
  exit 1
fi
if ! echo "$dl" | grep -q "^STAT deadline_exceeded 1$"; then
  echo "deadline: expected 'STAT deadline_exceeded 1':" >&2
  echo "$dl" | grep "^STAT" >&2
  exit 1
fi

# Parser hardening: the Serving limits reject a hostile document (here
# 5000-deep nesting) with kLimitExceeded, counted in limit_rejected.
# tape_corrupt is pinned present (and zero: xsqd records tapes in
# memory, it never loads untrusted tape files).
deep=$(printf '<a>%.0s' $(seq 1 5000))
lim=$("$xsqd" --workers=1 <<EOF
OPEN //a/text()
PUSH 1 $deep
CLOSE 1
STATS
QUIT
EOF
) || { echo "xsqd exited non-zero in parser-limits block" >&2; exit 1; }
if ! echo "$lim" | grep -q "^ERR LimitExceeded"; then
  echo "limits: expected an 'ERR LimitExceeded' reply:" >&2
  echo "$lim" | grep -v "^STAT" >&2
  exit 1
fi
for want in "limit_rejected 1" "tape_corrupt 0"; do
  if ! echo "$lim" | grep -q "^STAT $want$"; then
    echo "limits: expected 'STAT $want':" >&2
    echo "$lim" | grep "^STAT" >&2
    exit 1
  fi
done

echo "xsqd smoke OK"
