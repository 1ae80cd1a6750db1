#!/usr/bin/env bash
# End-to-end test of the real binaries: shadowd daemon + shadow client
# talking over a localhost TCP socket, driven exactly as a user would.
set -u

BUILD_DIR="$1"
PORT=$((20000 + RANDOM % 20000))
LOG=$(mktemp)

"$BUILD_DIR/tools/shadowd" --port "$PORT" --once > "$LOG" 2>&1 &
DPID=$!
# Wait for the listening line.
for _ in $(seq 1 50); do
  grep -q "listening" "$LOG" && break
  sleep 0.1
done

OUT=$(printf 'gen /home/user/d 1000 7\nedit /home/user/c\nsort d\n.\nsubmit /home/user/c /home/user/d -o /home/user/out\nstatus\nstats\nquit\n' \
      | "$BUILD_DIR/tools/shadow" --connect "$PORT")
CLIENT_RC=$?

wait "$DPID"
DAEMON_RC=$?

fail() { echo "FAIL: $1"; echo "--- client ---"; echo "$OUT"; echo "--- daemon ---"; cat "$LOG"; rm -f "$LOG"; exit 1; }

[ "$CLIENT_RC" -eq 0 ] || fail "client exit code $CLIENT_RC"
[ "$DAEMON_RC" -eq 0 ] || fail "daemon exit code $DAEMON_RC"
echo "$OUT" | grep -q "generated 1000 bytes" || fail "gen output missing"
echo "$OUT" | grep -q "submitted; job id 1" || fail "submit output missing"
echo "$OUT" | grep -q "job 1: delivered" || fail "status output missing"
echo "$OUT" | grep -q "updates sent:" || fail "stats output missing"
grep -q "client connected" "$LOG" || fail "daemon never saw the client"
grep -q "1 jobs completed" "$LOG" || fail "daemon job count wrong"

# --- alternate client configuration: tichy deltas + lz77 ----------------
PORT3=$((20000 + RANDOM % 20000))
"$BUILD_DIR/tools/shadowd" --port "$PORT3" --once --reverse-shadow --codec lz77 > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do
  grep -q "listening" "$LOG" && break
  sleep 0.1
done
OUT=$(printf 'gen /home/user/d 5000 3\nedit /home/user/c\nsort d\n.\nsubmit /home/user/c /home/user/d\nstats\nquit\n' \
      | "$BUILD_DIR/tools/shadow" --connect "$PORT3" --algorithm tichy --codec lz77)
wait "$DPID"
echo "$OUT" | grep -q "submitted; job id 1" || fail "tichy/lz77 submit missing"
grep -q "1 jobs completed" "$LOG" || fail "tichy/lz77 job not completed"

# --- second phase: live telemetry over the admin channel -----------------
# A journaled reverse-shadow daemon serves a scripted edit+submit session
# that runs one job twice; shadowtop (a second, concurrent connection) must
# then see non-zero diff, cache, persist and output-delta counters, and its
# protocol selftest must pass. The daemon then restarts on its journal,
# output entries included.
PORT4=$((20000 + RANDOM % 20000))
JOURNAL=$(mktemp -d)
"$BUILD_DIR/tools/shadowd" --port "$PORT4" --reverse-shadow --journal "$JOURNAL" > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do
  grep -q "listening" "$LOG" && break
  sleep 0.1
done
printf 'gen /home/user/d 1000 7\nedit /home/user/c\nsort d\n.\nsubmit /home/user/c /home/user/d -o /home/user/out\nstatus\nsubmit /home/user/c /home/user/d -o /home/user/out\nstatus\nquit\n' \
  | "$BUILD_DIR/tools/shadow" --connect "$PORT4" > /dev/null 2>&1

TOP=$("$BUILD_DIR/tools/shadowtop" --connect "$PORT4" --events 32)
TOP_RC=$?
topfail() { echo "FAIL: $1"; echo "--- shadowtop ---"; echo "$TOP"; echo "--- daemon ---"; cat "$LOG"; kill "$DPID" 2>/dev/null; rm -rf "$LOG" "$JOURNAL"; exit 1; }
[ "$TOP_RC" -eq 0 ] || topfail "shadowtop exit code $TOP_RC"
nonzero() {  # metric name must be present with a non-zero value
  echo "$TOP" | grep -E "^  $1 " | grep -qv " 0\$" || topfail "$1 is missing or zero"
}
nonzero "diff.applies"
nonzero "cache.puts"
nonzero "cache.lookups"
nonzero "persist.appends"
nonzero "persist.fsyncs"
nonzero "server.jobs_completed"
nonzero "server.output_delta_hits"
echo "$TOP" | grep -q "job 1 completed" || topfail "job event missing from ring"

"$BUILD_DIR/tools/shadowtop" --connect "$PORT4" --json \
  | grep -q '"counters"' || topfail "JSON export missing counters"

"$BUILD_DIR/tools/shadowtop" --connect "$PORT4" --selftest \
  || topfail "shadowtop selftest failed"

kill "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
TOP=$("$BUILD_DIR/tools/wal" "$JOURNAL" 2>&1) || topfail "wal found damage"
echo "$TOP" | grep -q "UNDECODABLE" && topfail "wal found an undecodable record"
"$BUILD_DIR/tools/shadowd" --port "$PORT4" --reverse-shadow --journal "$JOURNAL" > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do
  grep -q "listening" "$LOG" && break
  sleep 0.1
done
TOP=$("$BUILD_DIR/tools/shadowtop" --connect "$PORT4" --selftest 2>&1) \
  || topfail "shadowtop selftest failed after a restart on the journal"
kill "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
rm -rf "$JOURNAL"

# --- third phase: the same selftest against a two-shard daemon -----------
# With more than one shard, only the facade writes the plain server.*
# names the selftest checks.
PORT5=$((20000 + RANDOM % 20000))
"$BUILD_DIR/tools/shadowd" --port "$PORT5" --threads 2 > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do
  grep -q "listening" "$LOG" && break
  sleep 0.1
done
TOP=$("$BUILD_DIR/tools/shadowtop" --connect "$PORT5" --selftest 2>&1) \
  || topfail "shadowtop selftest failed against --threads 2"
kill "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null

rm -f "$LOG"
echo "PASS: cli end-to-end"
