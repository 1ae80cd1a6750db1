#!/usr/bin/env bash
# Overload-control end-to-end on the real binaries: shadowd CLI hardening
# (malformed flags die with one-line errors and exit 2, never a silently
# misconfigured daemon) and SIGTERM graceful drain (journaled records
# reach the disk before exit; a restart recovers them).
set -u

BUILD_DIR="$1"
D="$BUILD_DIR/tools/shadowd"
LOG=$(mktemp)

fail() { echo "FAIL: $1"; echo "--- log ---"; cat "$LOG" 2>/dev/null; exit 1; }

# --- CLI hardening ------------------------------------------------------
expect_rc2() {  # every malformed invocation: exit 2 + a single shadowd: line
  "$D" "$@" > "$LOG" 2>&1
  RC=$?
  [ "$RC" -eq 2 ] || fail "'shadowd $*' exited $RC, want 2"
  grep -q "^shadowd: " "$LOG" || fail "'shadowd $*' printed no shadowd: error"
  [ "$(wc -l < "$LOG")" -eq 1 ] || fail "'shadowd $*' error was not one line"
}
expect_rc2 --port 78x88           # trailing garbage
expect_rc2 --port 99999           # out of range
expect_rc2 --port                 # missing value
expect_rc2 --name                 # missing value (string flag)
expect_rc2 --lease-usec abc
expect_rc2 --max-conn-bytes -5
expect_rc2 --threads 0
expect_rc2 --drain-deadline ""
expect_rc2 --eviction sideways
expect_rc2 --bogus-flag
expect_rc2 --state x              # retired: --journal DIR replaces it
# Retired: every shard loop pass ends in one fsync, so the commit policy
# has no knobs left.
expect_rc2 --commit-window 200
expect_rc2 --commit-batch-records 8
expect_rc2 --commit-batch-bytes 4096
expect_rc2 --commit-pipeline
expect_rc2 --max-parked-acks 16

# Bind failure: one-line error, exit 1.
PORT=$((20000 + RANDOM % 20000))
"$D" --port "$PORT" > "$LOG" 2>&1 &
DPID=$!
for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
BINDLOG=$(mktemp)
"$D" --port "$PORT" > "$BINDLOG" 2>&1
RC=$?
[ "$RC" -eq 1 ] || fail "second bind on port $PORT exited $RC, want 1"
grep -q "^shadowd: " "$BINDLOG" || fail "bind failure printed no error"
rm -f "$BINDLOG"
kill "$DPID" 2>/dev/null; wait "$DPID" 2>/dev/null

# --- SIGTERM drain and journal restart, at 1 and at 2 shards -------------
# The drain must flush whatever the shards still have staged (never
# silently dropped) and exit well inside the deadline. A restart with the
# same shard count then recovers the client's record from the journal.
drain_and_restart() {  # $1 = shard count
  PORT=$((20000 + RANDOM % 20000))
  JOURNAL=$(mktemp -d)
  "$D" --port "$PORT" --threads "$1" --journal "$JOURNAL" \
       --drain-deadline 8000000 --lease-usec 30000000 > "$LOG" 2>&1 &
  DPID=$!
  for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
  printf 'gen /home/user/d 2000 %s\nquit\n' "$1" \
    | "$BUILD_DIR/tools/shadow" --connect "$PORT" > /dev/null 2>&1 \
    || fail "client session against the $1-shard daemon failed"

  kill -TERM "$DPID"
  for _ in $(seq 1 60); do kill -0 "$DPID" 2>/dev/null || break; sleep 0.1; done
  kill -0 "$DPID" 2>/dev/null && fail "$1-shard daemon still alive 6s after SIGTERM"
  wait "$DPID"
  RC=$?
  [ "$RC" -eq 0 ] || fail "$1-shard drain exit code $RC"
  grep -q "draining (deadline" "$LOG" || fail "$1-shard daemon never announced drain"
  grep -q "drained cleanly" "$LOG" || fail "$1-shard drain did not complete"
  # One shard journals in DIR itself (where tools/wal looks), N in DIR/shard<i>.
  WAL="$JOURNAL/journal.wal"
  [ "$1" -eq 1 ] || WAL="$JOURNAL/shard0/journal.wal"
  [ -f "$WAL" ] || fail "$1-shard daemon wrote no $WAL"

  "$D" --port "$PORT" --threads "$1" --journal "$JOURNAL" --once > "$LOG" 2>&1 &
  DPID=$!
  for _ in $(seq 1 50); do grep -q "listening" "$LOG" && break; sleep 0.1; done
  grep -Eq "recovered from .* \($1 shards, [1-9][0-9]* journal records" "$LOG" \
    || fail "$1-shard restart recovered no journal records — drain lost the batch"
  printf 'quit\n' | "$BUILD_DIR/tools/shadow" --connect "$PORT" > /dev/null 2>&1
  wait "$DPID" 2>/dev/null

  # The restart compacted its recovery into a snapshot: tools/wal must
  # decode every record of it and of the journal through the record codec.
  "$BUILD_DIR/tools/wal" "$(dirname "$WAL")" --snapshot > "$LOG" 2>&1 \
    || fail "wal --snapshot on the $1-shard journal exited $?"
  grep -q UNDECODABLE "$LOG" && fail "$1-shard journal has an UNDECODABLE record"
  [ "$1" -ne 1 ] || grep -q "crc ok" "$LOG" \
    || fail "1-shard restart left no readable snapshot"
  rm -rf "$JOURNAL"
}
drain_and_restart 1
drain_and_restart 2
rm -f "$LOG"

echo "PASS: overload end-to-end"
