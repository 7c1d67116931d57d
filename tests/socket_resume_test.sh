#!/bin/sh
# Crash-resume acceptance test for the multi-process socket transport.
#
# Trains a fault-free baseline with `pivot_cli train` (in-process mesh),
# then runs the same training as THREE separate `pivot_cli party`
# processes over unix-domain sockets, SIGKILLs one party mid-training,
# relaunches it with the identical command line, and asserts every
# party's final model view is bit-identical to the baseline. This is the
# end-to-end proof that checkpoint persistence + incarnation handshake +
# attempt restarts reassemble the exact fault-free model.
#
# Usage: socket_resume_test.sh /path/to/pivot_cli
set -eu

CLI=${1:-tools/pivot_cli}
if [ ! -x "$CLI" ]; then
  echo "SKIP: pivot_cli not found at $CLI"
  exit 0
fi
CLI=$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")

# Per-run scratch under $TMPDIR so parallel ctest invocations (and CI
# sandboxes with a private TMPDIR) never collide on socket paths.
DIR=$(mktemp -d "${TMPDIR:-/tmp}/pivot_socket_resume.XXXXXX")
PIDS=""
trap 'kill -9 $PIDS 2>/dev/null || true; rm -rf "$DIR"' EXIT
cd "$DIR"

# Deterministic headerless CSV: 6 features + binary label, 60 rows.
awk 'BEGIN {
  seed = 42;
  for (i = 0; i < 60; i++) {
    s = "";
    sum = 0;
    for (j = 0; j < 6; j++) {
      seed = (seed * 1103515245 + 12345) % 2147483648;
      x = (seed % 10000) / 10000.0;
      if (j == 0 || j == 3) sum += x;
      s = s x ",";
    }
    print s (sum > 1.0 ? 1 : 0);
  }
}' > train.csv

TRAIN_FLAGS="--data train.csv --depth 3 --key-bits 256"
PEERS="unix:$DIR/p0.sock,unix:$DIR/p1.sock,unix:$DIR/p2.sock"

echo "== baseline: single-process 3-party train =="
"$CLI" train $TRAIN_FLAGS --out base --parties 3 > baseline.log 2>&1

echo "== multi-process: 3 party processes, SIGKILL party 1 mid-training =="
mkdir -p ckpt
# launch <party-id> <log-suffix>: one party process in the background.
# PIDs are tracked explicitly ($(jobs -p) inside a command substitution
# is empty in some POSIX shells).
launch() {
  "$CLI" party --party-id "$1" --peers "$PEERS" $TRAIN_FLAGS \
      --out multi --checkpoint-dir ckpt 2> "party$1$2.log" &
  LAST_PID=$!
  PIDS="$PIDS $LAST_PID"
}
launch 0 ""
P0=$LAST_PID
launch 1 ""
VICTIM=$LAST_PID
launch 2 ""
P2=$LAST_PID

# Kill the victim, without any chance to clean up, once training is
# under way: its checkpoint store has grown past the empty store (24
# bytes: magic, version, epoch, count) it writes at start-up. A fixed
# sleep could outlast a short training run. The poll gives up after 60 s
# and kills anyway.
polls=0
while [ "$polls" -lt 600 ]; do
  size=$(wc -c 2>/dev/null < ckpt/party1.ckpt || echo 0)
  [ "$size" -gt 24 ] && break
  sleep 0.1
  polls=$((polls + 1))
done
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
echo "   party 1 (pid $VICTIM) SIGKILLed; relaunching"
launch 1 ".relaunch"
P1B=$LAST_PID

FAIL=0
for PID in $P0 $P2 $P1B; do
  wait "$PID" || FAIL=1
done
if [ "$FAIL" -ne 0 ]; then
  echo "FAIL: a party process exited non-zero"
  tail -n 5 party*.log || true
  exit 1
fi

echo "== comparing model fingerprints =="
for i in 0 1 2; do
  if ! cmp -s "base.party$i.bin" "multi.party$i.bin"; then
    echo "FAIL: party $i model differs from fault-free baseline"
    echo "--- party logs ---"
    tail -n 3 party*.log || true
    exit 1
  fi
done
echo "PASS: all 3 model views bit-identical to the fault-free baseline"
