#!/bin/sh
# Tier-3 chaos acceptance for the federation orchestrator.
#
# Tier 1 injects faults inside one process (pivot/fault.h), tier 2
# severs sockets between live processes (net/fault.h); this tier kills
# whole party PROCESSES under `pivot_cli orchestrate` and demands the
# same end state:
#
#   1. a fault-free orchestrated 3-party run trains and fingerprints;
#   2. a run with an explicit SIGKILL mid-training converges to the
#      bit-identical model (generation restart + checkpoint resume),
#      charging the restart budget only to the party that was killed;
#   3. seeded chaos plans (PIVOT_CHAOS3_SEEDS, default "7 11") replay
#      deterministically and also converge to the same fingerprint;
#   4. a kill schedule that exhausts one party's restart budget tears
#      the federation down before its deadline and names that party as
#      the root cause in report.json;
#   5. a configuration error (regression labels with |y| >= 63) fails
#      the run at once: no party is respawned, and report.json names the
#      error.
#
# Usage: orchestrator_chaos_test.sh /path/to/pivot_cli
set -eu

CLI=${1:-tools/pivot_cli}
if [ ! -x "$CLI" ]; then
  echo "SKIP: pivot_cli not found at $CLI"
  exit 0
fi
CLI=$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")

DIR=$(mktemp -d "${TMPDIR:-/tmp}/pivot_orch_chaos.XXXXXX")
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

# Deterministic headerless CSV: 6 features + binary label, 60 rows (same
# generator as socket_resume_test.sh).
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

cat > fed.spec <<EOF
parties = 3
data = $DIR/train.csv
out = model
depth = 3
key_bits = 256
EOF

fingerprint() {
  sed -n 's/.*"model_fingerprint": "\([0-9a-f]*\)".*/\1/p' "$1/report.json"
}

# Prints a party's restart count from report.json and fails when the
# report has no row for it. Call it in an assignment (R=$(restarts_of ..)),
# so that set -e stops the script there; inside a test, an empty count
# would make the comparison an error that `if` reads as false.
restarts_of() {  # restarts_of <workdir> <party>
  local r
  r=$(sed -n 's/.*"party": '"$2"', "phase": "[a-z-]*", "restarts": \([0-9]*\),.*/\1/p' \
      "$1/report.json")
  if [ -z "$r" ]; then
    echo "FAIL: $1/report.json has no restart count for party $2" >&2
    exit 1
  fi
  echo "$r"
}

echo "== fault-free orchestrated run =="
"$CLI" orchestrate --spec fed.spec --workdir "$DIR/base" \
    --deadline-ms 120000 > base.out 2> base.log
BASE_FP=$(fingerprint "$DIR/base")
if [ -z "$BASE_FP" ]; then
  echo "FAIL: fault-free run produced no model fingerprint"
  tail -n 10 base.log
  exit 1
fi
echo "   fingerprint $BASE_FP"

echo "== explicit SIGKILL of party 1 mid-training =="
"$CLI" orchestrate --spec fed.spec --workdir "$DIR/kill1" \
    --faults "900:kill:1" --deadline-ms 120000 > kill1.out 2> kill1.log
FP=$(fingerprint "$DIR/kill1")
if [ "$FP" != "$BASE_FP" ]; then
  echo "FAIL: fingerprint after SIGKILL ($FP) != fault-free ($BASE_FP)"
  tail -n 10 kill1.log
  exit 1
fi
for i in 0 1 2; do
  if ! cmp -s "$DIR/base/model.party$i.bin" "$DIR/kill1/model.party$i.bin"; then
    echo "FAIL: party $i model bytes differ from the fault-free run"
    exit 1
  fi
done
# Restart attribution: the killed party burned budget, the collateral
# generation restarts of its peers were free.
R0=$(restarts_of "$DIR/kill1" 0)
R1=$(restarts_of "$DIR/kill1" 1)
R2=$(restarts_of "$DIR/kill1" 2)
if [ "$R1" -lt 1 ]; then
  echo "FAIL: killed party shows no restart in report.json"
  exit 1
fi
if [ "$R0" -ne 0 ] || [ "$R2" -ne 0 ]; then
  echo "FAIL: collateral restart burned a surviving party's budget"
  cat "$DIR/kill1/report.json"
  exit 1
fi
echo "   bit-identical; budget charged to party 1 only"

for SEED in ${PIVOT_CHAOS3_SEEDS:-7 11}; do
  echo "== seeded chaos, seed $SEED =="
  "$CLI" orchestrate --spec fed.spec --workdir "$DIR/seed$SEED" \
      --chaos-seed "$SEED" --chaos-window-ms 3000 --chaos-count 3 \
      --deadline-ms 120000 > "seed$SEED.out" 2> "seed$SEED.log"
  FP=$(fingerprint "$DIR/seed$SEED")
  if [ "$FP" != "$BASE_FP" ]; then
    echo "FAIL: seed $SEED fingerprint ($FP) != fault-free ($BASE_FP)"
    grep "chaos plan" "seed$SEED.log" || true
    tail -n 10 "seed$SEED.log"
    exit 1
  fi
  echo "   bit-identical under plan: $(sed -n 's/.*chaos plan: //p' "seed$SEED.log")"
done

echo "== restart budget exhaustion names the root cause =="
cat > fed_budget.spec <<EOF
parties = 3
data = $DIR/train.csv
out = model
depth = 3
key_bits = 256
max_restarts = 1
EOF
RC=0
# Two kills exhaust a budget of 1; the later ones cover a kill that finds
# party 1 between processes. They must land before a restarted run can
# finish (about 2.5 s after a kill at 500 ms).
"$CLI" orchestrate --spec fed_budget.spec --workdir "$DIR/budget" \
    --faults "300:kill:1;900:kill:1;1500:kill:1;2100:kill:1" \
    --deadline-ms 60000 > budget.out 2> budget.log || RC=$?
if [ "$RC" -ne 1 ]; then
  echo "FAIL: budget exhaustion run exited $RC, want 1"
  tail -n 10 budget.log
  exit 1
fi
if ! grep -q '"root_cause_party": 1' "$DIR/budget/report.json"; then
  echo "FAIL: report.json does not name party 1 as the root cause"
  cat "$DIR/budget/report.json"
  exit 1
fi
if ! grep -q 'beyond recovery' "$DIR/budget/report.json"; then
  echo "FAIL: report.json lacks the budget-exhaustion root cause"
  cat "$DIR/budget/report.json"
  exit 1
fi
# The teardown must have finished well before the 60 s federation
# deadline — escalation, not timeout, ended this run.
if grep -q 'deadline.*exceeded' "$DIR/budget/report.json"; then
  echo "FAIL: budget run ended by deadline instead of escalation"
  exit 1
fi
echo "   torn down with root_cause_party=1"

echo "== configuration error fails without restarts =="
# Regression labels up to |y| = 78; every party's run rejects them with
# InvalidArgument before training starts.
awk -F, 'BEGIN { OFS = "," } { $7 = (NR % 2 ? 78 : -12) + NR / 10; print }' \
    train.csv > labels.csv
cat > fed_labels.spec <<EOF
parties = 3
data = $DIR/labels.csv
out = model
task = regression
depth = 2
key_bits = 256
EOF
RC=0
"$CLI" orchestrate --spec fed_labels.spec --workdir "$DIR/labels" \
    --deadline-ms 60000 > labels.out 2> labels.log || RC=$?
if [ "$RC" -ne 1 ]; then
  echo "FAIL: configuration-error run exited $RC, want 1"
  tail -n 10 labels.log
  exit 1
fi
if ! grep -q '"root_cause": "party [0-2] failed on a configuration error.*regression labels must satisfy' \
    "$DIR/labels/report.json"; then
  echo "FAIL: report.json does not name the configuration error"
  cat "$DIR/labels/report.json"
  exit 1
fi
for i in 0 1 2; do
  R=$(restarts_of "$DIR/labels" $i)
  if [ "$R" -ne 0 ]; then
    echo "FAIL: party $i was restarted after a configuration error"
    cat "$DIR/labels/report.json"
    exit 1
  fi
done
echo "   failed at once, root cause: configuration error"

echo "PASS: orchestrated chaos tier 3 (kills, seeds, budget exhaustion," \
     "configuration error)"
