#!/usr/bin/env bash
# Profiler smoke test: run `commcsl profile` over the accepted corpus and
# structurally validate both exporter outputs — the Chrome trace is a
# JSON array of metadata + complete events naming spans from >=5 pipeline
# layers, and the folded stacks are well-formed `frames weight` lines.
# A second single-threaded deterministic run must reproduce the folded
# file byte-for-byte. Over both corpora, the `solver.checks` counter must
# equal the number of `solver.check` spans.
#
# Usage: scripts/profile_smoke.sh [path-to-commcsl-binary]
set -euo pipefail

BIN=${1:-./target/release/commcsl}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$BIN" profile examples/programs \
    --trace-out "$WORK/trace.json" --folded-out "$WORK/stacks.folded" \
    > "$WORK/summary.txt"
cat "$WORK/summary.txt"

grep -q "profiled 18 program(s) (18 verified)" "$WORK/summary.txt" \
    || { echo "profile smoke: corpus not fully verified" >&2; exit 1; }

python3 - "$WORK/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace must be a non-empty array"
phases = {e["ph"] for e in events}
assert "M" in phases, "metadata events missing"
assert "X" in phases, "complete events missing"
layers = {e["name"].split(".")[0] for e in events if e["ph"] == "X"}
assert len(layers) >= 5, f"spans from >=5 pipeline layers expected, got {layers}"
EOF

# Folded stacks: every line is `frame(;frame)* <integer>`.
if grep -vqE '^[^ ]+ [0-9]+$' "$WORK/stacks.folded"; then
    echo "profile smoke: malformed folded line" >&2
    exit 1
fi
[ -s "$WORK/stacks.folded" ] \
    || { echo "profile smoke: folded output empty" >&2; exit 1; }

# Determinism: single-threaded count-weighted runs are byte-identical.
for i in 1 2; do
    "$BIN" profile examples/programs --threads 1 --deterministic \
        --folded-out "$WORK/run$i.folded" > /dev/null
done
cmp "$WORK/run1.folded" "$WORK/run2.folded" \
    || { echo "profile smoke: deterministic folded output diverged" >&2; exit 1; }

# Counters are emitted where the work happens: every solver check, spec
# validity's included, is one `solver.check` span and one count.
"$BIN" profile --json --threads 1 examples/programs examples/rejected \
    > "$WORK/profile.json"
python3 - "$WORK/profile.json" <<'EOF'
import json, sys
profile = json.load(open(sys.argv[1]))["profile"]
spans = {l["label"]: l["count"] for l in profile["labels"]}
checks = profile["counters"].get("solver.checks")
assert checks == spans.get("solver.check"), \
    f"solver.checks = {checks}, solver.check spans = {spans.get('solver.check')}"
print(f"profile smoke: solver.checks = {checks} = solver.check spans")
EOF

echo "profile smoke: OK"
