#!/usr/bin/env bash
# Daemon smoke test: start `commcsl serve`, push the full corpus through
# the client twice (accepted and rejected sets), assert the second pass
# is served >=90% from cache via `daemon status` and that the first
# pass's obligations are counted as statically proven and solver-checked,
# send one request line over the daemon's line cap and assert it is
# answered with an error while the connection keeps serving, assert that
# 20 fresh connections are accepted and answered without waiting, and
# shut down cleanly. Then restart on the same cache directory, assert one
# pass over both corpora is served entirely from the on-disk tier, and
# that the directory holds nothing but that tier's two logs.
#
# Usage: scripts/daemon_smoke.sh [path-to-commcsl-binary]
set -euo pipefail

BIN=${1:-./target/release/commcsl}
WORK=$(mktemp -d)
SOCK="$WORK/commcsl.sock"
CACHE="$WORK/cache"

cleanup() {
    kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}

"$BIN" serve --socket "$SOCK" --cache-dir "$CACHE" &
SERVE_PID=$!
trap cleanup EXIT

wait_for_socket() {
    for _ in $(seq 1 200); do
        [ -S "$SOCK" ] && return
        sleep 0.05
    done
    echo "daemon smoke: daemon never bound $SOCK" >&2
    exit 1
}
wait_for_socket

run_client() {
    "$BIN" verify --daemon --no-start --socket "$SOCK" "$@"
}

# Two passes over both corpora: pass 1 populates the cache, pass 2 must
# be answered from it. Verdict expectations are pinned either way.
run_client examples/programs
run_client examples/programs > "$WORK/second_pass.txt"
run_client --expect rejected examples/rejected
run_client --expect rejected examples/rejected

grep -q "cached" "$WORK/second_pass.txt" \
    || { echo "daemon smoke: second pass not served from cache" >&2; exit 1; }

STATUS=$("$BIN" daemon status --socket "$SOCK" --json)
echo "daemon smoke: status = $STATUS"
python3 - "$STATUS" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
hits = s["memory_hits"] + s["disk_hits"]
misses = s["misses"]
corpus = 23  # 18 accepted + 5 rejected programs per pass
assert misses == corpus, f"first pass should miss all {corpus}: {s}"
assert hits >= 0.9 * corpus, f"second pass must be >=90% cached: {s}"
assert s["programs"] == 2 * corpus, s
# The first pass's misses discharge obligations both ways.
assert s["statically_proven"] > 0 and s["solver_checked"] > 0, s
EOF

# One line over the cap (`MAX_MESSAGE_BYTES`, 16 MiB) gets an error
# response; the same connection then answers `status`.
python3 - "$SOCK" <<'EOF'
import json, socket, sys
CAP = 16 << 20
conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sys.argv[1])
conn.settimeout(60)
replies = conn.makefile("rb")
conn.sendall(b"x" * (CAP + 1) + b"\n")
oversized = json.loads(replies.readline())
assert oversized["ok"] is False and oversized.get("request_id"), oversized
assert "longer than" in oversized["error"], oversized
conn.sendall(b'{"op":"status"}\n')
status = json.loads(replies.readline())
assert status["ok"] is True, status
print(f"daemon smoke: oversized line answered: {oversized['error']}")
EOF

# A new connection is accepted at once: 20 sequential fresh connections,
# each answering one `status`, take a few ms. An accept loop that polls
# on a 20 ms tick takes ~400 ms.
python3 - "$SOCK" <<'EOF'
import socket, sys, time
start = time.perf_counter()
for _ in range(20):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10)
    conn.connect(sys.argv[1])
    conn.sendall(b'{"op":"status"}\n')
    line = conn.makefile("rb").readline()
    assert b'"ok":true' in line, line
    conn.close()
elapsed_ms = (time.perf_counter() - start) * 1000
print(f"daemon smoke: 20 fresh connections answered in {elapsed_ms:.1f} ms")
assert elapsed_ms < 100, f"20 fresh connections took {elapsed_ms:.1f} ms (limit 100 ms)"
EOF

stop_daemon() {
    "$BIN" daemon stop --socket "$SOCK"
    wait "$SERVE_PID"
    [ ! -S "$SOCK" ] || { echo "daemon smoke: socket not removed" >&2; exit 1; }
}
stop_daemon

# Restart on the same cache directory: one pass over both corpora is
# served entirely from the on-disk logs.
"$BIN" serve --socket "$SOCK" --cache-dir "$CACHE" &
SERVE_PID=$!
wait_for_socket
run_client examples/programs > /dev/null
run_client --expect rejected examples/rejected > /dev/null
STATUS=$("$BIN" daemon status --socket "$SOCK" --json)
echo "daemon smoke: status after restart = $STATUS"
python3 - "$STATUS" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["disk_hits"] == 23 and s["misses"] == 0, f"restart pass must come from disk: {s}"
EOF
stop_daemon

# The disk tier is one append-only log per tier: no per-entry files
# (`*.verdict`, `obl/`) and no temp files (`.tmp-*`).
python3 - "$CACHE" <<'EOF'
import os, re, sys
root = sys.argv[1]
files = sorted(
    os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs
)
logs = re.compile(r"v[0-9]+/(verdicts|obligations)\.log")
extra = [f for f in files if not logs.fullmatch(f)]
assert files and not extra, f"{len(extra)} files besides the logs, e.g. {extra[:3]}"
print(f"daemon smoke: cache directory holds {files}")
EOF
echo "daemon smoke: OK (clean shutdown; restart served from disk)"
