#!/usr/bin/env bash
# Cluster smoke test: start a 2-shard TCP daemon, push the corpus
# through it twice (cold then warm), then start a *second* daemon that
# chains the first as its remote obligation-cache tier, push the same
# corpus through it, and assert (a) the second daemon's reports are
# byte-identical to the first's, (b) >=90% of its obligation lookups
# were served by the remote tier, (c) both daemons shut down cleanly.
# On the pool it also checks the wire front end on one connection:
# decode errors, the v2-only check and request ids.
#
# Usage: scripts/cluster_smoke.sh [path-to-commcsl-binary]
set -euo pipefail

BIN=${1:-./target/release/commcsl}
WORK=$(mktemp -d)

cleanup() {
    kill "$POOL_PID" "$EDGE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
POOL_PID=""
EDGE_PID=""
trap cleanup EXIT

# Waits for a daemon's readiness line in its log and prints the actual
# host:port it bound (port 0 = ephemeral).
wait_addr() {
    local log=$1 addr=""
    for _ in $(seq 1 200); do
        addr=$(sed -n 's|.*daemon listening on tcp://\([^ ]*\) .*|\1|p' "$log")
        [ -n "$addr" ] && break
        sleep 0.05
    done
    [ -n "$addr" ] || { echo "cluster smoke: no readiness line in $log" >&2; exit 1; }
    echo "$addr"
}

"$BIN" serve --tcp 127.0.0.1:0 --shards 2 --cache-dir "$WORK/pool-cache" \
    > "$WORK/pool.log" 2>&1 &
POOL_PID=$!
ADDR1=$(wait_addr "$WORK/pool.log")
echo "cluster smoke: 2-shard pool on tcp://$ADDR1"

# Two passes through the pool: cold, then warm from the shard caches.
run_pool() {
    "$BIN" verify --daemon --tcp "$ADDR1" --json "$@"
}
run_pool examples/programs > "$WORK/pool_pass1.json"
run_pool examples/programs > "$WORK/pool_pass2.json"
run_pool --expect rejected examples/rejected > "$WORK/pool_rejected.json"

STATUS1=$("$BIN" daemon status --tcp "$ADDR1" --json)
echo "cluster smoke: pool status = $STATUS1"
python3 - "$STATUS1" "$WORK/pool_pass1.json" "$WORK/pool_pass2.json" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["transport"] == "tcp", s
assert s["shards"] == 2, s
assert len(s["per_shard"]) == 2, s
assert sum(sh["programs"] for sh in s["per_shard"]) >= 18, s["per_shard"]
p1 = json.loads(open(sys.argv[2]).read())
p2 = json.loads(open(sys.argv[3]).read())
assert p1["summary"]["engine"] == "daemon", p1["summary"]
assert p2["summary"]["engine"] == "daemon", p2["summary"]
reports1 = {r["file"]: r["report"] for r in p1["results"]}
reports2 = {r["file"]: r["report"] for r in p2["results"]}
assert reports1 == reports2, "warm pool pass changed a report"
assert all(r["cached"] for r in p2["results"]), "second pass not cached"
EOF

# One connection to the pool: a non-JSON line, a line one byte over the
# cap, and a v2-only op on a session negotiated to v1 are each answered
# with an error carrying a request id; the connection keeps serving.
python3 - "$ADDR1" <<'EOF'
import json, socket, sys
CAP = 16 << 20
host, port = sys.argv[1].rsplit(":", 1)
conn = socket.create_connection((host, int(port)), timeout=60)
replies = conn.makefile("rb")
conn.sendall(b"not json\n" + b"x" * (CAP + 1) + b"\n"
             + b'{"op":"hello","protocol":1}\n{"op":"metrics"}\n')
answers = [json.loads(replies.readline()) for _ in range(4)]
errors = [a for a in answers if a["ok"] is False]
assert len(errors) == 3, answers
for answer, text in zip(errors, ["bad request", "longer than", "requires protocol v2"]):
    assert answer.get("request_id") and text in answer["error"], answer
conn.sendall(b'{"op":"status"}\n')
status = json.loads(replies.readline())
assert status["ok"] is True and status["shards"] == 2, status
print("cluster smoke: pool answered 3 refusals with request ids, then status")
EOF

# The edge daemon: fresh caches, the pool chained in as its remote
# obligation tier over cache_get/cache_put.
"$BIN" serve --tcp 127.0.0.1:0 --cache-dir "$WORK/edge-cache" --remote-cache "$ADDR1" \
    > "$WORK/edge.log" 2>&1 &
EDGE_PID=$!
ADDR2=$(wait_addr "$WORK/edge.log")
echo "cluster smoke: edge daemon on tcp://$ADDR2 (remote cache tcp://$ADDR1)"

"$BIN" verify --daemon --tcp "$ADDR2" --json examples/programs > "$WORK/edge_pass.json"
"$BIN" verify --daemon --tcp "$ADDR2" --json --expect rejected examples/rejected > "$WORK/edge_rejected.json"

STATUS2=$("$BIN" daemon status --tcp "$ADDR2" --json)
echo "cluster smoke: edge status = $STATUS2"
python3 - "$STATUS2" "$ADDR1" "$WORK/pool_pass1.json" "$WORK/edge_pass.json" \
    "$WORK/pool_rejected.json" "$WORK/edge_rejected.json" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["remote"] == f"tcp://{sys.argv[2]}", s
hits, misses = s["remote_hits"], s["remote_misses"]
assert hits > 0, s
assert hits >= 0.9 * (hits + misses), \
    f"remote tier served {hits}/{hits + misses} obligation lookups"
for pool_path, edge_path in [(sys.argv[3], sys.argv[4]), (sys.argv[5], sys.argv[6])]:
    pool = json.loads(open(pool_path).read())
    edge = json.loads(open(edge_path).read())
    assert edge["summary"]["engine"] == "daemon", edge["summary"]
    pool_reports = {r["file"]: r["report"] for r in pool["results"]}
    edge_reports = {r["file"]: r["report"] for r in edge["results"]}
    assert pool_reports == edge_reports, \
        f"remote-hit verdicts differ from the pool's ({edge_path})"
EOF

"$BIN" daemon stop --tcp "$ADDR2"
wait "$EDGE_PID"
EDGE_PID=""
"$BIN" daemon stop --tcp "$ADDR1"
wait "$POOL_PID"
POOL_PID=""
echo "cluster smoke: OK (clean shutdown)"
