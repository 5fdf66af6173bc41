#!/usr/bin/env bash
# LSP smoke test: drive `commcsl lsp` over real stdio with Content-Length
# framed JSON-RPC. Opens a rejected fixture and asserts publishDiagnostics
# carries the pinned DiagnosticCode at the right range plus a minimized
# counterexample in hover, then edits the document into a valid program
# and asserts the diagnostics clear. Ends with shutdown/exit and asserts
# the server's exit status is 0 (the clean-shutdown contract). A frame
# whose Content-Length is absurd must end the server with a transport
# error (exit 2), never an allocation abort.
#
# Usage: scripts/lsp_smoke.sh [path-to-commcsl-binary]
set -euo pipefail

BIN=${1:-./target/release/commcsl}

set +e
OVERSIZED=$(printf 'Content-Length: 100000000000000\r\n\r\n' | "$BIN" lsp 2>&1)
CODE=$?
set -e
[ "$CODE" -eq 2 ] \
    || { echo "lsp smoke: oversized frame exited $CODE, expected 2: $OVERSIZED" >&2; exit 1; }
case "$OVERSIZED" in
    *"transport error"*) ;;
    *) echo "lsp smoke: oversized frame gave no transport error: $OVERSIZED" >&2; exit 1 ;;
esac

python3 - "$BIN" <<'EOF'
import json, subprocess, sys

BIN = sys.argv[1]

REJECTED = open("examples/rejected/unused_low_leak.csl").read()
VALID = 'program "good";\n\ninput a: Int low;\noutput a;\n'
URI = "file:///smoke/unused_low_leak.csl"
# 0-based line of the leaking statement in the rejected fixture.
LEAK_LINE = next(i for i, l in enumerate(REJECTED.splitlines()) if "output h" in l)
LEAK_COL = REJECTED.splitlines()[LEAK_LINE].index("output h")

def frame(msg):
    body = json.dumps(msg, separators=(",", ":")).encode()
    return b"Content-Length: %d\r\n\r\n" % len(body) + body

def req(id, method, params):
    return frame({"jsonrpc": "2.0", "id": id, "method": method, "params": params})

def note(method, params):
    return frame({"jsonrpc": "2.0", "method": method, "params": params})

stdin = b"".join([
    req(1, "initialize", {"capabilities": {}}),
    note("initialized", {}),
    note("textDocument/didOpen", {"textDocument": {
        "uri": URI, "languageId": "commcsl", "version": 1, "text": REJECTED}}),
    req(2, "textDocument/hover", {
        "textDocument": {"uri": URI},
        "position": {"line": LEAK_LINE, "character": LEAK_COL}}),
    note("textDocument/didChange", {
        "textDocument": {"uri": URI, "version": 2},
        "contentChanges": [{"text": VALID}]}),
    req(3, "shutdown", None),
    note("exit", {}),
])

proc = subprocess.run([BIN, "lsp", "--stdio"], input=stdin,
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
assert proc.returncode == 0, (
    f"lsp smoke: server exited {proc.returncode}: {proc.stderr.decode()}")

# Decode every Content-Length frame the server produced.
out, msgs = proc.stdout, []
while out:
    header, _, rest = out.partition(b"\r\n\r\n")
    length = next(int(l.split(b":")[1]) for l in header.split(b"\r\n")
                  if l.lower().startswith(b"content-length"))
    msgs.append(json.loads(rest[:length]))
    out = rest[length:]

def response(id):
    found = [m for m in msgs if m.get("id") == id]
    assert len(found) == 1, f"lsp smoke: expected one response for id {id}"
    assert "error" not in found[0], f"lsp smoke: id {id} errored: {found[0]}"
    return found[0]["result"]

# 1. initialize: full-sync text documents and hover are advertised.
caps = response(1)["capabilities"]
assert caps["textDocumentSync"] == {"openClose": True, "change": 1}, caps
assert caps["hoverProvider"] is True, caps

# 2. The rejected fixture publishes a diagnostic with the pinned code at
#    the leaking statement's range (0-based LSP positions).
published = [m["params"] for m in msgs
             if m.get("method") == "textDocument/publishDiagnostics"
             and m["params"]["uri"] == URI]
assert len(published) == 2, f"lsp smoke: expected 2 publishes, got {len(published)}"
bad = published[0]["diagnostics"]
leak = [d for d in bad if d["code"] == "low-output"]
assert leak, f"lsp smoke: no low-output diagnostic: {bad}"
rng = leak[0]["range"]["start"]
assert rng == {"line": LEAK_LINE, "character": LEAK_COL}, (
    f"lsp smoke: wrong range {rng}, expected line {LEAK_LINE} col {LEAK_COL}")
assert leak[0]["severity"] == 1, leak[0]
assert "counterexample" in leak[0]["message"], leak[0]["message"]

# 3. Hover over the leak: failed obligation with a minimized witness that
#    binds only `h` — the unrelated low guards `a`/`b` were delta-debugged
#    away (strictly smaller than the 3-variable unminimized witness).
hover = response(2)["contents"]["value"]
assert "low-output" in hover and "(minimized)" in hover, hover
witness = [l.split("`")[1] for l in hover.splitlines() if l.startswith("| `")]
assert len(witness) == 1 and witness[0].endswith("h"), (
    f"lsp smoke: witness not minimized to just `h`: {witness}")

# 4. Editing the document into a valid program clears the diagnostics.
assert published[1]["diagnostics"] == [], published[1]

# 5. Progress streamed for both checks: begin/end pairs per revision.
progress = [m["params"]["value"]["kind"] for m in msgs if m.get("method") == "$/progress"]
assert progress.count("begin") == 2 and progress.count("end") == 2, progress

print(f"lsp smoke: OK ({len(msgs)} messages, clean shutdown)")
EOF
