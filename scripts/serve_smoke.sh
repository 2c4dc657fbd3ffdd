#!/usr/bin/env bash
# Smoke test for the arrayflex-serve HTTP service, run by CI after the
# build: start `serve` on an ephemeral port, curl /healthz and one
# /v1/plan request, assert the plan response matches the committed
# golden file (crates/serve/tests/golden/plan_resnet34_128x128.json —
# the same bytes the in-repo golden test pins), assert a repeated plan is
# a plan-cache hit served from the rendered memo, and run the keep-alive
# smoke.
#
# Usage: scripts/serve_smoke.sh [path-to-serve-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_BIN="${1:-target/release/serve}"
GOLDEN="crates/serve/tests/golden/plan_resnet34_128x128.json"
REQUEST='{"network":"resnet34","rows":128,"cols":128}'

if [[ ! -x "$SERVE_BIN" ]]; then
    echo "serve binary not found at $SERVE_BIN (build with: cargo build --release -p arrayflex-serve)" >&2
    exit 1
fi

LOG="$(mktemp)"
PLAN="$(mktemp)"
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
    rm -f "$LOG" "$PLAN"
}
trap cleanup EXIT

# Start the server and wait for the address announcement on the first
# stdout line.
"$SERVE_BIN" --addr 127.0.0.1:0 >"$LOG" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^listening on http://##p' "$LOG" | head -n 1)"
    [[ -n "$ADDR" ]] && break
    sleep 0.1
done
if [[ -z "$ADDR" ]]; then
    echo "serve did not announce an address; log:" >&2
    cat "$LOG" >&2
    exit 1
fi
echo "serve is listening on $ADDR"

HEALTH="$(curl -sS "http://$ADDR/healthz")"
if [[ "$HEALTH" != '{"status":"ok"}' ]]; then
    echo "unexpected /healthz response: $HEALTH" >&2
    exit 1
fi
echo "/healthz ok"

curl -sS -X POST "http://$ADDR/v1/plan" -d "$REQUEST" -o "$PLAN"
if ! cmp -s "$PLAN" "$GOLDEN"; then
    echo "/v1/plan response differs from $GOLDEN:" >&2
    diff <(head -c 400 "$GOLDEN") <(head -c 400 "$PLAN") >&2 || true
    exit 1
fi
echo "/v1/plan matches the golden file ($(wc -c <"$GOLDEN") bytes)"

# The same request again must be a plan-cache hit served from the
# rendered memo, both visible in /metrics.
curl -sS -X POST "http://$ADDR/v1/plan" -d "$REQUEST" -o /dev/null
METRICS="$(curl -sS "http://$ADDR/metrics")"
if ! grep -q '^arrayflex_serve_plan_cache_hits_total 1$' <<<"$METRICS" ||
    ! grep -q '^arrayflex_serve_rendered_hits_total 1$' <<<"$METRICS"; then
    echo "expected one plan-cache hit and one rendered-memo hit in /metrics:" >&2
    grep -E 'cache|rendered' <<<"$METRICS" >&2 || true
    exit 1
fi
echo "/metrics reports the plan-cache hit, served from the rendered memo"

# Keep-alive smoke: one persistent connection serving two sequential
# requests and then a pipelined pair, all 200 and in order (the loadgen
# binary carries the raw-socket client the shell cannot express).
LOADGEN_BIN="${LOADGEN_BIN:-target/release/loadgen}"
if [[ ! -x "$LOADGEN_BIN" ]]; then
    echo "loadgen binary not found at $LOADGEN_BIN (build with: cargo build --release -p arrayflex-serve)" >&2
    exit 1
fi
"$LOADGEN_BIN" --keepalive-smoke "$ADDR"

echo "serve smoke test passed"
