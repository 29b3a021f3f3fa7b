#!/usr/bin/env sh
# Smoke test for patternletbench: boot patternletd on an ephemeral port,
# drive a short closed-loop load phase against it, and assert the report
# carries nonzero goodput and a parseable percentile ladder. Budgeted to
# finish well under 30s; CI runs it after cluster-smoke.
set -eu

GO=${GO:-go}
TMPDIR_SMOKE=$(mktemp -d)
ADDR_FILE="$TMPDIR_SMOKE/addr"
LOG_FILE="$TMPDIR_SMOKE/patternletd.log"
REPORT="$TMPDIR_SMOKE/report.txt"
BENCH_JSON="$TMPDIR_SMOKE/bench.json"

cleanup() {
    [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "${SRV_PID:-}" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMPDIR_SMOKE"
}
trap cleanup EXIT INT TERM

fail() {
    echo "load-smoke: FAIL: $1" >&2
    echo "--- report ---" >&2
    cat "$REPORT" >&2 || true
    echo "--- patternletd log ---" >&2
    cat "$LOG_FILE" >&2 || true
    exit 1
}

echo "load-smoke: building patternletd and patternletbench"
$GO build -o "$TMPDIR_SMOKE/patternletd" ./cmd/patternletd
$GO build -o "$TMPDIR_SMOKE/patternletbench" ./cmd/patternletbench

"$TMPDIR_SMOKE/patternletd" -addr 127.0.0.1:0 -addr-file "$ADDR_FILE" \
    -workers 2 -queue 16 >"$LOG_FILE" 2>&1 &
SRV_PID=$!

i=0
while [ ! -s "$ADDR_FILE" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "server did not write $ADDR_FILE within 10s"
    kill -0 "$SRV_PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
done
BASE="http://$(cat "$ADDR_FILE")"
echo "load-smoke: patternletd up at $BASE"

# A short closed-loop phase: 1s warmup + 5s measurement of the mixed
# workload, with the BENCH recording written alongside the text report.
"$TMPDIR_SMOKE/patternletbench" -url "$BASE" -mode closed -conns 4 \
    -mix mixed -warmup 1s -duration 5s -json "$BENCH_JSON" >"$REPORT" 2>&1 \
    || fail "patternletbench exited nonzero"
cat "$REPORT"

# Nonzero throughput: "N ok" with N > 0, and a positive goodput figure.
grep -Eq '[1-9][0-9]* ok \(' "$REPORT" || fail "no successful requests in report"

# A parseable percentile ladder: every labeled quantile plus max present.
for P in p50 p90 p95 p99 p999 max; do
    grep -Eq " $P [0-9]" "$REPORT" || fail "report missing $P"
done

# The BENCH recording exists and carries the same ladder.
[ -s "$BENCH_JSON" ] || fail "no BENCH json written"
grep -q '"p99_ns"' "$BENCH_JSON" || fail "BENCH json missing p99_ns metric"
grep -q '"qps"' "$BENCH_JSON" || fail "BENCH json missing qps metric"

# The daemon's own stage histograms, always recorded, saw the load.
curl -fsS "$BASE/metrics.json" | grep -q '"serve.stage.e2e.count"' \
    || fail "/metrics.json has no stage histograms"

kill "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=

echo "load-smoke: PASS"
