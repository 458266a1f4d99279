#!/bin/sh -e
# End-to-end serving smoke: boot `falcon serve`, wait for readiness, drive one
# closed-loop loadgen round, verify the falcon/loadgen/v1 report stamp and the
# Prometheus exposition, then SIGTERM the server and require a clean drain.
# CI runs this; so does `make loadgen-smoke`. Run from the repo root.
ADDR=${ADDR:-127.0.0.1:18080}
TMP=${TMPDIR:-/tmp}
OUT="$TMP/loadgen-smoke.json"

go build -o "$TMP/falcon" ./cmd/falcon

"$TMP/falcon" serve -addr "$ADDR" -records 20000 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

ready=
for _ in $(seq 1 100); do
    if curl -fs "http://$ADDR/readyz" >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.1
done
[ -n "$ready" ] || { echo "falcon serve never became ready" >&2; exit 1; }

"$TMP/falcon" loadgen -target "http://$ADDR" -scenario closed \
    -clients 4 -requests 200 -json "$OUT"
grep -q '"schema": "falcon/loadgen/v1"' "$OUT"
curl -fs "http://$ADDR/metrics" | grep -q '^falcon_'

# SIGTERM must drain in-flight work and exit 0.
kill -TERM "$PID"
wait "$PID"
trap - EXIT
echo "serving smoke ok: $OUT"
