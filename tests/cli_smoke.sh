#!/usr/bin/env bash
# Smoke test for the ccov CLI: exercises every subcommand and the
# --out/--in cover-file round trip. Usage: cli_smoke.sh <path-to-ccov>
set -euo pipefail

CCOV=${1:?usage: cli_smoke.sh <path-to-ccov>}
TMPDIR_SMOKE=$(mktemp -d)
# Unique per run so parallel ctest invocations don't share a segment. The
# server shm_unlink's it on a clean exit; the trap covers failure paths,
# where an orphaned /dev/shm file would otherwise outlive the test.
SHM_NAME="ccov-smoke-$$"
SHM_RETRY_NAME="ccov-smoke-retry-$$"
cleanup() {
  rm -rf "${TMPDIR_SMOKE}"
  rm -f "/dev/shm/${SHM_NAME}" "/dev/shm/${SHM_RETRY_NAME}"
}
trap cleanup EXIT
COVER_FILE="${TMPDIR_SMOKE}/cover.txt"

fail() { echo "cli_smoke: FAIL: $*" >&2; exit 1; }
# Pipe checks use `has`, not `grep -q`: grep -q exits at its first match,
# and under pipefail a producer still writing then dies of SIGPIPE and
# fails the check even though the match was found. `has` reads all input.
has() { grep "$@" > /dev/null; }

echo "== ccov usage/help behaviour"
"${CCOV}" | has "usage:" || fail "no-arg invocation should print usage and exit 0"
"${CCOV}" help >/dev/null || fail "'ccov help' should exit 0"
for sub in cover validate bounds solve protect run sweep serve cache algos; do
  "${CCOV}" help | has "${sub}" || fail "usage should list '${sub}'"
done
if "${CCOV}" frobnicate >/dev/null 2>&1; then fail "unknown command should exit nonzero"; fi
UNKNOWN_OUT="${TMPDIR_SMOKE}/unknown.out"
UNKNOWN_ERR="${TMPDIR_SMOKE}/unknown.err"
if "${CCOV}" frobnicate >"${UNKNOWN_OUT}" 2>"${UNKNOWN_ERR}"; then
  fail "unknown command should exit nonzero"
fi
[ ! -s "${UNKNOWN_OUT}" ] || fail "unknown command should not write to stdout"
grep -q "usage:" "${UNKNOWN_ERR}" || fail "unknown command should print usage on stderr"

echo "== ccov --version"
"${CCOV}" --version | has -E "^ccov [0-9]+\.[0-9]+\.[0-9]+" \
  || fail "--version should print 'ccov <semver>'"

echo "== ccov bounds --n 13"
OUT=$("${CCOV}" bounds --n 13)
echo "${OUT}" | has "rho(n)" || fail "bounds output missing rho(n)"
echo "${OUT}" | has "capacity bound" || fail "bounds output missing capacity bound"

echo "== ccov cover --n 13 --out"
"${CCOV}" cover --n 13 --out "${COVER_FILE}" >/dev/null
[ -s "${COVER_FILE}" ] || fail "cover --out did not write ${COVER_FILE}"

echo "== ccov validate --in (round trip)"
"${CCOV}" validate --in "${COVER_FILE}" >/dev/null || fail "saved cover failed validation"

echo "== ccov validate rejects a corrupt cover"
CORRUPT="${TMPDIR_SMOKE}/corrupt.txt"
head -n 2 "${COVER_FILE}" > "${CORRUPT}"
if "${CCOV}" validate --in "${CORRUPT}" >/dev/null 2>&1; then
  fail "truncated cover should fail validation"
fi

echo "== ccov validate --in missing file exits nonzero"
if "${CCOV}" validate --in "${TMPDIR_SMOKE}/nope.txt" >/dev/null 2>&1; then
  fail "missing --in file should exit nonzero"
fi

echo "== ccov cover (stdout path, no --out)"
"${CCOV}" cover --n 9 | has "cycle" || fail "cover without --out should print cycles"

echo "== ccov solve --n 7 (serial + parallel agree on found)"
S=$("${CCOV}" solve --n 7)
P=$("${CCOV}" solve --n 7 --parallel)
echo "${S}" | has "found=1" || fail "serial solve n=7 should find a cover"
echo "${P}" | has "found=1" || fail "parallel solve n=7 should find a cover"

echo "== ccov protect --n 12 --edge 3"
"${CCOV}" protect --n 12 --edge 3 | has "affected=" || fail "protect output missing report"

echo "== ccov algos lists the registered strategies"
ALGOS=$("${CCOV}" algos)
for name in construct solve greedy lambda; do
  echo "${ALGOS}" | has "${name}" || fail "algos output missing '${name}'"
done

echo "== ccov algos prints the algorithm table byte for byte"
ALGOS_GOLDEN="${TMPDIR_SMOKE}/algos.golden"
cat > "${ALGOS_GOLDEN}" <<'GOLDEN'
== registered algorithms ==
| name           | description                                                                           |
|----------------|---------------------------------------------------------------------------------------|
| c4             | classical C4 covering of K_n, no routing constraint (ref [2])                         |
| construct      | Theorems 1-2 covering of K_n; above rho(n) for even n >= 14                           |
| emz            | greedy cover minimizing the Eilam-Moran-Zaks size objective                           |
| greedy         | greedy DRC-covering baseline (accepts an explicit demand)                             |
| lambda         | DRC-covering of lambda*K_n (--lambda copies of the optimum)                           |
| solve          | exact branch-and-bound search within --budget cycles (default rho(n))                 |
| solve-parallel | exact search fanned across --threads (shared node budget, witness identical to solve) |
| triple         | classical triangle covering C(n,3,2), no routing constraint (refs [6,7])              |
GOLDEN
"${CCOV}" algos > "${TMPDIR_SMOKE}/algos.out"
cmp -s "${ALGOS_GOLDEN}" "${TMPDIR_SMOKE}/algos.out" \
  || fail "algos output differs from the golden table: $(diff "${ALGOS_GOLDEN}" "${TMPDIR_SMOKE}/algos.out")"

echo "== ccov run --algo construct --n 9"
"${CCOV}" run --algo construct --n 9 | has "valid=yes" \
  || fail "run construct n=9 should produce a valid cover"

echo "== ccov run --algo solve caches the second invocation's shape"
"${CCOV}" run --algo solve --n 7 | has "found=1" \
  || fail "run solve n=7 should find a cover"

echo "== ccov run with an unknown algorithm exits nonzero"
if "${CCOV}" run --algo frobnicate --n 9 >/dev/null 2>&1; then
  fail "run with unknown --algo should exit nonzero"
fi

echo "== ccov run exits nonzero when the cover fails validation"
# The classical C4 covering ignores the DRC, so validation fails.
if "${CCOV}" run --algo c4 --n 9 >/dev/null 2>&1; then
  fail "run producing an invalid cover should exit nonzero"
fi
"${CCOV}" run --algo c4 --n 9 --no-validate >/dev/null \
  || fail "run --no-validate should not fail on an unvalidated cover"

echo "== ccov sweep (CSV to file, deterministic across --jobs)"
SWEEP1="${TMPDIR_SMOKE}/sweep1.csv"
SWEEP4="${TMPDIR_SMOKE}/sweep4.csv"
"${CCOV}" sweep --n-from 3 --n-to 12 --algo construct --jobs 1 --out "${SWEEP1}" \
  || fail "sweep --jobs 1 failed"
"${CCOV}" sweep --n-from 3 --n-to 12 --algo construct --jobs 4 --out "${SWEEP4}" \
  || fail "sweep --jobs 4 failed"
head -n 1 "${SWEEP1}" | has "algo,n,rho,cycles" || fail "sweep CSV header missing"
[ "$(wc -l < "${SWEEP1}")" -eq 11 ] || fail "sweep CSV should have header + 10 rows"
cmp -s "${SWEEP1}" "${SWEEP4}" || fail "sweep output should be identical across --jobs"

echo "== ccov sweep --format json"
"${CCOV}" sweep --n-from 5 --n-to 7 --algo greedy --format json \
  | has '"algo": "greedy"' || fail "sweep JSON output malformed"

echo "== bad numeric flags fail with a one-line stderr error"
for args in "sweep --n-from abc" "sweep --n-from 3 --n-to 9 --jobs 1.5" \
            "run --algo solve --n 7 --budget 99999999999999999999999" \
            "serve --batch nope"; do
  ERR="${TMPDIR_SMOKE}/badnum.err"
  # shellcheck disable=SC2086
  if "${CCOV}" ${args} >/dev/null 2>"${ERR}"; then
    fail "'ccov ${args}' should exit nonzero"
  fi
  [ "$(wc -l < "${ERR}")" -eq 1 ] || fail "'ccov ${args}' should print exactly one stderr line"
  grep -Eq "invalid (integer|number)|out of range" "${ERR}" \
    || fail "'ccov ${args}' error should name the bad value: $(cat "${ERR}")"
done

echo "== ccov serve (JSONL round trip, byte-identical across --jobs)"
REQS="${TMPDIR_SMOKE}/requests.jsonl"
cat > "${REQS}" <<'EOF'
{"algo":"construct","n":9}
{"algo":"solve","n":7}
{"algo":"greedy","n":9,"demand":[[0,3],[1,4],[2,7]]}
{"algo":"greedy","n":9,"demand":[[2,5],[3,6],[0,4]]}
{"algo":"construct","n":9}
{"op":"stats"}
EOF
SERVE1="${TMPDIR_SMOKE}/serve1.jsonl"
SERVE4="${TMPDIR_SMOKE}/serve4.jsonl"
"${CCOV}" serve --jobs 1 < "${REQS}" > "${SERVE1}" 2>/dev/null \
  || fail "serve --jobs 1 failed"
"${CCOV}" serve --jobs 4 --batch 8 < "${REQS}" > "${SERVE4}" 2>/dev/null \
  || fail "serve --jobs 4 failed"
[ "$(wc -l < "${SERVE1}")" -eq 6 ] || fail "serve should answer every input line"
cmp -s "${SERVE1}" "${SERVE4}" || fail "serve output should be identical across --jobs"
head -n 1 "${SERVE1}" | has '"id":0,"ok":true' || fail "serve responses should be index-aligned"
grep -q '"op":"stats","ok":true' "${SERVE1}" || fail "stats verb should answer in-band"
grep -q '"nodes":0,"cache_hit":true' "${SERVE1}" \
  || fail "duplicate requests inside one serve run should hit the cache"

echo "== ccov serve rejects garbage lines in-band"
echo 'this is not json' | "${CCOV}" serve 2>/dev/null \
  | has '"ok":false,"error":"parse:' || fail "parse errors should answer in-band"

echo "== ccov serve --cache-file warm start (cache_hit=true, nodes=0)"
SNAP="${TMPDIR_SMOKE}/store.bin"
echo '{"algo":"solve","n":8}' | "${CCOV}" serve --cache-file "${SNAP}" >/dev/null 2>&1 \
  || fail "serve --cache-file (cold) failed"
[ -s "${SNAP}" ] || fail "serve should save the store on exit"
WARM=$(echo '{"algo":"solve","n":8}' | "${CCOV}" serve --cache-file "${SNAP}" 2>/dev/null)
echo "${WARM}" | has '"nodes":0,"cache_hit":true' \
  || fail "warm-started serve should answer from the snapshot: ${WARM}"

echo "== ccov serve answers interactively (stdin stays open)"
coproc SERVE_PROC { "${CCOV}" serve 2>/dev/null; }
SERVE_COPROC_PID=${SERVE_PROC_PID}
printf '%s\n' '{"algo":"construct","n":9}' >&"${SERVE_PROC[1]}"
IFS= read -r -t 30 line <&"${SERVE_PROC[0]}" \
  || fail "serve did not answer while stdin was still open"
echo "${line}" | has '"id":0,"ok":true' \
  || fail "interactive response malformed: ${line}"
eval "exec ${SERVE_PROC[1]}>&-"
wait "${SERVE_COPROC_PID}" || fail "interactive serve should exit 0"

echo "== ccov serve handles CRLF and oversized lines in-band"
printf '{"algo":"construct","n":9}\r\n' | "${CCOV}" serve 2>/dev/null \
  | has '"id":0,"ok":true' || fail "CRLF-terminated requests should parse"
LONG_LINE=$(head -c 2000 /dev/zero | tr '\0' 'x')
printf '%s\n{"algo":"construct","n":9}\n' "${LONG_LINE}" \
  | "${CCOV}" serve --max-line 256 2>/dev/null > "${TMPDIR_SMOKE}/long.jsonl" \
  || fail "serve with an oversized line should keep running"
grep -q '"id":0,"ok":false,"error":"parse: line exceeds' "${TMPDIR_SMOKE}/long.jsonl" \
  || fail "oversized line should be rejected in-band"
grep -q '"id":1,"ok":true' "${TMPDIR_SMOKE}/long.jsonl" \
  || fail "the line after an oversized one should still be answered"

echo "== ccov serve --listen (TCP loopback, byte-identical to stdio)"
LISTEN_ERR="${TMPDIR_SMOKE}/listen.err"
LISTEN_SNAP="${TMPDIR_SMOKE}/listen_store.bin"
"${CCOV}" serve --listen 127.0.0.1:0 --cache-file "${LISTEN_SNAP}" \
  2>"${LISTEN_ERR}" &
SERVER_PID=$!
PORT=""
for _ in $(seq 100); do
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
    "${LISTEN_ERR}" 2>/dev/null || true)
  [ -n "${PORT}" ] && break
  sleep 0.1
done
[ -n "${PORT}" ] || fail "server did not report its listening port"

# Scripted client 1: the same request file as the stdio runs above.
TCP_OUT="${TMPDIR_SMOKE}/tcp.jsonl"
: > "${TCP_OUT}"
exec 3<>"/dev/tcp/127.0.0.1/${PORT}" || fail "cannot connect to port ${PORT}"
cat "${REQS}" >&3
for _ in $(seq "$(wc -l < "${REQS}")"); do
  IFS= read -r line <&3 || fail "server closed the connection early"
  printf '%s\n' "${line}" >> "${TCP_OUT}"
done
exec 3<&- 3>&-
cmp -s "${SERVE1}" "${TCP_OUT}" \
  || fail "TCP responses should be byte-identical to stdio serve"

# Scripted client 2: repeats are served from the shared warm cache.
exec 3<>"/dev/tcp/127.0.0.1/${PORT}" || fail "cannot reconnect to ${PORT}"
printf '%s\n' '{"algo":"solve","n":7}' >&3
IFS= read -r line <&3 || fail "second client got no response"
echo "${line}" | has '"nodes":0,"cache_hit":true' \
  || fail "second TCP client should hit the warm shared cache: ${line}"
exec 3<&- 3>&-

kill -TERM "${SERVER_PID}"
wait "${SERVER_PID}" || fail "server should exit 0 on SIGTERM"
[ -s "${LISTEN_SNAP}" ] || fail "server should save the store on SIGTERM"
"${CCOV}" cache load --cache-file "${LISTEN_SNAP}" | has "snapshot ok" \
  || fail "snapshot saved on shutdown should load cleanly"
if ls "${TMPDIR_SMOKE}" | has "\.tmp\."; then
  fail "atomic save left a temp file behind"
fi

echo "== ccov serve --http (HTTP loopback, byte-identical to stdio)"
HTTP_ERR="${TMPDIR_SMOKE}/http.err"
HTTP_SNAP="${TMPDIR_SMOKE}/http_store.bin"
"${CCOV}" serve --http 127.0.0.1:0 --cache-file "${HTTP_SNAP}" \
  2>"${HTTP_ERR}" &
HTTP_PID=$!
HTTP_PORT=""
for _ in $(seq 100); do
  HTTP_PORT=$(sed -n 's/.*http listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
    "${HTTP_ERR}" 2>/dev/null || true)
  [ -n "${HTTP_PORT}" ] && break
  sleep 0.1
done
[ -n "${HTTP_PORT}" ] || fail "http server did not report its listening port"

# POST the same request file; the chunked payload bytes are whole JSONL
# lines, so stripping CRs and keeping '^{' lines de-chunks the body.
HTTP_OUT="${TMPDIR_SMOKE}/http.jsonl"
HTTP_RAW="${TMPDIR_SMOKE}/http.raw"
exec 3<>"/dev/tcp/127.0.0.1/${HTTP_PORT}" || fail "cannot connect to ${HTTP_PORT}"
{
  printf 'POST /v1/batch HTTP/1.1\r\n'
  printf 'Host: 127.0.0.1\r\n'
  printf 'Content-Length: %s\r\n' "$(wc -c < "${REQS}")"
  printf 'Connection: close\r\n\r\n'
  cat "${REQS}"
} >&3
cat <&3 > "${HTTP_RAW}"
exec 3<&- 3>&-
head -n 1 "${HTTP_RAW}" | has "200 OK" || fail "batch POST should answer 200"
tr -d '\r' < "${HTTP_RAW}" | grep '^{' > "${HTTP_OUT}"
cmp -s "${SERVE1}" "${HTTP_OUT}" \
  || fail "HTTP responses should be byte-identical to stdio serve"

# Scrape /metrics and check the session above left its marks.
METRICS_RAW="${TMPDIR_SMOKE}/metrics.raw"
exec 3<>"/dev/tcp/127.0.0.1/${HTTP_PORT}" || fail "cannot reconnect to ${HTTP_PORT}"
printf 'GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' >&3
cat <&3 > "${METRICS_RAW}"
exec 3<&- 3>&-
grep -q "ccov_serve_sessions_total 1" "${METRICS_RAW}" \
  || fail "/metrics should count the batch session"
grep -q "ccov_http_requests_total" "${METRICS_RAW}" \
  || fail "/metrics should expose the HTTP request counter"
grep -q "ccov_cache_entries" "${METRICS_RAW}" \
  || fail "/metrics should expose the cache gauges"

kill -TERM "${HTTP_PID}"
wait "${HTTP_PID}" || fail "http server should exit 0 on SIGTERM"
[ -s "${HTTP_SNAP}" ] || fail "http server should save the store on SIGTERM"
"${CCOV}" cache load --cache-file "${HTTP_SNAP}" | has "snapshot ok" \
  || fail "snapshot saved on http shutdown should load cleanly"

echo "== ccov serve --shm (shared memory, byte-identical to stdio)"
SHM_ERR="${TMPDIR_SMOKE}/shm.err"
SHM_SNAP="${TMPDIR_SMOKE}/shm_store.bin"
"${CCOV}" serve --shm "${SHM_NAME}" --cache-file "${SHM_SNAP}" \
  2>"${SHM_ERR}" &
SHM_PID=$!
for _ in $(seq 100); do
  grep -q "shm serving on" "${SHM_ERR}" 2>/dev/null && break
  sleep 0.1
done
grep -q "shm serving on" "${SHM_ERR}" || fail "shm server did not come up"
[ -e "/dev/shm/${SHM_NAME}" ] || fail "shm segment missing while serving"

SHM_OUT="${TMPDIR_SMOKE}/shm.jsonl"
"${CCOV}" client --shm "${SHM_NAME}" < "${REQS}" > "${SHM_OUT}" \
  || fail "shm client round trip failed"
cmp -s "${SERVE1}" "${SHM_OUT}" \
  || fail "shm responses should be byte-identical to stdio serve"

kill -TERM "${SHM_PID}"
wait "${SHM_PID}" || fail "shm server should exit 0 on SIGTERM"
[ ! -e "/dev/shm/${SHM_NAME}" ] || fail "shm segment should be unlinked on exit"
[ -s "${SHM_SNAP}" ] || fail "shm server should save the store on SIGTERM"
"${CCOV}" cache load --cache-file "${SHM_SNAP}" | has "snapshot ok" \
  || fail "snapshot saved on shm shutdown should load cleanly"

echo "== ccov serve rejects a second transport and a bad --shm-ring"
TRANSPORT_ERR="${TMPDIR_SMOKE}/transport.err"
RC=0
"${CCOV}" serve --listen :0 --shm "${SHM_NAME}" </dev/null >/dev/null \
  2>"${TRANSPORT_ERR}" || RC=$?
[ "${RC}" -eq 1 ] || fail "--listen with --shm should exit 1 (got ${RC})"
grep -q "mutually exclusive" "${TRANSPORT_ERR}" \
  || fail "--listen with --shm should name the conflict: $(cat "${TRANSPORT_ERR}")"
RC=0
"${CCOV}" serve --shm "${SHM_NAME}" --shm-ring 100 </dev/null >/dev/null \
  2>"${TRANSPORT_ERR}" || RC=$?
[ "${RC}" -eq 1 ] || fail "--shm-ring 100 should exit 1 (got ${RC})"
grep -q "power of two" "${TRANSPORT_ERR}" \
  || fail "--shm-ring 100 should say why: $(cat "${TRANSPORT_ERR}")"
[ ! -e "/dev/shm/${SHM_NAME}" ] || fail "a rejected --shm-ring should leave no segment"

echo "== ccov cache stats / load / save / clear"
"${CCOV}" cache stats --cache-file "${SNAP}" | has "entries: 1" \
  || fail "cache stats should count the stored entry"
"${CCOV}" cache load --cache-file "${SNAP}" | has "snapshot ok" \
  || fail "cache load should verify the snapshot"
"${CCOV}" cache save --cache-file "${SNAP}" --algo construct --n-from 3 --n-to 12 >/dev/null \
  || fail "cache save (offline warming) failed"
"${CCOV}" cache stats --cache-file "${SNAP}" | has "entries: 11" \
  || fail "cache save should merge the sweep into the snapshot"
"${CCOV}" cache clear --cache-file "${SNAP}" >/dev/null || fail "cache clear failed"
"${CCOV}" cache stats --cache-file "${SNAP}" | has "entries: 0" \
  || fail "cleared snapshot should be empty"
echo "garbage" > "${SNAP}"
if "${CCOV}" cache load --cache-file "${SNAP}" >/dev/null 2>&1; then
  fail "cache load should reject a corrupt snapshot"
fi

echo "== ccov sweep --cache-file warm start"
SWEEPSNAP="${TMPDIR_SMOKE}/sweep_store.bin"
WARM1="${TMPDIR_SMOKE}/sweep_warm1.csv"
WARM2="${TMPDIR_SMOKE}/sweep_warm2.csv"
"${CCOV}" sweep --n-from 3 --n-to 9 --algo solve --cache-file "${SWEEPSNAP}" --out "${WARM1}" \
  || fail "sweep --cache-file (cold) failed"
"${CCOV}" sweep --n-from 3 --n-to 9 --algo solve --cache-file "${SWEEPSNAP}" --out "${WARM2}" \
  || fail "sweep --cache-file (warm) failed"
# The warm sweep answers every n from the snapshot: zero nodes searched.
tail -n +2 "${WARM2}" | awk -F, '{ if ($9 != 0) exit 1 }' \
  || fail "warm sweep should report nodes=0 for every row"

echo "== ccov serve request deadlines (timed_out, degraded, never cached)"
# n=10 at its default budget exhausts the 200M-node budget (~seconds of
# search), so a 60ms deadline reliably expires mid-search.
DL_REQ='{"algo":"solve","n":10,"deadline_ms":60}'
DL_OUT=$(echo "${DL_REQ}" | "${CCOV}" serve 2>/dev/null)
echo "${DL_OUT}" | has '"timed_out":true' \
  || fail "expired deadline should answer timed_out:true: ${DL_OUT}"
echo "${DL_OUT}" | has '"found":false' \
  || fail "a bare timeout should not claim a cover: ${DL_OUT}"
DEG_OUT=$(echo "${DL_REQ}" | "${CCOV}" serve --fallback greedy 2>/dev/null)
echo "${DEG_OUT}" | has '"degraded":true' \
  || fail "--fallback greedy should flag the answer degraded: ${DEG_OUT}"
echo "${DEG_OUT}" | has '"found":true' \
  || fail "--fallback greedy should still produce a cover: ${DEG_OUT}"
DD_OUT=$(echo '{"algo":"solve","n":10}' \
  | "${CCOV}" serve --default-deadline-ms 60 2>/dev/null)
echo "${DD_OUT}" | has '"timed_out":true' \
  || fail "--default-deadline-ms should bound requests without one: ${DD_OUT}"
DL_SNAP="${TMPDIR_SMOKE}/deadline_store.bin"
echo "${DL_REQ}" | "${CCOV}" serve --cache-file "${DL_SNAP}" >/dev/null 2>&1 \
  || fail "serve with an expired deadline should still exit 0"
"${CCOV}" cache stats --cache-file "${DL_SNAP}" | has "entries: 0" \
  || fail "a timed-out answer must never be cached"

echo "== SIGTERM mid-solve: bounded shutdown, loadable snapshot (stdio)"
TERM_SNAP="${TMPDIR_SMOKE}/term_store.bin"
TERM_IN="${TMPDIR_SMOKE}/term_in"
TERM_OUT="${TMPDIR_SMOKE}/term_out.jsonl"
mkfifo "${TERM_IN}"
# A plain background command (not a coproc) so ${TERM_PID} is the ccov
# process itself — the SIGTERM must land on the server, not a wrapper.
"${CCOV}" serve --cache-file "${TERM_SNAP}" \
  < "${TERM_IN}" > "${TERM_OUT}" 2>/dev/null &
TERM_PID=$!
exec 9> "${TERM_IN}"
printf '%s\n' '{"algo":"construct","n":9}' >&9
for _ in $(seq 100); do
  [ -s "${TERM_OUT}" ] && break
  sleep 0.1
done
[ -s "${TERM_OUT}" ] || fail "serve did not answer the warmup request"
printf '%s\n' '{"algo":"solve","n":10}' >&9
sleep 0.3  # the solve is now seconds deep into its 200M-node budget
T0=$(date +%s%N)
kill -TERM "${TERM_PID}"
wait "${TERM_PID}" || fail "stdio serve should exit 0 on SIGTERM"
exec 9>&-
ELAPSED_MS=$(( ( $(date +%s%N) - T0 ) / 1000000 ))
[ "${ELAPSED_MS}" -lt 2000 ] \
  || fail "stdio SIGTERM shutdown took ${ELAPSED_MS}ms (in-flight solve not cancelled?)"
"${CCOV}" cache load --cache-file "${TERM_SNAP}" | has "snapshot ok" \
  || fail "snapshot saved during stdio SIGTERM shutdown should load cleanly"

echo "== SIGTERM mid-solve: bounded shutdown, loadable snapshot (TCP)"
TERM_TCP_SNAP="${TMPDIR_SMOKE}/term_tcp_store.bin"
TERM_TCP_ERR="${TMPDIR_SMOKE}/term_tcp.err"
"${CCOV}" serve --listen 127.0.0.1:0 --cache-file "${TERM_TCP_SNAP}" \
  2>"${TERM_TCP_ERR}" &
TERM_TCP_PID=$!
TERM_PORT=""
for _ in $(seq 100); do
  TERM_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
    "${TERM_TCP_ERR}" 2>/dev/null || true)
  [ -n "${TERM_PORT}" ] && break
  sleep 0.1
done
[ -n "${TERM_PORT}" ] || fail "TCP server did not report its listening port"
exec 3<>"/dev/tcp/127.0.0.1/${TERM_PORT}" || fail "cannot connect to ${TERM_PORT}"
printf '%s\n' '{"algo":"construct","n":9}' >&3
IFS= read -r line <&3 || fail "warmup over TCP got no response"
printf '%s\n' '{"algo":"solve","n":10}' >&3
sleep 0.3
T0=$(date +%s%N)
kill -TERM "${TERM_TCP_PID}"
wait "${TERM_TCP_PID}" || fail "TCP serve should exit 0 on SIGTERM"
ELAPSED_MS=$(( ( $(date +%s%N) - T0 ) / 1000000 ))
exec 3<&- 3>&-
[ "${ELAPSED_MS}" -lt 2000 ] \
  || fail "TCP SIGTERM shutdown took ${ELAPSED_MS}ms (in-flight solve not cancelled?)"
"${CCOV}" cache load --cache-file "${TERM_TCP_SNAP}" | has "snapshot ok" \
  || fail "snapshot saved during TCP SIGTERM shutdown should load cleanly"

echo "== ccov client --shm retries until the server appears"
RETRY_OUT="${TMPDIR_SMOKE}/retry.jsonl"
( echo '{"algo":"construct","n":9}' \
    | "${CCOV}" client --shm "${SHM_RETRY_NAME}" --connect-retry-ms 5000 \
    > "${RETRY_OUT}" ) &
RETRY_CLIENT_PID=$!
sleep 0.3  # the client is now inside its backoff loop, server not yet up
"${CCOV}" serve --shm "${SHM_RETRY_NAME}" 2>/dev/null &
RETRY_SHM_PID=$!
wait "${RETRY_CLIENT_PID}" \
  || fail "client --shm should keep retrying until the server appears"
grep -q '"id":0,"ok":true' "${RETRY_OUT}" \
  || fail "retried shm client should complete its round trip"
kill -TERM "${RETRY_SHM_PID}"
wait "${RETRY_SHM_PID}" || fail "retry-test shm server should exit 0 on SIGTERM"

echo "cli_smoke: PASS"
