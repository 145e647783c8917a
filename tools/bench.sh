#!/bin/sh
# The bench driver: builds the microbenchmarks and the serve pair, runs every
# sweep and the serve load test, writes the six BENCH_*.json records at the
# repo root, and checks every speed gate in the table below.
#
# Usage: tools/bench.sh [build-dir]      (default: build)
#
# Records written:
#   BENCH_parallel.json     Jaccard matrix and SMACOF at 0/1/2/4/8 workers
#   BENCH_obs.json          observability overhead, 3 repetitions (medians)
#   BENCH_incremental.json  RSIX cold start and append-one, 3 repetitions
#                           (medians; docs/PERSISTENCE.md)
#   BENCH_verify.json       chain verdicts and temporal scans (docs/VERIFY.md)
#   BENCH_landscape.json    agreement matrix, IdSet vs naive (docs/LANDSCAPE.md)
#   BENCH_serve.json        loadgen runs, each on a fresh server: epoll_4,
#                           epoll_64, epoll_batch16, and the three
#                           alternating epoll_4/epoll_64 pair ratios G1
#                           reads (docs/SERVING.md)
#
# Every gate is evaluated and printed, then the driver exits 1 naming each
# gate that missed; a benchmark absent from its record misses its gate.
# The 1-vs-N worker speedups and the observability overheads are printed
# for the record and gate nothing.
set -eu

# The gate table.  A measure is `record:benchmark` (google-benchmark real
# time in BENCH_<record>.json), `run.phase.field` (a serve loadgen run) or
# a bare name (a value this script derived, such as the G1 median).  With
# a denominator the gate checks the ratio, with `-` the value itself.
#
#  cold-start   mmap+validate load of an RSIX file vs rebuilding the index
#  append-one   absorbing one snapshot vs recomputing over the history
#  breakpoints  the flip-breakpoint sweep vs a day-by-day scan
#  agreement    interned IdSet agreement matrix vs FingerprintSet scan
#  G1           16x the connections over the same 4 loops keeps throughput:
#               the median of three epoll_64/epoll_4 miss-rps ratios, the
#               runs alternating (one pair read 0.641 in 1 of 19 runs of
#               this script on a shared 4-CPU host, median 0.89x)
#  G2           batch envelopes amortize the syscall-bound cached path
#  G3           the miss tail at 64 connections stays bounded: 50 ms is ~2x
#               the worst of 32 runs on a shared 4-CPU host (9.0-25.5 ms);
#               the thread-per-connection transport this server replaced
#               read 85-121 ms there
GATES='
cold-start  incremental:BM_ColdStartRebuild_median incremental:BM_ColdStartLoadFile_median >= 20
append-one  incremental:BM_FullRecompute_median    incremental:BM_AppendOneSnapshot_median >= 10
breakpoints verify:BM_FirstRejectedAtLinearScan    verify:BM_FirstRejectedAtBreakpoints    >= 5
agreement   landscape:BM_AgreementMatrixNaive      landscape:BM_AgreementMatrixIdSet       >= 5
G1          g1_median                              -                                       >= 0.7
G2          epoll_batch16.hit_phase.throughput_rps epoll_4.hit_phase.throughput_rps        >= 2.0
G3          epoll_64.miss_phase.p999_us            -                                       <= 50000
'

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-"$repo_root/build"}"
ncpu=$(getconf _NPROCESSORS_ONLN)

work=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT INT TERM

# bm_time <record> <benchmark>: the benchmark's real time in ns, nothing
# when BENCH_<record>.json lacks it.  The google-benchmark JSON layout is
# stable enough for awk: each entry's name precedes its real_time and
# time_unit.
bm_time() {
  [ -f "$repo_root/BENCH_$1.json" ] || return 0
  awk -v want="$2" '
    /"name":/      { n = $2; gsub(/[",]/, "", n) }
    /"real_time":/ { t = $2; sub(/,/, "", t) }
    /"time_unit":/ && n == want {
      u = $2; gsub(/[",]/, "", u)
      scale = u == "s" ? 1e9 : u == "ms" ? 1e6 : u == "us" ? 1e3 : 1
      printf "%.17g\n", t * scale
      exit
    }' "$repo_root/BENCH_$1.json"
}

# run_field <run> <phase> <field>: a numeric field of one phase line of a
# serve_loadgen --json-out file.
run_field() {
  [ -f "$work/$1.json" ] || return 0
  awk -v phase="\"$2\"" -F"\"$3\": " \
    '$0 ~ phase { split($2, a, "[,}]"); print a[1] }' "$work/$1.json"
}

measure() {
  case $1 in
    *:*) bm_time "${1%%:*}" "${1#*:}" ;;
    *.*) run=${1%%.*}; rest=${1#*.}; run_field "$run" "${rest%%.*}" "${rest#*.}" ;;
    *) if [ -f "$work/$1" ]; then cat "$work/$1"; fi ;;
  esac
}

# ratio <a> <b>: a / b, nothing unless both are positive.
ratio() {
  awk -v a="$1" -v b="$2" 'BEGIN { if (a > 0 && b > 0) printf "%.6g", a / b }'
}

# run_bm <binary> <record> <repetitions> <filter> [flag]: runs one
# sweep into BENCH_<record>.json.  The old record goes first, so a binary
# that fails leaves its benchmarks missing rather than stale.
run_bm() {
  out="$repo_root/BENCH_$2.json"
  rm -f "$out"
  "$build_dir/bench/$1" --benchmark_filter="$4" --benchmark_out="$out" \
      --benchmark_out_format=json --benchmark_repetitions="$3" \
      ${5:+"$5"} || echo "bench: $1 ($2) exited $?" >&2
}

# run_serve <name> <connections> <requests> <batch>: starts a fresh server
# (so each miss phase is a real cold cache), runs loadgen against it and
# stops it; the run's JSON lands at $work/<name>.json.
run_serve() {
  rm -f "$work/port"
  "$build_dir/tools/rootstore" serve --port 0 --threads 4 --cache 1024 \
      --port-file "$work/port" > "$work/$1.serve.log" 2>&1 &
  server_pid=$!
  i=0
  while [ ! -s "$work/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 600 ] || ! kill -0 "$server_pid" 2>/dev/null; then
      echo "bench: $1 server failed to start" >&2
      cat "$work/$1.serve.log" >&2
      server_pid=""
      return 1
    fi
    sleep 0.1
  done
  "$build_dir/tools/serve_loadgen" --port "$(cat "$work/port")" \
      --connections "$2" --requests "$3" --batch "$4" \
      --json-out "$work/$1.json" || echo "bench: $1 loadgen exited $?" >&2
  kill -INT "$server_pid"
  status=0
  wait "$server_pid" || status=$?
  server_pid=""
  if [ "$status" -ne 0 ]; then
    echo "bench: $1 server exited $status after SIGINT" >&2
    cat "$work/$1.serve.log" >&2
    rm -f "$work/$1.json"
  fi
}

cmake --build "$build_dir" -j "$ncpu" --target perf_analysis perf_persist \
    perf_verify perf_landscape rootstore serve_loadgen

run_bm perf_analysis parallel 1 'BM_JaccardMatrixParallel|BM_MdsSmacofParallel'
run_bm perf_analysis obs 3 \
    'BM_JaccardMatrixObs|BM_StalenessObs|BM_JaccardMatrixInterned/40|BM_StalenessAllDerivatives' \
    --benchmark_report_aggregates_only=true
# Medians of 3: a single repetition of the cold-start ratio read 19.5x
# against its 20x floor in 1 of 17 runs on a shared 4-CPU host (median 31x).
run_bm perf_persist incremental 3 \
    'BM_ColdStartRebuild|BM_ColdStartLoad|BM_ColdStartLoadFile|BM_FullRecompute|BM_AppendOneSnapshot' \
    --benchmark_report_aggregates_only=true
run_bm perf_verify verify 1 \
    'BM_VerifyChainStraight|BM_VerifyChainDeep|BM_VerifyChainCrossSign|BM_EngineVerifyChain|BM_FirstRejectedAtBreakpoints|BM_FirstRejectedAtLinearScan'
run_bm perf_landscape landscape 1 \
    'BM_AgreementMatrixIdSet$|BM_AgreementMatrixNaive'

# 25600 requests per run: shorter runs (~50 ms) let warm-up noise swamp
# the ratios.  The unrecorded warm-up comes first because the first server
# of an invocation runs on a cold host: in 16 runs without it, its miss
# throughput read up to 3x low and its hit throughput up to 1.9x high in 4
# of them, moving the denominator of both G1 and G2.
run_serve warmup        4 25600 1  || true
for pair in "" _2 _3; do
  run_serve "epoll_4$pair"   4 25600 1 || true
  run_serve "epoll_64$pair" 64 25600 1 || true
done
run_serve epoll_batch16 4 25600 16 || true

# G1 reads the median of the three pairs' ratios; a missing run leaves it
# missing.
g1_runs=""
for pair in "" _2 _3; do
  r=$(ratio "$(measure "epoll_64$pair.miss_phase.throughput_rps")" \
            "$(measure "epoll_4$pair.miss_phase.throughput_rps")")
  printf 'G1 pair epoll_64%s/epoll_4%s miss rps: %s\n' \
    "$pair" "$pair" "${r:-missing}"
  g1_runs="$g1_runs ${r:-missing}"
done
case $g1_runs in
  *missing*) ;;
  *) printf '%s\n' $g1_runs | sort -g | sed -n 2p > "$work/g1_median" ;;
esac

{
  printf '{\n  "benchmark": "serve_transports",\n  "num_cpus": %s,\n' "$ncpu"
  for run in epoll_4 epoll_64 epoll_batch16; do
    printf '  "%s": ' "$run"
    if [ -s "$work/$run.json" ]; then
      sed '1!s/^/  /; $s/$/,/' "$work/$run.json"
    else
      printf 'null,\n'
    fi
  done
  g1=$(measure g1_median)
  p999=$(measure epoll_64.miss_phase.p999_us)
  ceiling=$(printf '%s\n' "$GATES" | awk '$1 == "G3" { print $NF }')
  g2=$(ratio "$(measure epoll_batch16.hit_phase.throughput_rps)" \
             "$(measure epoll_4.hit_phase.throughput_rps)")
  printf '  "epoll64_over_epoll4_miss": %s,\n' "${g1:-null}"
  printf '  "epoll64_over_epoll4_miss_pairs": [%s],\n' \
    "$(printf '%s\n' $g1_runs | sed 's/missing/null/' | paste -sd, -)"
  printf '  "epoll64_miss_p999_us": %s,\n' "${p999:-null}"
  printf '  "epoll64_miss_p999_ceiling_us": %s,\n' "$ceiling"
  printf '  "batch16_over_singleton_hit": %s\n}\n' "${g2:-null}"
} > "$repo_root/BENCH_serve.json"

echo "--- report only: 1-vs-N worker real-time speedups (BENCH_parallel.json)"
for b in BM_JaccardMatrixParallel BM_MdsSmacofParallel; do
  serial=$(bm_time parallel "$b/0/process_time/real_time")
  for w in 1 2 4 8; do
    printf '%s: %d worker(s) -> %sx vs serial\n' "$b" "$w" \
      "$(ratio "$serial" "$(bm_time parallel "$b/$w/process_time/real_time")")"
  done
done

echo "--- report only: observability overhead, medians of 3 (BENCH_obs.json)"
while read -r label plain obs; do
  base=$(bm_time obs "${plain}_median")
  off=$(bm_time obs "$obs/0_median")
  on=$(bm_time obs "$obs/1_median")
  awk -v l="$label" -v base="$base" -v off="$off" -v on="$on" 'BEGIN {
    if (base > 0 && off > 0)
      printf "%s disabled-instrumentation overhead: %+.2f%%\n", l,
             100 * (off / base - 1)
    if (off > 0 && on > 0)
      printf "%s tracing-enabled overhead:          %+.2f%%\n", l,
             100 * (on / off - 1)
  }'
done <<EOF
jaccard BM_JaccardMatrixInterned/40 BM_JaccardMatrixObs
staleness BM_StalenessAllDerivatives BM_StalenessObs
EOF

echo "--- gates"
failed=""
while read -r gate num den op bound; do
  [ -n "$gate" ] || continue
  value=$(measure "$num")
  [ "$den" = - ] || value=$(ratio "$value" "$(measure "$den")")
  if awk -v v="$value" -v op="$op" -v b="$bound" 'BEGIN {
       exit !(v > 0 && (op == ">=" ? v + 0 >= b + 0 : v + 0 <= b + 0)) }'; then
    verdict=ok
  else
    verdict=MISSED
    failed="$failed $gate"
  fi
  printf '%-12s %12s %s %-6s %s\n' \
    "$gate" "${value:-missing}" "$op" "$bound" "$verdict"
done <<EOF
$GATES
EOF

if [ -n "$failed" ]; then
  echo "bench: gates MISSED:$failed" >&2
  exit 1
fi
echo "bench: all gates passed; wrote" \
     "BENCH_{parallel,obs,incremental,verify,landscape,serve}.json"
