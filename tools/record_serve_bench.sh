#!/bin/sh
# Records the serving-layer benchmark into BENCH_serve.json.
#
# Three runs, every one against a FRESH server so each miss phase is a real
# cold cache, all recorded in the same invocation so the gates below never
# compare numbers from different machines or commits:
#
#   epoll_4       4 connections
#   epoll_64      64 connections (the contention phase: 64 sockets
#                 multiplexed over 4 event loops)
#   epoll_batch16 4 connections, 16 queries per batch envelope (per-QUERY
#                 throughput, so the ratio to epoll_4 is the
#                 syscall-amortization win)
#
# Gates (hard failures, so CI catches a serve-layer regression):
#   G1  epoll_64 miss throughput >= 0.7x epoll_4 miss throughput — 16x the
#       connections over the same 4 loops must not collapse throughput.
#   G2  epoll_batch16 hit throughput >= 2.0x epoll_4 hit throughput — the
#       cached path is syscall-bound, so batching must amortize visibly.
#   G3  epoll_64 miss p99.9 <= P999_CEILING_US — the tail at 64
#       connections stays bounded.  50 ms is ~2x the worst of 32 runs on a
#       shared 4-CPU host (9.0-25.5 ms, median 15.1 ms; CHANGES.md lists
#       them); the thread-per-connection transport this server replaced
#       read 85-121 ms there, so G3 catches a regression of that class.
#
# The 0.7 floor in G1 absorbs per-phase scheduler noise on a shared host;
# docs/SERVING.md records the interpretation.  Measured ratios land in the
# JSON either way.
#
# Usage: tools/record_serve_bench.sh [build-dir] [out-file]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-"$repo_root/build"}"
out_file="${2:-"$repo_root/BENCH_serve.json"}"

rootstore="$build_dir/tools/rootstore"
loadgen="$build_dir/tools/serve_loadgen"
for bin in "$rootstore" "$loadgen"; do
  if [ ! -x "$bin" ]; then
    echo "record_serve_bench: $bin missing; build rootstore and" >&2
    echo "serve_loadgen first" >&2
    exit 2
  fi
done

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# G3's ceiling in microseconds (see the header).
P999_CEILING_US=50000

# run_one <name> <connections> <requests> <batch>
# Starts a fresh server, runs loadgen, stops the server, leaves the
# per-run JSON at $workdir/<name>.json.
run_one() {
  name="$1"; conns="$2"; reqs="$3"; batch="$4"
  rm -f "$workdir/port"
  "$rootstore" serve --port 0 --threads 4 --cache 1024 \
      --port-file "$workdir/port" > "$workdir/$name.serve.log" 2>&1 &
  server_pid=$!
  i=0
  while [ ! -s "$workdir/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 600 ] || ! kill -0 "$server_pid" 2>/dev/null; then
      echo "record_serve_bench: $name server failed to start" >&2
      cat "$workdir/$name.serve.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  port=$(cat "$workdir/port")
  "$loadgen" --port "$port" --connections "$conns" --requests "$reqs" \
      --batch "$batch" --json-out "$workdir/$name.json"
  kill -INT "$server_pid"
  status=0
  wait "$server_pid" || status=$?
  server_pid=""
  if [ "$status" -ne 0 ]; then
    echo "record_serve_bench: $name server exited $status after SIGINT" >&2
    cat "$workdir/$name.serve.log" >&2
    exit 1
  fi
}

# Gate-feeding phases run 25600 requests: short phases (~50 ms) let
# warm-up noise swamp the ratios on a shared CI core.
# The first server of an invocation runs on a cold host: in 16 runs
# without this unrecorded warm-up, its miss throughput read up to 3x low
# and its hit throughput up to 1.9x high in 4 of them, moving the
# denominator of both G1 and G2.
run_one warmup        4 25600 1
run_one epoll_4       4 25600 1
run_one epoll_64     64 25600 1
run_one epoll_batch16 4 25600 16

# phase_field <file> <phase> <field>: extracts a numeric field from the
# phase line (e.g. throughput_rps, p999_us).
phase_field() {
  awk -v phase="\"$2\"" -F"\"$3\": " \
    '$0 ~ phase {split($2, a, "[,}]"); print a[1]}' "$1"
}

e4_miss=$(phase_field "$workdir/epoll_4.json" miss_phase throughput_rps)
e64_miss=$(phase_field "$workdir/epoll_64.json" miss_phase throughput_rps)
e64_p999=$(phase_field "$workdir/epoll_64.json" miss_phase p999_us)
e4_hit=$(phase_field "$workdir/epoll_4.json" hit_phase throughput_rps)
b16_hit=$(phase_field "$workdir/epoll_batch16.json" hit_phase throughput_rps)

# Compose the committed record: the three recorded runs plus the gate
# figures.
{
  printf '{\n  "benchmark": "serve_transports",\n'
  for name in epoll_4 epoll_64 epoll_batch16; do
    printf '  "%s": ' "$name"
    sed 's/^/  /' "$workdir/$name.json" | sed '1s/^  //'
    printf ',\n'
  done | sed 's/^\(  },\)$/\1/'
  awk -v e4="$e4_miss" -v e64="$e64_miss" -v p999="$e64_p999" \
      -v ceiling="$P999_CEILING_US" -v e4h="$e4_hit" -v b16="$b16_hit" \
    'BEGIN {
       printf "  \"epoll64_over_epoll4_miss\": %.2f,\n", (e4 > 0 ? e64 / e4 : 0)
       printf "  \"epoll64_miss_p999_us\": %.1f,\n", p999
       printf "  \"epoll64_miss_p999_ceiling_us\": %d,\n", ceiling
       printf "  \"batch16_over_singleton_hit\": %.2f\n", (e4h > 0 ? b16 / e4h : 0)
     }'
  printf '}\n'
} > "$out_file"

# Gates.
awk -v e4="$e4_miss" -v e64="$e64_miss" 'BEGIN { exit !(e64 >= 0.7 * e4) }' || {
  echo "record_serve_bench: GATE G1 FAILED — epoll@64conns miss ${e64_miss} rps" >&2
  echo "is below 0.7x epoll@4conns miss ${e4_miss} rps (same-run)" >&2
  exit 1
}
awk -v p="$e64_p999" -v c="$P999_CEILING_US" 'BEGIN { exit !(p > 0 && p <= c) }' || {
  echo "record_serve_bench: GATE G3 FAILED — epoll@64conns miss p99.9" >&2
  echo "${e64_p999} us exceeds the ${P999_CEILING_US} us ceiling" >&2
  exit 1
}
awk -v e4h="$e4_hit" -v b16="$b16_hit" 'BEGIN { exit !(b16 >= 2.0 * e4h) }' || {
  echo "record_serve_bench: GATE G2 FAILED — batch-16 hit ${b16_hit} rps/query" >&2
  echo "is below 2.0x singleton hit ${e4_hit} rps (same-run)" >&2
  exit 1
}

echo "record_serve_bench: wrote $out_file (epoll64/epoll4 miss $(awk -v a="$e64_miss" -v b="$e4_miss" 'BEGIN{printf "%.2f", (b>0 ? a/b : 0)}')x, epoll64 miss p99.9 ${e64_p999} us <= ${P999_CEILING_US} us, batch16/singleton hit $(awk -v a="$b16_hit" -v b="$e4_hit" 'BEGIN{printf "%.2f", (b>0 ? a/b : 0)}')x)"
