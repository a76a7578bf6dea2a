#!/bin/sh
# Runs the sharded-topology serving benchmark (BenchmarkShardServe:
# one leader executing a mixed spanning / shard-local workload through
# its concurrent-round pipeline versus a root coordinator fanning the
# same queries out to two regional leaders, with node rounds carrying
# a fixed modeled remote service time) and renders the results as
# BENCH_shard.json at the repo root.
#
#   BENCHTIME=100ms sh scripts/bench_shard.sh   # CI smoke
#   sh scripts/bench_shard.sh                   # local, default 1s/op
#
# It prints the 2-region / single-leader throughput ratio but does not
# gate on it: both topologies overlap their node rounds, and on
# this 8-node fleet they serve at about the same rate. The script
# exits non-zero only when a topology row is missing.
set -eu

cd "$(dirname "$0")/.."
benchtime="${BENCHTIME:-1s}"

out=$(go test -run '^$' -bench '^BenchmarkShardServe$' -benchmem -benchtime "$benchtime" ./internal/region/)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk '
  BEGIN { printf "[\n" }
  $1 ~ /^BenchmarkShardServe/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns_op = ""; bytes_op = ""; allocs_op = ""
    for (i = 3; i <= NF; i++) {
      if ($i == "ns/op")     ns_op = $(i-1)
      if ($i == "B/op")      bytes_op = $(i-1)
      if ($i == "allocs/op") allocs_op = $(i-1)
    }
    if (ns_op == "") next
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, ns_op
    if (bytes_op != "")  printf ", \"bytes_per_op\": %s", bytes_op
    if (allocs_op != "") printf ", \"allocs_per_op\": %s", allocs_op
    printf "}"
    ns[name] = ns_op
  }
  END {
    printf "\n]\n"
    s = "BenchmarkShardServe/topology=single"
    r = "BenchmarkShardServe/topology=2region"
    if (!(s in ns) || !(r in ns)) {
      printf "MISSING CASES: single and 2region topologies did not both run\n" > "/dev/stderr"
      exit 1
    }
    ratio = (ns[s] + 0) / (ns[r] + 0)
    printf "bench_shard: 2-region serves %.2fx single-leader throughput\n", ratio > "/dev/stderr"
  }
' > BENCH_shard.json

count=$(grep -c '"name"' BENCH_shard.json)
echo "bench_shard: wrote BENCH_shard.json ($count results, benchtime $benchtime)"
