#!/usr/bin/env bash
# Runs the benchmark suites with allocation reporting and records the
# repo's perf trajectory as JSON:
#
#   BENCH_thermal.json — the compiled thermal-network stepper (the hot
#                        loop every experiment bottoms out in) and the
#                        PCM enthalpy inversion per phase (FlatSolve)
#   BENCH_fleet.json   — the dcsim fluid loop and the sharded fleet epochs
#                        built on top of it: the compiled-kernel scaling
#                        matrix (racks=32/1k/10k x workers), the
#                        million-server two-day witness, and the
#                        flight-recorder on/off pair
#   BENCH_autoscale.json — the paired control-loop-on/off fleet run; its
#                        overhead-pct metric is the autoscaler's epoch-loop
#                        cost with the clock drift cancelled (target < 5%)
#   BENCH_scenario.json — the scenario parse path: serve.ParseRequest on a
#                        corpus-name hit, an inline source and table2;
#                        scenario.Named on the warm corpus memo; and a
#                        cold GenSpec.Build for a two-day and a one-year
#                        corpus workload
#   BENCH_paper.json   — the root paper benchmarks: the Figure 10 trace,
#                        the Figure 11 cooling and Figure 12 throughput
#                        studies per machine class, and the Table 2 TCO
#                        scenarios
#   BENCH_serve.json   — a ttsimload overload run against a spawned
#                        ttsimd: client-observed p50/p99 latency and the
#                        shed rate (shape documented at the bottom)
#
# Each benchmark contributes ONE record — the median across the COUNT
# repetitions — so trend tooling compares like with like instead of
# whichever repetition happened to land first:
#
#   {"name", "ns_per_op", "allocs_per_op", "overhead_pct", "reps"}
#
# overhead_pct is null for every benchmark that does not report the
# custom overhead-pct metric.
#
# The raw per-repetition records are kept alongside in
# BENCH_<suite>.raw.json (same shape, one record per repetition) for
# variance analysis; CI uploads both as artifacts.
#
# Usage: scripts/bench.sh
# Env:   COUNT     repetitions per benchmark (default 5)
#        BENCHTIME go -benchtime value (default 1s; CI uses 1x)
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-1s}"

# bench OUT PATTERN PKG... runs the benchmarks matching PATTERN.
bench() {
  local out="$1" pattern="$2"
  shift 2
  local raw="${out%.json}.raw.json"
  local txt
  txt=$(go test -run='^$' -bench="$pattern" -benchmem -count="$COUNT" -benchtime="$BENCHTIME" "$@")
  echo "$txt"
  echo "$txt" | awk '
    BEGIN { print "["; sep = "  " }
    /^Benchmark/ {
      ns = ""; allocs = ""; over = "";
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1);
        if ($i == "allocs/op") allocs = $(i - 1);
        if ($i == "overhead-pct") over = $(i - 1);
      }
      if (ns == "") next;
      if (allocs == "") allocs = "null";
      if (over == "") over = "null";
      printf "%s{\"name\":\"%s\",\"ns_per_op\":%s,\"allocs_per_op\":%s,\"overhead_pct\":%s}", sep, $1, ns, allocs, over;
      sep = ",\n  ";
    }
    END { print "\n]" }
  ' >"$raw"
  echo "$txt" | awk '
    # median sorts the c values stored under (name,1..c) and returns the
    # middle one (mean of the middle two for even c).
    function median(name, vals, c,   i, j, t, a) {
      for (i = 1; i <= c; i++) a[i] = vals[name, i] + 0
      for (i = 1; i < c; i++)
        for (j = i + 1; j <= c; j++)
          if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
      if (c % 2) return a[(c + 1) / 2]
      return (a[c / 2] + a[c / 2 + 1]) / 2
    }
    /^Benchmark/ {
      ns = ""; allocs = ""; over = "";
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1);
        if ($i == "allocs/op") allocs = $(i - 1);
        if ($i == "overhead-pct") over = $(i - 1);
      }
      if (ns == "") next;
      if (!($1 in cnt)) order[++n] = $1
      cnt[$1]++
      nsv[$1, cnt[$1]] = ns
      if (allocs != "") { av[$1, cnt[$1]] = allocs; ac[$1]++ }
      if (over != "") { ov[$1, cnt[$1]] = over; oc[$1]++ }
    }
    END {
      print "["
      sep = "  "
      for (k = 1; k <= n; k++) {
        name = order[k]
        m = median(name, nsv, cnt[name])
        a = (ac[name] == cnt[name]) ? median(name, av, cnt[name]) : "null"
        o = (oc[name] == cnt[name]) ? median(name, ov, cnt[name]) : "null"
        printf "%s{\"name\":\"%s\",\"ns_per_op\":%s,\"allocs_per_op\":%s,\"overhead_pct\":%s,\"reps\":%d}", sep, name, m, a, o, cnt[name]
        sep = ",\n  "
      }
      print "\n]"
    }
  ' >"$out"
  echo "wrote $out (medians of $COUNT reps; raw in $raw)"
}

bench BENCH_thermal.json . ./internal/thermal/... ./internal/pcm/...
bench BENCH_fleet.json . ./internal/dcsim/... ./internal/fleet/...
bench BENCH_autoscale.json . ./internal/autoscale/...
bench BENCH_scenario.json . ./internal/serve/ ./internal/scenario/ ./internal/workload/
bench BENCH_paper.json '^Benchmark(Fig1[012]|Table2TCOScenarios)' .

# BENCH_serve.json — the serving layer under forced overload. ttsimload
# spawns an in-process ttsimd with a small pool and a tight per-client
# quota, floods it with mixed cached/uncached/greedy traffic, and records
# client-observed p50/p99 latency and the shed rate (429s per attempt).
# One record per run, different shape from the go-bench suites above:
#
#   {"duration_s", "attempts", "completed", "hits", "runs", "shed",
#    "gave_up", "errors", "retries", "shed_rate", "rps", "p50_ms", "p99_ms"}
#
# Env: LOAD_DURATION overload-run length (default 10s; CI uses 30s via
#      the dedicated smoke step).
go run ./cmd/ttsimload -duration "${LOAD_DURATION:-10s}" -seed 1 -out BENCH_serve.json
