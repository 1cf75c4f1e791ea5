#!/bin/sh
# bench.sh — run the benchmark suite and record a JSON summary so the
# bench trajectory is tracked in-repo under results/.
#
# usage: scripts/bench.sh [pattern] [count]
#   pattern   go test -bench regexp (default: .)
#   count     repetitions per benchmark (default: 3)
# env:
#   BENCH_OUT        output path (default: results/BENCH_<YYYY-MM-DD>.json)
#   BENCHTIME        forwarded as -benchtime when set (e.g. 1x for a smoke run)
#   BENCH_STORE      telemetry store dir for ingestion (default: results/telemetry)
#   BENCH_THRESHOLD  regression gate passed to pcfbench (default: 0.20)
#
# The JSON records, per benchmark (mean over count runs): ns/op,
# B/op, allocs/op, and any custom b.ReportMetric units. After writing
# the summary, cmd/pcfbench ingests it into the telemetry store as
# kind=bench records and fails the run when a benchmark regressed more
# than the threshold against its previous stored record (a fresh store
# never gates).
set -eu

cd "$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd -P)"

pattern="${1:-.}"
count="${2:-3}"
date_tag="$(date +%Y-%m-%d)"
out="${BENCH_OUT:-results/BENCH_${date_tag}.json}"
mkdir -p "$(dirname -- "$out")"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

set -- -run '^$' -bench "$pattern" -benchmem -count "$count"
if [ -n "${BENCHTIME:-}" ]; then
	set -- "$@" -benchtime "$BENCHTIME"
fi
# The root package holds the paper's exhibits and most ablations;
# internal/core holds the dualize-vs-cuts ablation, which needs the
# test-side dualizer.
go test "$@" . ./internal/core | tee "$tmp"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

awk -v date="$date_tag" -v commit="$commit" -v count="$count" \
	-v goversion="$(go env GOVERSION)" '
/^Benchmark/ && NF >= 4 {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
	if (!(name in seen)) { seen[name] = 1; order[++n] = name }
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		sum[name, unit] += $i
		cnt[name, unit]++
		if (!((name, unit) in useen)) {
			useen[name, unit] = 1
			units[name] = units[name] SUBSEP unit
		}
	}
}
END {
	printf "{\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"count\": %d,\n", count
	printf "  \"benchmarks\": [\n"
	for (k = 1; k <= n; k++) {
		name = order[k]
		printf "    {\"name\": \"%s\"", name
		m = split(substr(units[name], 2), us, SUBSEP)
		for (j = 1; j <= m; j++) {
			unit = us[j]
			mean = sum[name, unit] / cnt[name, unit]
			key = unit
			if (unit == "ns/op") key = "ns_per_op"
			else if (unit == "B/op") key = "bytes_per_op"
			else if (unit == "allocs/op") key = "allocs_per_op"
			else gsub(/[^A-Za-z0-9_]/, "_", key)
			printf ", \"%s\": %.6g", key, mean
		}
		printf "}%s\n", (k < n ? "," : "")
	}
	printf "  ]\n}\n"
}
' "$tmp" >"$out"

echo "bench summary written to $out"

store="${BENCH_STORE:-results/telemetry}"
go run ./cmd/pcfbench -in "$out" -store "$store" -threshold "${BENCH_THRESHOLD:-0.20}"
