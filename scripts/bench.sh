#!/bin/sh
# bench.sh — run the evaluation-pipeline benchmarks and emit a JSON
# snapshot: {"benchmarks": [{"name", "ns_op", "b_op", "allocs_op"}, ...],
# "cpu", "goos", "goarch"}. Output is deterministic in structure
# (benchmarks appear in execution order) so snapshots diff cleanly.
#
# Usage:
#   scripts/bench.sh [out.json [prev.json]]
#   scripts/bench.sh compare now.json prev.json
#   scripts/bench.sh merge before.json after.json out.json [pr [title [note]]]
#
# The first form runs the suite, writes out.json, and prints a
# prev-vs-now table. prev.json defaults to the newest checked-in
# BENCH_pr*.json (whose "after" numbers are used); pass "none" to skip
# the comparison. A missing prior snapshot is tolerated: fresh clones
# have nothing to diff yet.
#
# The comparison doubles as a regression gate: the script exits nonzero
# when any benchmark's ns/op regressed by more than
# BENCH_FAIL_THRESHOLD percent (default 20) against the prior snapshot.
# CI sets BENCH_FAIL_THRESHOLD=100 (only a 2x slowdown fails) because
# shared runners are noisy; locally the tighter default catches real
# regressions before they are committed.
#
# The second form runs nothing: it joins two flat snapshots by benchmark
# name into the checked-in BENCH_pr*.json schema, where each entry has
# nullable "before" and "after" objects (null = the benchmark did not
# exist on that side).
set -eu

# flatten_json emits "name ns b allocs" per benchmark line of a snapshot,
# preferring the "after" object when one is present (merged snapshots).
flatten_json() {
	awk '
		function field(src, key,   m) {
			if (!match(src, "\"" key "\": *[0-9.eE+-]+")) return ""
			m = substr(src, RSTART, RLENGTH)
			sub("\"" key "\": *", "", m)
			return m
		}
		/"name":/ {
			line = $0
			match(line, /"name": *"[^"]*"/)
			name = substr(line, RSTART, RLENGTH)
			gsub(/"name": *"|"/, "", name)
			src = line
			if (match(line, /"after": *\{[^}]*\}/))
				src = substr(line, RSTART, RLENGTH)
			else if (index(line, "\"after\": null"))
				next
			ns = field(src, "ns_op"); b = field(src, "b_op"); al = field(src, "allocs_op")
			if (ns != "") print name, ns, b, al
		}
	' "$1"
}

# compare_snapshots <now.json> <prev.json>: print the prev-vs-now table
# and return nonzero when any benchmark's ns/op regressed past
# BENCH_FAIL_THRESHOLD percent. A prior entry with a zero or unparsable
# ns/op is reported as informational and never gates: dividing by it is
# meaningless, and a zero almost always means a truncated or hand-edited
# snapshot rather than an infinitely fast benchmark.
compare_snapshots() {
	cnow=$1 cprev=$2 crc=0
	echo "comparing against $cprev (fail threshold ${BENCH_FAIL_THRESHOLD:-20}%)"
	cflat=$(mktemp)
	flatten_json "$cprev" >"$cflat"
	flatten_json "$cnow" | awk -v prevfile="$cflat" -v prevname="$cprev" -v thr="${BENCH_FAIL_THRESHOLD:-20}" '
		BEGIN {
			while ((getline line < prevfile) > 0) {
				split(line, f, " ")
				pns[f[1]] = f[2]; pal[f[1]] = f[4]
			}
			close(prevfile)
			printf "%-40s %12s %12s %8s\n", "benchmark", "prev ns/op", "now ns/op", "allocs"
		}
		{
			if ($1 in pns) {
				flag = ""
				if (pns[$1] + 0 <= 0) {
					flag = "  (prior ns/op missing or 0; informational)"
				} else if ($2 / pns[$1] > 1 + thr / 100) {
					flag = "  << REGRESSION"
					bad++
				}
				printf "%-40s %12s %12s %4s->%s%s\n", $1, pns[$1], $2, pal[$1], $4, flag
			} else {
				printf "%-40s %12s %12s %8s (new)\n", $1, "-", $2, $4
			}
		}
		END {
			if (bad > 0) {
				printf "FAIL: %d benchmark(s) regressed more than %s%% vs %s\n", bad, thr, prevname
				exit 1
			}
			printf "OK: no benchmark regressed more than %s%%\n", thr
		}
	' || crc=$?
	rm -f "$cflat"
	return $crc
}

if [ "${1:-}" = "compare" ]; then
	[ $# -eq 3 ] || { echo "usage: $0 compare now.json prev.json" >&2; exit 2; }
	compare_snapshots "$2" "$3"
	exit $?
fi

if [ "${1:-}" = "merge" ]; then
	[ $# -ge 4 ] || { echo "usage: $0 merge before.json after.json out.json [pr [title [note]]]" >&2; exit 2; }
	before=$2 after=$3 out=$4 pr=${5:-0} title=${6:-} note=${7:-}
	bflat=$(mktemp) && trap 'rm -f "$bflat" "$aflat"' EXIT
	aflat=$(mktemp)
	flatten_json "$before" >"$bflat"
	flatten_json "$after" >"$aflat"
	awk -v beforefile="$bflat" -v afterjson="$after" \
		-v pr="$pr" -v title="$title" -v note="$note" '
		function obj(ns, b, al) { return "{\"ns_op\": " ns ", \"b_op\": " b ", \"allocs_op\": " al "}" }
		BEGIN {
			while ((getline line < beforefile) > 0) {
				split(line, f, " ")
				bns[f[1]] = f[2]; bb[f[1]] = f[3]; bal[f[1]] = f[4]
			}
			close(beforefile)
			cpu = goos = goarch = ""
			while ((getline line < afterjson) > 0) {
				if (match(line, /"cpu": *"[^"]*"/)) { cpu = substr(line, RSTART, RLENGTH); gsub(/"cpu": *"|"/, "", cpu) }
				if (match(line, /"goos": *"[^"]*"/)) { goos = substr(line, RSTART, RLENGTH); gsub(/"goos": *"|"/, "", goos) }
				if (match(line, /"goarch": *"[^"]*"/)) { goarch = substr(line, RSTART, RLENGTH); gsub(/"goarch": *"|"/, "", goarch) }
			}
			close(afterjson)
			printf "{\n  \"pr\": %s,\n  \"title\": \"%s\",\n", pr, title
			printf "  \"cpu\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n", cpu, goos, goarch
			printf "  \"note\": \"%s\",\n  \"benchmarks\": [\n", note
		}
		{
			if (n++) printf ",\n"
			prev = ($1 in bns) ? obj(bns[$1], bb[$1], bal[$1]) : "null"
			printf "    {\"name\": \"%s\", \"before\": %s, \"after\": %s}", $1, prev, obj($2, $3, $4)
		}
		END { printf "\n  ]\n}\n" }
	' "$aflat" >"$out"
	echo "wrote $out"
	exit 0
fi

out=${1:-BENCH_run.json}
prev=${2:-}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -benchmem -benchtime 300ms \
	-bench 'BenchmarkEvaluate$|BenchmarkProbe$|BenchmarkEvaluateAlloc$|BenchmarkEvaluateLarge$|BenchmarkGradient$|BenchmarkGradientAlloc$|BenchmarkGradientLarge$|BenchmarkFleetGradient$|BenchmarkChainSolve$|BenchmarkOptimizerIteration$|BenchmarkShardedOptimizeBest$' \
	. >"$tmp"
go test -run '^$' -benchmem -benchtime 300ms \
	-bench 'BenchmarkLineSearchStep' ./internal/descent/ >>"$tmp"

awk '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^goos:/ { goos = $2 }
	/^goarch:/ { goarch = $2 }
	/^Benchmark.*allocs\/op/ {
		name = $1
		sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
		for (i = 2; i <= NF; i++) {
			if ($(i) == "ns/op") ns = $(i - 1)
			if ($(i) == "B/op") bytes = $(i - 1)
			if ($(i) == "allocs/op") allocs = $(i - 1)
		}
		if (n++) printf ",\n"
		printf "    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", \
			name, ns, bytes, allocs
	}
	END {
		printf "\n  ],\n"
		printf "  \"cpu\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\"\n}\n", cpu, goos, goarch
	}
	BEGIN { printf "{\n  \"benchmarks\": [\n" }
' "$tmp" >"$out"

echo "wrote $out"

if [ "$prev" = "none" ]; then
	exit 0
fi
# Pick the newest checked-in snapshot when none was named explicitly.
if [ -z "$prev" ]; then
	for f in BENCH_pr*.json; do
		[ -e "$f" ] && prev=$f
	done
fi
if [ -z "$prev" ] || [ ! -r "$prev" ]; then
	echo "no prior BENCH_*.json snapshot found; skipping comparison"
	exit 0
fi

compare_snapshots "$out" "$prev"
