#!/usr/bin/env bash
# Alternating A/B runs of the repository's benchmark on two commits:
#
#   bash tools/ab.sh <ref-A> <ref-B> [<workload>|all] [<pairs>]
#   make ab A=<ref> B=<ref> [W=<workload>|all] [PAIRS=10] [SEED=1]
#
# A is the parent, B the change. Both refs are checked out as detached
# worktrees under .bench_build/ab/ (removed again on exit) and each runs
# its own benchmark/run.sh, so the two sides share nothing but the
# machine. Pair p uses seed SEED+p-1 on both sides; A runs first on odd
# pairs, B on even ones. Raw outputs stay in .bench_build/ab/runs/. Runs
# last BENCHMARK.json's run_seconds; SECS=<n> shortens them for a smoke
# test of the script only, and the header line then says so.
#
# Per workload and end-to-end metric it prints both medians, the parent's
# interquartile spread as a share of its median, the pairs B won, the
# failed operations, and the verdict by the rule of docs/performance.md:
#
#   better             B wins at least nine pairs in ten (ties count for
#                      neither side), the medians differ by more than
#                      A's interquartile spread, and B failed no more
#                      operations than A
#   worse beyond bound B's median is worse than A's by more than the
#                      metric's bound in BENCHMARK.json
#   unresolved         A's spread is wider than the bound, and not every
#                      run of B reads better than every run of A
#   no worse           anything else
#
# Exits 1 when a verdict is "worse beyond bound", an operation failed or
# a metric has no result on one side.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,8p' "$0" >&2
	exit 2
fi
ref_a=$1 ref_b=$2 only=${3:-all} pairs=${4:-10}
seed0=${SEED:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
spec="$root/BENCHMARK.json"
run_seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")
secs=${SECS:-$run_seconds}

# The names in one array of BENCHMARK.json, in file order.
spec_names() {
	awk -v want="$1" '
		/^  "[a-z_]+": \[/ { sec = $1; gsub(/[":]/, "", sec) }
		sec == want && /"name":/ { gsub(/[",]/, "", $2); print $2 }' "$spec"
}
if [ "$only" = all ]; then
	workloads=$(spec_names workloads)
else
	workloads=$only
fi

ab="$root/.bench_build/ab"
runs="$ab/runs"
drop_worktrees() {
	for side in A B; do
		git worktree remove --force "$ab/$side" 2>/dev/null || rm -rf "$ab/$side"
	done
	git worktree prune
}
drop_worktrees
trap drop_worktrees EXIT
mkdir -p "$runs"
rm -f "$runs"/*
git worktree add --quiet --detach "$ab/A" "$(git rev-parse --verify "$ref_a^{commit}")"
git worktree add --quiet --detach "$ab/B" "$(git rev-parse --verify "$ref_b^{commit}")"

# run_side <side> <workload> <pair>: one run of that side's own
# benchmark; appends "workload pair side metric value" rows for the
# statistics below. A run that exits non-zero, prints no result line or
# prints "correct":false counts as at least one failed operation, whatever
# its own count says.
table="$runs/table.txt"
run_side() {
	local side=$1 w=$2 p=$3 seed=$((seed0 + $3 - 1))
	local out="$runs/$w.$p.$side.txt"
	echo "# $w pair $p/$pairs side $side seed $seed" >&2
	local rc=0
	(cd "$ab/$side" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0) \
		>"$out" 2>"$out.err" || rc=$?
	local json failed
	json=$(grep '^{"correct"' "$out" | tail -n 1 || true)
	if [ -z "$json" ]; then
		echo "$w $p $side failed 1" >>"$table"
		return
	fi
	failed=$(echo "$json" | sed 's/.*"failed":\([0-9]*\).*/\1/')
	case $json in '{"correct":true,'*) ;; *) rc=1 ;; esac
	if [ "$rc" -ne 0 ] && [ "$failed" -eq 0 ]; then failed=1; fi
	echo "$w $p $side failed $failed" >>"$table"
	# A failed run may carry no metrics at all; grep finding none is not an error.
	{ echo "$json" | grep -o '"[a-z_0-9]*":{"value":[^,]*' || true; } |
		sed "s/^\"\([a-z_0-9]*\)\":{\"value\":\(.*\)/$w $p $side \1 \2/" >>"$table"
}

for w in $workloads; do
	for p in $(seq 1 "$pairs"); do
		if [ $((p % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
		for side in $order; do run_side "$side" "$w" "$p"; done
	done
done

smoke=
if [ "$secs" != "$run_seconds" ]; then smoke=" (smoke: the benchmark runs $run_seconds s, these verdicts support no claim)"; fi
echo "# A = $ref_a, B = $ref_b, $pairs pairs, seeds $seed0..$((seed0 + pairs - 1)), $secs s$smoke"
awk -v workloads="$workloads" -v pairs="$pairs" '
	function sorted(src, n, dst,    i, j, t) {
		for (i = 1; i <= n; i++) dst[i] = src[i]
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && dst[j-1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j-1]; dst[j-1] = t }
	}
	# Order statistic at 1-based rank pos, interpolated, clamped to the ends.
	function at(s, n, pos,    j) {
		j = int(pos)
		if (j < 1) return s[1]
		if (j >= n) return s[n]
		return s[j] + (pos - j) * (s[j+1] - s[j])
	}
	# The spec first: each end-to-end metric with its direction and bound.
	FNR == NR {
		if ($0 ~ /^  "[a-z_]+": \[/) { sec = $1; gsub(/[":]/, "", sec) }
		if (sec != "end_to_end") next
		gsub(/[",]/, "", $2)
		if ($1 == "\"name\":") { name = $2; metrics[++nm] = name }
		if ($1 == "\"better\":") lower[name] = ($2 == "lower")
		if ($1 == "\"bound\":") bound[name] = $2
		next
	}
	$4 == "failed" { failed[$1, $3] += $5; next }
	{ val[$1, $4, $3, $2] = $5 + 0 }
	END {
		nw = split(workloads, ws, " ")
		for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) {
			w = ws[wi]; m = metrics[mi]
			na = nb = wins = losses = 0
			for (p = 1; p <= pairs; p++) {
				ha = ((w, m, "A", p) in val); hb = ((w, m, "B", p) in val)
				if (ha) a[++na] = val[w, m, "A", p]
				if (hb) b[++nb] = val[w, m, "B", p]
				if (!ha || !hb) continue
				d = val[w, m, "B", p] - val[w, m, "A", p]
				if (!lower[m]) d = -d
				if (d < 0) wins++; else if (d > 0) losses++
			}
			fails = sprintf("failed A %d B %d", failed[w, "A"], failed[w, "B"])
			if (failed[w, "A"] + failed[w, "B"] > 0) bad = 1
			if (na == 0 || nb == 0) { printf "%-13s %-17s no result  %s\n", w, m, fails; bad = 1; continue }
			sorted(a, na, sa); sorted(b, nb, sb)
			ma = at(sa, na, (na + 1) / 2); mb = at(sb, nb, (nb + 1) / 2)
			# Quartiles as Python statistics.quantiles(n=4) gives them, the
			# definition benchmark/stats.go names for the ten-run spread.
			iqr = at(sa, na, 3 * (na + 1) / 4) - at(sa, na, (na + 1) / 4)
			worse = (mb - ma) / ma; if (!lower[m]) worse = -worse
			gap = mb - ma; if (gap < 0) gap = -gap
			if (lower[m]) clear = (sb[nb] < sa[1]); else clear = (sb[1] > sa[na])
			if (10 * wins >= 9 * pairs && worse < 0 && gap > iqr && failed[w, "B"] <= failed[w, "A"]) verdict = "better"
			else if (worse > bound[m]) { verdict = "worse beyond bound"; bad = 1 }
			else if (iqr / ma > bound[m] && !clear) verdict = "unresolved"
			else verdict = "no worse"
			printf "%-13s %-17s A %-9.4g B %-9.4g %+6.1f %%  A IQR %4.1f %%  B won %d/%d lost %d  %s  bound %g %%  %s\n",
				w, m, ma, mb, 100 * (mb - ma) / ma, 100 * iqr / ma, wins, pairs, losses, fails, 100 * bound[m], verdict
		}
		exit bad
	}' "$spec" "$table"
