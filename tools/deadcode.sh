#!/usr/bin/env bash
# Lists the non-test functions under internal/ that no program reaches:
#
#   bash tools/deadcode.sh            print the list
#   bash tools/deadcode.sh -check     diff it against tools/deadcode.golden
#   make deadcode                     the same check (part of make check)
#
# Every `package main` of the module is linked with inlining off
# (-gcflags=all=-l, so each call keeps its own symbol) and the linker's
# reachability graph dumped (-ldflags=-dumpdep). A function declared in
# a non-test file under internal/ whose symbol appears in none of those
# graphs is dead. init functions and generic functions (whose symbols
# carry their instantiation) are skipped, and so are the test-support
# packages equivtest and transporttest, which only tests import.
#
# The golden holds what is dead on purpose (helpers only tests call). A
# line the check prints with "+" is a function nothing runs: call it from
# a program or delete it. A line with "-" left the list: drop it from the
# golden. Regenerate with: bash tools/deadcode.sh > tools/deadcode.golden
set -euo pipefail

cd "$(dirname "$0")/.."
golden=tools/deadcode.golden
module=$(go list -m)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Reachable symbols, from every program's link.
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -o "$tmp/prog" -gcflags=all=-l -ldflags=-dumpdep "$pkg" 2>>"$tmp/dep"
done
awk '$2 == "->" { print $1; print $3 }' "$tmp/dep" | grep "^$module/internal/" \
	| LC_ALL=C sort -u >"$tmp/reached"

# Declared functions, one candidate symbol per line. A value-receiver
# method counts as reached under either T.M or its (*T).M wrapper, so it
# is written as both, tab-separated.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... \
	| grep -v -e '/equivtest ' -e '/transporttest ' \
	| while read -r pkg file; do
		awk -v pkg="$pkg" '
			/^func / {
				line = substr($0, 6)
				recv = ""
				if (line ~ /^\(/) {
					close_ = index(line, ")")
					recv = substr(line, 2, close_ - 2)
					line = substr(line, close_ + 2)
					n = split(recv, parts, " ")
					recv = parts[n]
					if (recv ~ /\[/) next
				}
				match(line, /^[A-Za-z0-9_]+/)
				name = substr(line, 1, RLENGTH)
				if (substr(line, RLENGTH + 1, 1) == "[") next
				if (recv == "" && name == "init") next
				if (recv == "") print pkg "." name
				else if (recv ~ /^\*/) print pkg ".(" recv ")." name
				else print pkg "." recv "." name "\t" pkg ".(*" recv ")." name
			}' "$file"
	done >"$tmp/declared"

list() {
	awk -F'\t' 'NR == FNR { reached[$1] = 1; next }
		!($1 in reached) && ($2 == "" || !($2 in reached)) { print $1 }' \
		"$tmp/reached" "$tmp/declared" | sed "s|^$module/||" | LC_ALL=C sort -u
}

if [ "${1:-}" != "-check" ]; then
	list
	exit 0
fi
if ! list | diff -u "$golden" -; then
	echo "deadcode: unreached functions differ from $golden"
	echo "  (+ is newly dead: call it from a program or delete it;"
	echo "   - is no longer dead: regenerate with bash tools/deadcode.sh > $golden)"
	exit 1
fi
echo "deadcode: $(wc -l <"$golden") unreached functions, all in $golden"
