#!/bin/sh
# loc.sh — the repo's size, counted one way: lines of non-test Go per
# internal/ package (sub-packages such as lp/lptest on their own line)
# and in total over the whole tree, benchmark/ excluded. This is the
# count ROADMAP.md and the simplicity issues quote, so builder and
# reviewer measure "smaller" the same way. Lines are physical lines
# (wc -l) of tracked files: blank lines and comments count, test files
# (*_test.go) and analyzer fixtures (testdata/) do not.
set -eu
cd "$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd -P)"

git ls-files -- '*.go' |
	grep -v -e '_test\.go$' -e '^benchmark/' -e '/testdata/' |
	xargs wc -l |
	awk '
$2 == "total" { next }
{
	total += $1
	if ($2 ~ /^internal\//) {
		pkg = $2
		sub(/\/[^\/]*$/, "", pkg)
		lines[pkg] += $1
	}
}
END {
	for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg | "sort -k2"
	close("sort -k2")
	printf "%7d  total (non-test Go, benchmark/ excluded)\n", total
}'
