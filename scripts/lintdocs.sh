#!/bin/sh
# lintdocs.sh checks three things the docs say about the code:
#
#   - the analyzer table in DESIGN.md §15 (between the lintdocs:begin/end
#     markers) is byte-identical to the live output of
#     `go run ./cmd/pcflint -list`. Adding, renaming or redocumenting an
#     analyzer without updating DESIGN.md fails the gate here.
#   - every backticked `pkg.Symbol` (or `pkg.Type.Member`) in README.md
#     and DESIGN.md, pkg one of the internal/ packages, resolves with
#     `go doc`, so a deleted or renamed symbol cannot stay documented.
#     Lower-case names (`core.newMaster`, metric names such as
#     `core.rounds`) and fenced code blocks are not checked; EXPERIMENTS.md
#     is history and is not checked either.
#   - the name column of DESIGN.md §19's table lists exactly the
#     constants internal/tol declares, so a deleted tolerance cannot
#     keep its row and a new one cannot go undocumented.
set -eu

script=$0
while [ -L "$script" ]; do
	target=$(readlink "$script")
	case $target in
	/*) script=$target ;;
	*) script=$(dirname "$script")/$target ;;
	esac
done
cd "$(dirname "$script")/.."

documented=$(awk '/<!-- lintdocs:begin -->/{f=1; next}
	/<!-- lintdocs:end -->/{f=0}
	f && !/^```/' DESIGN.md)
if [ -z "$documented" ]; then
	echo "lintdocs: no analyzer table found between lintdocs markers in DESIGN.md" >&2
	exit 1
fi

actual=$(go run ./cmd/pcflint -list)

if [ "$documented" != "$actual" ]; then
	echo "lintdocs: DESIGN.md analyzer table is out of date with pcflint -list:" >&2
	documentedf=$(mktemp)
	trap 'rm -f "$documentedf"' EXIT
	printf '%s\n' "$documented" >"$documentedf"
	printf '%s\n' "$actual" | diff -u "$documentedf" - >&2 || true
	exit 1
fi
echo "lintdocs: DESIGN.md analyzer table matches pcflint -list"

# An unclosed fence would hide the rest of a file from the check below.
for doc in README.md DESIGN.md; do
	if [ $(($(grep -c '^```' "$doc") % 2)) -ne 0 ]; then
		echo "lintdocs: $doc has an unclosed code fence" >&2
		exit 1
	fi
done

# Package name -> import path, e.g. "lptest pcf/internal/lp/lptest".
pkgs=$(go list -f '{{.Name}} {{.ImportPath}}' ./internal/...)
names=$(printf '%s\n' "$pkgs" | cut -d' ' -f1 | paste -sd'|' -)
# The inline code spans of each file, fences dropped and lines joined so
# a span may wrap, then every pkg.Symbol inside them.
refs=$(for doc in README.md DESIGN.md; do
	awk '/^```/ { fence = !fence; next } !fence' "$doc" | tr '\n' ' ' |
		grep -o '`[^`]*`' |
		grep -oE "(^|[^A-Za-z0-9_.])($names)\.[A-Z][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?" |
		sed 's/^[^a-z]*//' | sed "s|^|$doc |"
done | sort -u)
stale=$(printf '%s\n' "$refs" | while read -r doc ref; do
	pkg=${ref%%.*}
	path=$(printf '%s\n' "$pkgs" | awk -v p="$pkg" '$1 == p { print $2 }')
	go doc "$path" "${ref#*.}" >/dev/null 2>&1 || echo "$doc: \`$ref\`"
done)
if [ -n "$stale" ]; then
	echo "lintdocs: symbols named in the docs that go doc cannot resolve:" >&2
	printf '%s\n' "$stale" >&2
	exit 1
fi
echo "lintdocs: $(printf '%s\n' "$refs" | wc -l | tr -d ' ') pkg.Symbol references in README.md and DESIGN.md resolve"

declared=$(go doc -all ./internal/tol |
	sed -nE 's/^[[:space:]]*(const )?([A-Z][A-Za-z0-9_]*) += .*/\2/p' | sort)
tabled=$(awk '/^## 19\./ { f = 1; next } /^##/ { f = 0 } f && /^\| `/' DESIGN.md |
	sed -E 's/^\| `([^`]*)`.*/\1/' | sort)
if [ -z "$declared" ] || [ "$declared" != "$tabled" ]; then
	echo "lintdocs: DESIGN.md §19's table does not name exactly internal/tol's constants (- tabled, + declared):" >&2
	tabledf=$(mktemp)
	trap 'rm -f "$tabledf"' EXIT
	printf '%s\n' "$tabled" >"$tabledf"
	printf '%s\n' "$declared" | diff -u "$tabledf" - >&2 || true
	exit 1
fi
echo "lintdocs: DESIGN.md §19 tables the $(printf '%s\n' "$declared" | wc -l | tr -d ' ') constants internal/tol declares"
