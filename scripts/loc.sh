#!/bin/sh
# Prints the numbers ROADMAP.md and DESIGN.md §15 quote: non-test Go
# lines per package (wc -l of every .go file that is not a _test.go
# file, testdata/ left out), with the nested bench/ module on its own
# row below the product total, and the //p4pvet:ignore suppressions by
# rule. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

FILES=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | sort)

echo 'non-test Go lines per package'
for f in $FILES; do
	echo "$(dirname "$f" | sed 's|^\./||') $(wc -l <"$f")"
done | awk '{ n[$1] += $2; total += $2 }
	END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  total\n", total }' |
	sort -k2
BENCH=$(find ./bench -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)
printf '%7d  bench (benchmark module, not in the total)\n' "$BENCH"

echo
echo '//p4pvet:ignore suppressions by rule'
# A directive is a comment that starts its line; strings and doc text
# that merely mention the marker are not.
grep -h '^[[:space:]]*//p4pvet:ignore ' $FILES | awk '{ n[$2]++; total++ }
	END { for (r in n) printf "%7d  %s\n", n[r], r; printf "%7d  total\n", total }' |
	sort -k2
