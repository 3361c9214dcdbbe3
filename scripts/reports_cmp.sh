#!/bin/sh
# Checks that a change leaves every report byte where it was: builds
# cmd/p4pexp at a git revision and from the working tree, runs both with
# -run all -scale 1.0 -seed 42, and compares their stdout (the reports
# alone; the timing lines go to stderr). Extra arguments are appended to
# both runs, so a later -run, -scale or -seed overrides the default:
#
#   scripts/reports_cmp.sh HEAD~1
#   scripts/reports_cmp.sh main -run F6,F10,A2 -seed 7 -parallel 2
#
# The revision is unpacked with git archive into a temporary directory
# that is removed on exit. Exit status: 0 identical, 1 the reports
# differ (the first differing lines are printed), 2 usage or build error.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
	echo "usage: $0 REV [p4pexp flags...]" >&2
	exit 2
fi
REV=$1
shift
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM
mkdir "$TMP/src"

if ! git archive --format=tar "$REV" | tar -x -C "$TMP/src"; then
	echo "reports_cmp: cannot export $REV" >&2
	exit 2
fi
if ! (cd "$TMP/src" && go build -o "$TMP/p4pexp-rev" ./cmd/p4pexp) ||
	! go build -o "$TMP/p4pexp-tree" ./cmd/p4pexp; then
	echo "reports_cmp: build failed" >&2
	exit 2
fi

for side in rev tree; do
	echo ">> p4pexp at $side" >&2
	"$TMP/p4pexp-$side" -run all -scale 1.0 -seed 42 "$@" >"$TMP/$side.txt"
done
if cmp -s "$TMP/rev.txt" "$TMP/tree.txt"; then
	echo "reports_cmp: identical to $REV ($(wc -c <"$TMP/tree.txt") bytes)"
	exit 0
fi
echo "reports_cmp: reports differ from $REV" >&2
diff "$TMP/rev.txt" "$TMP/tree.txt" | head -20 >&2
exit 1
