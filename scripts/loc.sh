#!/bin/sh
# Non-test Go lines of the root module, per package directory and in
# total (ROADMAP aim 2 as a number). The separate benchmark/ module and
# testdata/ fixtures, which the go tool skips, are not counted. Run from anywhere; `loc.sh DIR` counts another checkout.
#
# `loc.sh -base REV [DIR]` compares: it counts the tree of revision REV
# of the checkout's git repository (extracted with git archive into a
# temporary directory) against the checkout, and prints parent, change
# and delta lines for each package that changed and for the total.
set -eu

base=
if [ "${1:-}" = "-base" ]; then
    [ $# -ge 2 ] || { echo "usage: loc.sh [-base REV] [DIR]" >&2; exit 2; }
    base=$2
    shift 2
fi
cd "${1:-$(dirname "$0")/..}"

# count prints "lines package" rows and a "lines total" row for the
# tree in the current directory.
count() {
    find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 |
        xargs -0 wc -l |
        awk '$2 != "total" {
                 dir = $2; sub(/\/[^\/]*$/, "", dir); n[dir] += $1; total += $1
             }
             END {
                 for (d in n) printf "%7d %s\n", n[d], d
                 printf "%7d total\n", total
             }' |
        sort -k2
}

if [ -z "$base" ]; then
    count
    exit
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$base" | tar -x -C "$tmp"
(cd "$tmp" && count) >"$tmp/.parent"
count >"$tmp/.change"
# delta prints "parent change delta package" rows: with -v total=0 the
# packages whose count changed, with -v total=1 the total.
delta() {
    awk -v total="$1" 'FNR == NR { p[$2] = $1; seen[$2] = 1; next }
        { c[$2] = $1; seen[$2] = 1 }
        END {
            for (d in seen)
                if ((d == "total") == (total == 1) && (total == 1 || p[d] + 0 != c[d] + 0))
                    printf "%7d %7d %+7d %s\n", p[d], c[d], c[d] - p[d], d
        }' "$tmp/.parent" "$tmp/.change"
}
printf '%7s %7s %7s %s\n' parent change delta package
delta 0 | sort -k4
delta 1
