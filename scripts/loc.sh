#!/bin/sh
# Non-test Go lines of the root module, per package directory and in
# total (ROADMAP aim 2 as a number). The separate benchmark/ module is
# not counted. Run from anywhere; `loc.sh DIR` counts another checkout.
set -eu

cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
    xargs -0 wc -l |
    awk '$2 != "total" {
             dir = $2; sub(/\/[^\/]*$/, "", dir); n[dir] += $1; total += $1
         }
         END {
             for (d in n) printf "%7d %s\n", n[d], d
             printf "%7d total\n", total
         }' |
    sort -k2
