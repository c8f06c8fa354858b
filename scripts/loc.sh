#!/bin/sh
# Non-test Go lines per package directory (bench/ and lint fixtures
# excluded) and their total — the number every PR reports (ROADMAP,
# quality aim). Run from anywhere:
#
#   ./scripts/loc.sh           # per-package table, then the total
#   ./scripts/loc.sh -total    # the total only
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' \
    ! -path './bench/*' ! -path '*/testdata/*' ! -path './.*' |
    xargs wc -l |
    awk '$2 != "total" {
            dir = substr($2, 3)
            if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
            lines[dir] += $1
        }
        END { for (dir in lines) printf "%7d  %s\n", lines[dir], dir }' |
    sort -k2 |
    awk -v only_total="${1:-}" '
        { total += $1; if (only_total != "-total") print }
        END { printf "%7d  total non-test Go lines (bench/ excluded)\n", total }'
