#!/usr/bin/env bash
# loc.sh — the non-test Go lines of every package of module d3l
# (examples and cmd included; benchmark/ is a module of its own and is
# left out), largest first, then their total:
#
#   bash scripts/loc.sh
#
# It counts lines as wc -l does, comments and blank lines included.
set -euo pipefail
cd "$(dirname "$0")/.."
find . \( -path ./benchmark -o -name '.?*' \) -prune -o \
	-name '*.go' ! -name '*_test.go' -type f -print0 |
	xargs -0 awk '
		{ dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
		  lines[dir == "" ? "d3l" : "d3l/" dir]++; total++ }
		END {
			for (p in lines) printf "%7d  %s\n", lines[p], p | "sort -k1,1nr -k2"
			close("sort -k1,1nr -k2")
			printf "%7d  total\n", total
		}'
