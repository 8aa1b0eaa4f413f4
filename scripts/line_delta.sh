#!/usr/bin/env bash
# Lines added, deleted and net per area, from `git diff --numstat BASE`
# (the working tree against BASE, default HEAD). Areas are each src/
# subdirectory, tests, bench and scripts; everything else is "other".
# New files count once they are staged (git add).
#
#   scripts/line_delta.sh [BASE]
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-HEAD}
git diff --numstat --no-renames "$base" | awk -F'\t' '
  $1 == "-" { next }  # binary file
  {
    n = split($3, part, "/")
    if (part[1] == "src" && n > 2) area = "src/" part[2]
    else if (part[1] == "tests" || part[1] == "bench" || part[1] == "scripts")
      area = part[1]
    else area = "other"
    add[area] += $1
    del[area] += $2
    if (area ~ /^src\//) { add["src (total)"] += $1; del["src (total)"] += $2 }
  }
  END {
    for (a in add) printf "%-16s +%-7d -%-7d net %+d\n", a, add[a], del[a], add[a] - del[a]
  }' | sort
