#!/usr/bin/env bash
# Lines added, removed and net per module between REV and the working tree: one row per
# changed src/<module> (files directly under src/ count as `src`), then tests, bench,
# tools, scripts and docs (docs/ plus the top-level *.md), then `other` when anything
# else changed (examples/, perfbench/, build files), and the total. Untracked files that
# git does not ignore count as added. BENCH_*.json records are left out; binary files
# count as 0 lines.
#
# Usage: scripts/net_loc.sh REV
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/net_loc.sh REV" >&2
  exit 2
fi
if ! git rev-parse --verify --quiet "$1^{commit}" >/dev/null; then
  echo "error: not a revision: $1" >&2
  exit 2
fi

{
  git diff --numstat --no-renames "$1" --
  git ls-files -z --others --exclude-standard | while IFS= read -r -d '' path; do
    printf '%s\t0\t%s\n' "$(wc -l <"$path")" "$path"
  done
} | awk -F'\t' '
  function row(name) {
    if (name in added) {
      printf "%-16s%9d%9d%9d\n", name, added[name], removed[name], added[name] - removed[name]
    } else {
      printf "%-16s%9d%9d%9d\n", name, 0, 0, 0
    }
  }
  {
    path = $3
    if (path ~ /(^|\/)BENCH_[^\/]*\.json$/) next
    n = split(path, part, "/")
    if (part[1] == "src") {
      name = n > 2 ? "src/" part[2] : "src"
    } else if (part[1] ~ /^(tests|bench|tools|scripts|docs)$/ && n > 1) {
      name = part[1]
    } else if (n == 1 && path ~ /\.md$/) {
      name = "docs"
    } else {
      name = "other"
    }
    add = $1 == "-" ? 0 : $1
    del = $2 == "-" ? 0 : $2
    added[name] += add
    removed[name] += del
    total_added += add
    total_removed += del
    if (name ~ /^src/) src[name] = 1
  }
  END {
    printf "%-16s%9s%9s%9s\n", "module", "added", "removed", "net"
    count = 0
    for (name in src) names[++count] = name
    for (i = 2; i <= count; i++) {  # insertion sort: awk has no portable sort
      for (j = i; j > 1 && names[j - 1] > names[j]; j--) {
        tmp = names[j]; names[j] = names[j - 1]; names[j - 1] = tmp
      }
    }
    for (i = 1; i <= count; i++) row(names[i])
    row("tests"); row("bench"); row("tools"); row("scripts"); row("docs")
    if ("other" in added) row("other")
    printf "%-16s%9d%9d%9d\n", "total", total_added, total_removed, total_added - total_removed
  }'
