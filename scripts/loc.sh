#!/usr/bin/env bash
# Non-test library lines per crate, as the ROADMAP counts them: every
# crate under `crates/` except `bench` and `e2e`, each `src/` file's lines
# before its first `#[cfg(test)]`, and `pdms/src/network/tests.rs` (a
# test module in its own file) skipped. Prints one `<crate> <lines>` row
# per crate and a `total` row.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    case "$crate" in bench | e2e) continue ;; esac
    lines=0
    while IFS= read -r file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$dir/src" -name '*.rs' ! -path '*/network/tests.rs' | sort)
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
