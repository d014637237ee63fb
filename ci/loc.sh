#!/bin/sh
# Non-test line count per crate `src/`: for each .rs file, the lines before
# its first `#[cfg(test)]`, summed per crate. The one committed measure
# simplicity PRs quote before/after. Run from the repo root.
set -eu
total=0
for src in crates/*/src src; do
    n=0
    for f in $(find "$src" -name '*.rs' | sort); do
        n=$((n + $(awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$f")))
    done
    printf '%7d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
