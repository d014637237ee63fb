#!/bin/sh
# Non-test line count per crate `src/`: for each .rs file, the lines before
# its first `#[cfg(test)]`, summed per crate. The one committed measure
# simplicity PRs quote before/after. After the workspace `total`, the
# vendored stand-ins (`vendor/*/src`) are counted the same way and
# subtotalled as `vendor`, outside `total`. Run from the repo root.
set -eu
count() { # non-test lines of the .rs files under $1
    n=0
    for f in $(find "$1" -name '*.rs' | sort); do
        n=$((n + $(awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$f")))
    done
    echo "$n"
}
total=0
for src in crates/*/src src; do
    n=$(count "$src")
    printf '%7d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
vendor=0
for src in vendor/*/src; do
    n=$(count "$src")
    printf '%7d  %s\n' "$n" "$src"
    vendor=$((vendor + n))
done
printf '%7d  vendor\n' "$vendor"
