#!/usr/bin/env bash
# Non-test lines per library crate: every line of crates/<crate>/src/**/*.rs
# outside a `#[cfg(test)]` module. A gated module runs from its
# `#[cfg(test)]` line to the closing brace at the `mod` line's indentation;
# a gated item that is not a module (a test-only fn mid-file) counts, as
# every other line does.
#
#   api/lines.sh          one `<lines> psb-<crate>` row per crate, then the total
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

count() {
    awk '
        skip {
            if ($0 == close_at) skip = 0
            next
        }
        gated {
            gated = 0
            if (match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/)) {
                indent = $0
                sub(/[^ \t].*$/, "", indent)
                close_at = indent "}"
                skip = 1
                next
            }
            n++
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { gated = 1; next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

total=0
for dir in crates/*/; do
    name="$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)"
    files=$(find "$dir/src" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    lines=0
    for f in $files; do
        lines=$((lines + $(count "$f")))
    done
    printf '%6d %s\n' "$lines" "$name"
    total=$((total + lines))
done
printf '%6d total\n' "$total"
