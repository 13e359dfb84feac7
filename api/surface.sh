#!/usr/bin/env bash
# The public surface of the ten library crates, as text a review can diff.
#
#   api/surface.sh list DIR     write DIR/psb-<crate>.txt: one line per `pub`
#                               fn / struct / enum / trait / const / static /
#                               type / mod / re-export in crates/<crate>/src,
#                               and one `field Struct::name` per `pub` field of
#                               a `pub` struct (an option added to a config is
#                               a line in the diff), up to each file's
#                               `#[cfg(test)]` module, sorted
#   api/surface.sh unnamed      `pub` items (fields aside) that nothing outside
#                               their own crate names (grep -w over the code of
#                               every other crate, crates/*/tests,
#                               crates/*/benches, benchmark/, examples/, tests/
#                               and src/, `//` comments and doc comments cut;
#                               a name that only prose or the facade prelude's
#                               `pub use` mentions does not count as named)
#
# grep/awk only: `pub(crate)` items never match, methods are qualified by
# their impl's type, and a multi-line `pub use` is joined up to its `;`.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

CRATES="core data geom gpu kdtree metrics rtree serve srtree sstree"

# Lines of one source file as `<kind> <name>`.
items() {
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        using {
            use = use " " $0
            if ($0 ~ /;/) { emit_use(); using = 0 }
            next
        }
        /^impl/ {
            line = $0
            sub(/^impl(<[^>]*>)? +/, "", line)
            if (line ~ / for /) sub(/^.* for +/, "", line)
            sub(/[^A-Za-z0-9_].*$/, "", line)
            owner = line
        }
        /^}/ { owner = ""; record = "" }
        /^pub struct / && !/;/ {
            record = $3
            sub(/[^A-Za-z0-9_].*$/, "", record)
        }
        record != "" && /^    pub [a-z_][A-Za-z0-9_]*:/ {
            name = $2
            sub(/:.*$/, "", name)
            print "field " record "::" name
            next
        }
        /^ *pub use / {
            use = $0
            if ($0 ~ /;/) emit_use(); else using = 1
            next
        }
        /^ *pub (const |unsafe |async )*fn / {
            name = $0
            sub(/^ *pub (const |unsafe |async )*fn +/, "", name)
            sub(/[^A-Za-z0-9_].*$/, "", name)
            if ($0 ~ /^ / && owner != "") name = owner "::" name
            print "fn " name
            next
        }
        /^ *pub (struct|enum|trait|type|mod|const|static) / {
            kind = $2
            name = $3
            sub(/[^A-Za-z0-9_].*$/, "", name)
            print kind " " name
        }
        function emit_use() {
            gsub(/[ \t]+/, " ", use)
            sub(/^ /, "", use)
            sub(/^pub /, "", use)
            print use
        }
    ' "$1"
}

list() {
    local out="$1" c f
    mkdir -p "$out"
    for c in $CRATES; do
        for f in $(find "crates/$c/src" -name '*.rs' | sort); do
            items "$f" | sed "s|^|${f#crates/"$c"/src/}: |"
        done | sort >"$out/psb-$c.txt"
    done
}

unnamed() {
    local c kind name code f outside
    code="$(mktemp -d)"
    # shellcheck disable=SC2064
    trap "rm -rf '$code'" RETURN
    # A copy of every file's code: each line cut at its first `//`, and
    # src/lib.rs without its prelude block.
    find crates shims benchmark examples tests src -name '*.rs' | while read -r f; do
        mkdir -p "$code/$(dirname "$f")"
        if [ "$f" = src/lib.rs ]; then
            awk '/^pub mod prelude/ { skip = 1 } !skip; /^}/ { skip = 0 }' "$f"
        else
            cat "$f"
        fi | sed 's|//.*||' >"$code/$f"
    done
    for c in $CRATES; do
        find "crates/$c/src" -name '*.rs' | sort | while read -r f; do items "$f"; done |
            sed -n 's/^\([a-z]*\) \(.*::\)\{0,1\}\([A-Za-z0-9_]*\)$/\1 \3/p' | grep -v '^use \|^field ' | sort -u |
            while read -r kind name; do
                # Everything outside the crate.
                outside=$(
                    cd "$code" && find . -name '*.rs' -not -path "./crates/$c/src/*" -print0 |
                        xargs -0 grep -lw -- "$name" || true
                )
                [ -n "$outside" ] || echo "psb-$c $kind $name"
            done
    done
}

case "${1:-}" in
    list)    list "${2:?usage: $0 list DIR}" ;;
    unnamed) unnamed ;;
    *)       echo "usage: $0 list DIR | unnamed" >&2; exit 2 ;;
esac
