#!/bin/sh
# Reachability of the public surface, by grep alone (offline, no build).
#
# Lists every `pub fn` under crates/*/src (crates/bench excluded: its
# library exists for its own binaries) whose name occurs as a word in no
# other .rs file under crates/, benchmark/src, src/, tests/ or examples/ —
# that is, surface only its own file (usually its own test module) calls.
# One `path name` line each, sorted.
#
#   tools/pub_reach.sh           print the list
#   tools/pub_reach.sh --check   fail unless the list equals
#                                tools/pub_reach.baseline: a line only the
#                                list has is a new unreached name, a line
#                                only the baseline has is stale (deleted,
#                                made private, or now reached) and would
#                                let that name come back unreached
#
# Matching is by name, not by path: a function sharing its name with
# anything referenced elsewhere (`new`, `len`) counts as reached, so the
# list under-reports and never accuses live code. After shrinking the
# list, refresh the baseline with
# `tools/pub_reach.sh > tools/pub_reach.baseline`.
set -eu
cd "$(dirname "$0")/.."
export LC_ALL=C

ROOTS="crates benchmark/src src tests examples"

list() {
    find crates/*/src -name '*.rs' ! -path 'crates/bench/*' | sort | while read -r file; do
        grep -o 'pub fn [A-Za-z_][A-Za-z0-9_]*' "$file" | cut -d' ' -f3 | sort -u | while read -r name; do
            # shellcheck disable=SC2086
            if ! grep -rlw --include='*.rs' -e "$name" $ROOTS | grep -qvxF "$file"; then
                echo "$file $name"
            fi
        done
    done
}

case "${1:-}" in
"") list ;;
--check)
    current=$(mktemp)
    trap 'rm -f "$current"' EXIT
    list >"$current"
    grown=$(comm -13 tools/pub_reach.baseline "$current")
    stale=$(comm -23 tools/pub_reach.baseline "$current")
    if [ -n "$grown" ]; then
        echo "pub fn referenced only from its own file, not in tools/pub_reach.baseline:" >&2
        echo "$grown" >&2
        echo "call it from the product, make it pub(crate)/#[cfg(test)], or delete it" >&2
    fi
    if [ -n "$stale" ]; then
        echo "stale tools/pub_reach.baseline line (no longer in the list):" >&2
        echo "$stale" >&2
        echo "remove it: tools/pub_reach.sh > tools/pub_reach.baseline" >&2
    fi
    if [ -n "$grown$stale" ]; then
        exit 1
    fi
    echo "pub_reach: $(wc -l <"$current" | tr -d ' ') unreached (baseline $(wc -l <tools/pub_reach.baseline | tr -d ' '))"
    ;;
*)
    echo "usage: $0 [--check]" >&2
    exit 2
    ;;
esac
