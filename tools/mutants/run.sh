#!/usr/bin/env bash
# Mutation check: every `tools/mutants/*.patch` plants one known bug, and
# the tests its `must-fail:` lines name must each fail against it.
#
# Each patch is applied to its own copy of the tracked files (as they are
# in the working tree; a deleted one is left out), built with its own
# CARGO_TARGET_DIR (cargo's fingerprints ignore the workspace path, so
# copies sharing one target directory would reuse each other's
# binaries), and its tests run there.
# The script fails if a patch no longer applies, a mutant does not build,
# or a named test passes against its mutant (the mutant survived, or the
# name matches no test).
#
# A `must-fail:` line holds `cargo test` arguments, then `--` and the
# test's full path, run with `--exact`.
#
# Usage: tools/mutants/run.sh [WORK_DIR]
#   WORK_DIR holds the copies and their target directories (default: a
#   fresh directory under $TMPDIR); each mutant's build takes ~1 GB there.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${1:-$(mktemp -d)}
mkdir -p "$work"
status=0
for patch in "$root"/tools/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    copy="$work/$name"
    rm -rf "$copy"
    mkdir -p "$copy"
    # Tracked files deleted in the working tree are left out, as they
    # would be from a commit of it.
    git -C "$root" ls-files -z | (
        cd "$root"
        while IFS= read -r -d '' f; do
            if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
        done | tar --null -T - -cf -
    ) | tar -xf - -C "$copy"
    if ! (cd "$copy" && git apply "$patch"); then
        echo "mutant $name: patch does not apply"
        status=1
        continue
    fi
    export CARGO_TARGET_DIR="$work/$name-target"
    while IFS= read -r line; do
        args=${line%% -- *}
        test=${line##* -- }
        # shellcheck disable=SC2086 # the cargo arguments are words
        if ! (cd "$copy" && cargo test -q --offline --no-run $args 2>/dev/null); then
            echo "mutant $name: does not build ($args)"
            status=1
        # shellcheck disable=SC2086
        elif (cd "$copy" && cargo test -q --offline $args -- --exact "$test" >/dev/null 2>&1); then
            echo "mutant $name: SURVIVED $test"
            status=1
        else
            echo "mutant $name: killed by $test"
        fi
    done < <(sed -n 's/^must-fail: //p' "$patch")
done
exit $status
