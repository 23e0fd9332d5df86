#!/bin/sh
# One line per mode. The nested workspace shares ../target, so crates
# the root workspace already compiled are reused. Each workload gets a
# process of its own: `peak_rss_mib` is the process's high-water mark.
set -eu
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-../target}"
WORKLOADS="serve_hot resolve_cold churn_maintain coded_repair"
each() { for w in $WORKLOADS; do cargo run --release --offline --quiet -- --seed "${SEED:-1}" --workload "$w" "$@"; done; }
case "${1:-full}" in
full) each ;;
traced) each --traced ;;
smoke) cargo run --release --offline --quiet -- --smoke ;;
repeat) each --repeat 10 ;;
test) cargo test --release --offline ;;
*) echo "usage: $0 [full|traced|smoke|repeat|test]" >&2; exit 2 ;;
esac
