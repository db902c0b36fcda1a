#!/usr/bin/env bash
# Regenerate the pinned stdout of every golden experiment binary and diff it
# against the committed text in this directory. Any drift prints as a
# unified diff and fails the check.
#
#   crates/bench/golden/check.sh           # check
#   crates/bench/golden/check.sh --bless   # overwrite the committed texts
#
# Bless only a deliberate repin, and explain the moved numbers in the same
# change. Fresh outputs are left in target/golden/ for later CI steps.
set -euo pipefail
cd "$(dirname "$0")/../../.."

case "${1:-}" in
  "") bless=0 ;;
  --bless) bless=1 ;;
  *) echo "usage: $0 [--bless]" >&2; exit 2 ;;
esac

golden=crates/bench/golden
out=target/golden
mkdir -p "$out"
status=0
for b in tab_carat tab_virtines fig3_heartbeat fig4_fibers fig6_openmp tab_faults tab_profile tab_serve fig7_coherence; do
  cargo run --locked --release -q -p interweave-bench --bin "$b" > "$out/$b.stdout"
  if [ "$bless" = 1 ]; then
    cp "$out/$b.stdout" "$golden/$b.stdout"
  elif ! diff -u "$golden/$b.stdout" "$out/$b.stdout"; then
    status=1
  fi
done
exit "$status"
