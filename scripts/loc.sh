#!/usr/bin/env bash
# Non-test lines of Rust per crate: every line of crates/*/src/**/*.rs
# before the file's first `#[cfg(test)]` (test modules sit at the bottom
# of each file -- the same convention the decode-path panic gate in
# ci.sh relies on), summed per crate.
#
#   scripts/loc.sh
#
# The instrument for ROADMAP aim 2: "non-test LOC per crate goes down".

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    n=$(find "${crate}src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}')
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
