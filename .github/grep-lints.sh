#!/usr/bin/env bash
# The repository's two grep lints, in one place: the CI `lint` job runs
# this script, and so does anyone verifying a change by hand. Run it from
# anywhere inside the repository; it prints nothing and exits 0 when
# clean, and exits 1 at the first lint that fails.
set -eo pipefail
cd "$(git rev-parse --show-toplevel)"

# A comment that sends the reader to a file that is not there is a
# silent documentation bug. Paths are cited from the repository root.
for f in $(git grep -hoE '`[A-Za-z0-9_./-]+\.(md|json|rs|yml|toml)`' -- '*.rs' README.md | tr -d '`' | sort -u); do
  test -e "$f" || { echo "::error::\`$f\` is cited but is not in the repository"; exit 1; }
done

# `aelite-online` keeps four compatibility names (two type aliases,
# two identity methods) and the `ShardedAllocation` newtype for the
# frozen benchmark alone; ROADMAP 5(c) deletes them. Any other caller
# is a migration gone backwards. The newtype's own lines and the two
# `aelite-serve` signatures the benchmark calls
# (`crates/serve/src/pipeline.rs`) are the only uses allowed. This file
# lives under `.github/`, which the search skips, so its own patterns
# do not match.
hits=$(git grep -nE 'FaultEngine|FaultStats|with_engine|\.engine\(\)|ShardedAllocation' -- . ':!benchmark' ':!*.md' ':!.github' \
  | grep -vE 'pub type FaultEngine = ChurnEngine;|pub type FaultStats = ChurnStats;|pub fn with_engine\(self\) -> Self \{' \
  | grep -vE '^crates/serve/src/pipeline\.rs:[0-9]+:.*ShardedAllocation|pub use shard::ShardedAllocation;|pub struct ShardedAllocation\(pub Allocation\);|impl ShardedAllocation \{' || true)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "::error::a compatibility shim kept for benchmark/ has a caller outside it"
  exit 1
fi
