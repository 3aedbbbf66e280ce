#!/usr/bin/env bash
# The repository's five grep lints, in one place: the CI `lint` job runs
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

# A `pub fn` is public because something outside its crate calls it.
# Every `pub fn` / `pub const fn` under `crates/*/src` and under the
# umbrella package's `src/` must have a whole-word match in some `.rs`
# file outside that `src/` (for the umbrella: any `.rs` not under the
# top-level `src/`, such as `benches/`, `examples/` and `tests/`);
# otherwise make it `pub(crate)`, move it under `#[cfg(test)]`, or delete
# it. The name-based search undercounts (a same-named function elsewhere
# hides an uncalled one), never overcounts. Exceptions, with the reason:
allow=(
  expand                            # doctest on aelite_dataflow::sdf::SdfGraph
  maximum_cycle_mean                # doctests on HsdfGraph and SdfGraph
  repetition_vector                 # doctest on aelite_dataflow::sdf::SdfGraph
  pareto_front                      # its own doctest in aelite_dse::pareto
  pop_port                          # doctest on aelite_noc::phit::RouteBits
  as_mhz_f64                        # doctest on aelite_sim::time::Frequency
  add_ni                            # doctest on aelite_spec::topology::TopologyBuilder
  add_router                        # doctest on aelite_spec::topology::TopologyBuilder
  connect_routers                   # doctest on aelite_spec::topology::TopologyBuilder
  raw_link_bandwidth                # doctest on aelite_spec::config::NocConfig
)
for dir in crates/*/src src; do
  for name in $(git grep -hoE 'pub (const )?fn [A-Za-z_][A-Za-z0-9_]*' -- "$dir" | sed -E 's/.* fn //' | sort -u); do
    git grep -qw "$name" -- '*.rs' ":!$dir" && continue
    case " ${allow[*]} " in *" $name "*) continue ;; esac
    echo "::error::\`$name\` in $dir is \`pub\` but nothing outside its crate names it: make it pub(crate), #[cfg(test)], or delete it"
    exit 1
  done
done

# The validator is the independent check that licenses compiling the
# routers away in the turbo kernel. It must re-derive every reservation
# from each grant's path and slots and the tables' owner view, never
# from the allocator's own bookkeeping: the grant's cached link list,
# the free masks, the route cache or the mask kernels. Test code below
# the first `#[cfg(test)]` may read them.
hits=$(sed '/#\[cfg(test)\]/,$d' crates/alloc/src/validate.rs | grep -nE 'grant\.links|free_mask|route_cache|crate::mask' || true)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "::error::crates/alloc/src/validate.rs reads allocator bookkeeping above its tests: re-derive it from grant.path and the owner view"
  exit 1
fi

# The timing model, the XY route, route search and the slot-selection
# kernels are each defined once; a second definition is a twin that can
# drift from the first. Each name must have exactly one `fn` definition
# under crates/ and src/. `benchmark/` is not searched: its
# `estimate_slots` is a frozen wrapper.
for name in pipeline_cycles deadline_cycles max_injection_gap estimate_slots dimension_ordered \
  worst_window gaps route_candidates bounded_paths spread_selection cover_with_gap best_gap_filler; do
  n=$(git grep -hwE "fn $name" -- crates src | wc -l)
  if [ "$n" -ne 1 ]; then
    git grep -nwE "fn $name" -- crates src || true
    echo "::error::\`$name\` has $n definitions under crates/ and src/: keep exactly one"
    exit 1
  fi
done
