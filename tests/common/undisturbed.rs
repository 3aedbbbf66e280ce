//! The run and the check both undisturbed-service suites make: a spec
//! under an allocation, run on the turbo kernel for a fixed horizon, and
//! the bystanders' whole delivery logs of two such runs compared through
//! [`compare_logs`]. Included with `#[path]` by the tests that use it.

use aelite_alloc::Allocation;
use aelite_noc::network::NetworkKind;
use aelite_noc::ni::compare_logs;
use aelite_noc::turbo::{build_turbo, TurboNet};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;

/// Cycles every run simulates.
pub const HORIZON_CYCLES: u64 = 20_000;

/// Runs `spec` under `alloc` on the turbo kernel for the horizon, every
/// connection offering its traffic.
pub fn run(spec: &SystemSpec, alloc: &Allocation) -> TurboNet {
    let mut net = build_turbo(spec, alloc, NetworkKind::Synchronous, true);
    net.run_cycles(HORIZON_CYCLES);
    net
}

/// Asserts that `after` logged every connection of `conns` record for
/// record — conn, tag, destination cycle and absolute time — as `before`
/// did, and returns how many flits they delivered, so a caller can
/// refuse to compare silence.
pub fn assert_undisturbed(
    conns: &[ConnId],
    before: &TurboNet,
    after: &TurboNet,
    what: &str,
) -> usize {
    let result = compare_logs(conns.iter().copied(), &before.logs, &after.logs);
    assert!(result.is_composable(), "{what}: {result}");
    conns.iter().map(|&c| before.log(c).borrow().len()).sum()
}
