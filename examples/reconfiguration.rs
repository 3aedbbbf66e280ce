//! Undisrupted reconfiguration: stop one application, start another, and
//! prove — flit by flit — that nobody else noticed. This is the use-case
//! behaviour of the Æthereal flow the paper builds on (its reference
//! \[16\]), enabled by aelite's complete connection isolation.
//!
//! Run with: `cargo run --example reconfiguration`

use aelite::{AeliteSystem, SimOptions};
use aelite_spec::app::SystemSpecBuilder;
use aelite_spec::config::NocConfig;
use aelite_spec::ids::AppId;
use aelite_spec::topology::Topology;
use aelite_spec::traffic::Bandwidth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A platform running a resident application plus a video call.
    let build = |with_call: bool, with_game: bool| {
        let topo = Topology::mesh(3, 2, 2);
        let nis: Vec<_> = topo.nis().collect();
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let resident = b.add_app("resident OS services");
        let call = b.add_app("video call");
        let game = b.add_app("game");
        let ips: Vec<_> = (0..8).map(|i| b.add_ip_at(nis[i])).collect();
        // The resident app always runs. Connection ids stay stable
        // because every connection is declared in a fixed order and
        // simply omitted (same positions never re-used) when inactive...
        b.add_connection(
            resident,
            ips[0],
            ips[1],
            Bandwidth::from_mbytes_per_sec(50),
            400,
        );
        b.add_connection(
            resident,
            ips[1],
            ips[0],
            Bandwidth::from_mbytes_per_sec(50),
            400,
        );
        if with_call {
            b.add_connection(
                call,
                ips[2],
                ips[3],
                Bandwidth::from_mbytes_per_sec(150),
                300,
            );
            b.add_connection(
                call,
                ips[3],
                ips[2],
                Bandwidth::from_mbytes_per_sec(150),
                300,
            );
        }
        if with_game {
            b.add_connection(
                game,
                ips[4],
                ips[5],
                Bandwidth::from_mbytes_per_sec(200),
                250,
            );
            b.add_connection(
                game,
                ips[5],
                ips[6],
                Bandwidth::from_mbytes_per_sec(100),
                350,
            );
        }
        // Ids stay stable because connections are declared in a fixed
        // order and flags only append/omit at the tail; transitions that
        // drop a middle application use `restricted_to` (id-preserving).
        b.build()
    };

    // Boot: resident + video call.
    let mut system = AeliteSystem::design(build(true, false))?;
    let opts = SimOptions {
        duration_cycles: 60_000,
        record_timestamps: true,
    };
    let resident = AppId::new(0);
    let before = system.simulate_apps(&[resident], opts);
    println!(
        "boot: resident + video call ({} connections total)",
        system.spec().connections().len()
    );

    // The call ends and a game starts — one reconfiguration call.
    let report = system.reconfigure(build(true, true))?;
    println!(
        "game installed: +{} connections (released {})",
        report.added.len(),
        report.released.len()
    );
    let report = {
        // Now drop the call: ids 2 and 3 disappear, the game stays.
        let mut keep = system.spec().clone();
        keep = keep.restricted_to(&[AppId::new(0), AppId::new(2)]);
        system.reconfigure(keep)?
    };
    println!(
        "call ended: released {} connections (added {})",
        report.released.len(),
        report.added.len()
    );

    // The resident application's delivery timeline never moved by a
    // single cycle through both reconfigurations.
    let after = system.simulate_apps(&[resident], opts);
    for (b, a) in before.timelines.iter().zip(&after.timelines) {
        assert_eq!(b, a, "{}: timing changed across reconfiguration", b.conn);
    }
    println!("resident app: every flit delivery cycle identical across both swaps");

    // And the surviving applications all meet their contracts.
    let outcome = system.simulate(opts);
    assert!(outcome.service.all_ok());
    println!(
        "final system verified: {} connections all within contract",
        outcome.service.verdicts.len()
    );
    Ok(())
}
