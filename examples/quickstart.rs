//! Quickstart: specify a small platform, design the aelite NoC, read the
//! guarantees off the allocation, and confirm them in simulation.
//!
//! Run with: `cargo run --example quickstart`

use aelite::AeliteSystem;
use aelite_spec::app::SystemSpecBuilder;
use aelite_spec::config::NocConfig;
use aelite_spec::topology::Topology;
use aelite_spec::traffic::Bandwidth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The platform: a 2x2 mesh with one network interface per router.
    let topo = Topology::mesh(2, 2, 1);
    let nis: Vec<_> = topo.nis().collect();
    let mut builder = SystemSpecBuilder::new(topo, NocConfig::paper_default());

    // 2. One application with three guaranteed-service connections.
    let app = builder.add_app("camera pipeline");
    let camera = builder.add_ip_at(nis[0]);
    let isp = builder.add_ip_at(nis[1]);
    let encoder = builder.add_ip_at(nis[2]);
    let memory = builder.add_ip_at(nis[3]);
    let raw = builder.add_connection(app, camera, isp, Bandwidth::from_mbytes_per_sec(300), 200);
    let processed =
        builder.add_connection(app, isp, encoder, Bandwidth::from_mbytes_per_sec(150), 300);
    let bitstream = builder.add_connection(
        app,
        encoder,
        memory,
        Bandwidth::from_mbytes_per_sec(40),
        500,
    );
    let spec = builder.build();

    // 3. Design: paths + TDM slots, contention-free by construction.
    let system = AeliteSystem::design(spec)?;
    println!(
        "designed {} connections:",
        system.spec().connections().len()
    );
    for conn in [raw, processed, bitstream] {
        println!(
            "  {conn}: guaranteed {} | worst-case latency {:.1} ns",
            system.guaranteed_bandwidth(conn),
            system.latency_bound_ns(conn),
        );
    }

    // 4. Simulate and verify every contract.
    let outcome = system.simulate(100_000);
    for verdict in &outcome.service.verdicts {
        println!("  {verdict}");
    }
    assert!(outcome.service.all_ok(), "all contracts must hold");
    println!("all guaranteed services verified in simulation");
    Ok(())
}
