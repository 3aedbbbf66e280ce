//! Back-pressure without contract violation: an IP that offers more than
//! its reservation only slows itself down — "there is no possibility for
//! an application to violate any contract with the interconnect" (paper
//! Section IV-A).
//!
//! Run with: `cargo run --example oversubscription`

use aelite::analysis::composability::compare_timelines;
use aelite::{measured_services, timelines, AeliteSystem, SimOptions};
use aelite_spec::app::SystemSpecBuilder;
use aelite_spec::config::NocConfig;
use aelite_spec::topology::Topology;
use aelite_spec::traffic::{Bandwidth, TrafficPattern};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let build = |greedy_pattern: TrafficPattern| {
        let topo = Topology::mesh(2, 1, 2);
        let nis: Vec<_> = topo.nis().collect();
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app_greedy = b.add_app("greedy");
        let app_victim = b.add_app("well-behaved");
        let g_src = b.add_ip_at(nis[0]);
        let g_dst = b.add_ip_at(nis[2]);
        let v_src = b.add_ip_at(nis[1]);
        let v_dst = b.add_ip_at(nis[3]);
        // The greedy app reserved only 30 MB/s...
        b.add_connection_with(
            app_greedy,
            g_src,
            g_dst,
            Bandwidth::from_mbytes_per_sec(30),
            2_000,
            greedy_pattern,
            16,
        );
        // ... its neighbour holds a normal CBR contract.
        b.add_connection(
            app_victim,
            v_src,
            v_dst,
            Bandwidth::from_mbytes_per_sec(120),
            400,
        );
        b.build()
    };
    let opts = SimOptions {
        duration_cycles: 192_000,
        record_timestamps: true,
    };

    // Baseline: the greedy app behaves (offers its contracted rate).
    let behaved = AeliteSystem::design(build(TrafficPattern::ConstantRate))?;
    let base = behaved.simulate(opts);

    // Now it floods the NoC with as much data as it can produce.
    let flooded = AeliteSystem::design(build(TrafficPattern::Saturating))?;
    let flood = flooded.simulate(opts);

    let greedy = flooded.spec().connections()[0].id;
    let victim = flooded.spec().connections()[1].id;

    // 1. The offender is clipped to its reservation.
    let m = measured_services(&flood.report);
    let greedy_bw = m[greedy.index()].bytes as f64 * 500e6 / 192_000.0;
    let reserved = flooded.guaranteed_bandwidth(greedy).bytes_per_sec() as f64;
    println!(
        "greedy app: offered unbounded, delivered {:.1} MB/s (reservation {:.1} MB/s)",
        greedy_bw / 1e6,
        reserved / 1e6
    );
    assert!(
        greedy_bw <= reserved * 1.02,
        "reservation must cap the offender"
    );

    // 2. The victim's timing is bit-identical either way.
    let victim_timelines_base: Vec<_> = timelines(&base.report)
        .into_iter()
        .filter(|t| t.conn == victim)
        .collect();
    let victim_timelines_flood: Vec<_> = timelines(&flood.report)
        .into_iter()
        .filter(|t| t.conn == victim)
        .collect();
    let cmp = compare_timelines(&victim_timelines_base, &victim_timelines_flood);
    println!("victim under flood: {cmp}");
    assert!(cmp.is_composable(), "the victim must be untouched");

    // 3. And the victim's contract still verifies.
    assert!(flood.service.verdict(victim).ok());
    println!("victim's contract verified under a flooding neighbour");
    Ok(())
}
