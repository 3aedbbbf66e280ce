//! Link-width conversion — the paper's concluding future work ("we aim to
//! extend aelite with link-width conversion and include the asynchronous
//! wrappers in the formal models of the NoC"), analysed with the dataflow
//! machinery of `aelite-dataflow`.
//!
//! A 2:1 converter joins two narrow (32-bit) flits into one wide (64-bit)
//! flit. The converter fires at half the narrow NI's rate, so the model
//! spells the narrow NI out as two actors, its even and odd firings: one
//! iteration of the graph carries two narrow flits and one wide flit. Its
//! maximum cycle mean predicts the sustainable flit rate of the mixed
//! configuration and locates the bottleneck.
//!
//! Run with: `cargo run --example width_conversion`

use aelite_dataflow::HsdfGraph;

/// Builds the narrow-NI → converter → wide-router chain. Execution times
/// are one flit cycle (3 local clock cycles) in nanoseconds.
fn chain(narrow_mhz: f64, wide_mhz: f64) -> HsdfGraph {
    let mut g = HsdfGraph::new();
    let even = g.add_actor("narrow NI (32-bit), even flit", 3_000.0 / narrow_mhz);
    let odd = g.add_actor("narrow NI (32-bit), odd flit", 3_000.0 / narrow_mhz);
    let conv = g.add_actor("2:1 width converter", 3_000.0 / wide_mhz);
    let wide = g.add_actor("wide router (64-bit)", 3_000.0 / wide_mhz);
    // Elements are non-reentrant: one flit cycle at a time, so the
    // narrow NI's firings alternate.
    g.add_edge(even, odd, 0);
    g.add_edge(odd, even, 1);
    g.add_edge(conv, conv, 1);
    g.add_edge(wide, wide, 1);
    // The converter takes both narrow flits from a 4-flit buffer; each
    // wide flit frees two places, one for each of the next two.
    g.add_edge(even, conv, 0);
    g.add_edge(odd, conv, 0);
    g.add_edge(conv, even, 2);
    g.add_edge(conv, odd, 2);
    g.add_channel(conv, wide, 2);
    g
}

/// Narrow and wide flits per microsecond: two narrow flits and one wide
/// flit per iteration of the graph.
fn rates(g: &HsdfGraph) -> (f64, f64) {
    let iterations = g.throughput().expect("cyclic");
    (2.0 * iterations * 1_000.0, iterations * 1_000.0)
}

fn main() {
    println!("2:1 link-width conversion, SDF analysis (flits per microsecond)\n");
    println!(
        "{:<28} {:>14} {:>14} {:>12}",
        "configuration", "narrow flits", "wide flits", "bottleneck"
    );
    for (label, narrow_mhz, wide_mhz) in [
        ("balanced: 500 / 250 MHz", 500.0, 250.0),
        ("fast wide region: 500/500", 500.0, 500.0),
        ("slow wide region: 500/125", 500.0, 125.0),
    ] {
        let (narrow_rate, wide_rate) = rates(&chain(narrow_mhz, wide_mhz));
        // The narrow region can offer narrow_mhz/3 flits/us; the wide
        // region can absorb 2 * wide_mhz/3 narrow-equivalents.
        let bottleneck = if narrow_mhz / 3.0 <= 2.0 * wide_mhz / 3.0 {
            "narrow"
        } else {
            "wide"
        };
        println!("{label:<28} {narrow_rate:>14.1} {wide_rate:>14.1} {bottleneck:>12}");
        // Conservation: two narrow flits per wide flit, always.
        assert!((narrow_rate / wide_rate - 2.0).abs() < 1e-9);
    }

    // Balanced case: the 250 MHz wide region matches the 500 MHz narrow
    // region exactly (same payload rate), so the narrow NI runs at its
    // full 500/3 = 166.7 flits/us.
    let (rate, _) = rates(&chain(500.0, 250.0));
    assert!((rate - 500.0 / 3.0).abs() < 1e-6);
    println!("\nbalanced configuration sustains the full narrow-region rate");
    println!("(payload conserved: exactly two 32-bit flits per 64-bit flit)");
}
