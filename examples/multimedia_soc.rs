//! A multi-application multimedia SoC — the scenario the paper's
//! introduction motivates: independent applications (video, audio, GUI,
//! control) integrated on one chip, each developed and verified in
//! isolation, with composability guaranteeing that integration changes
//! nothing about their timing.
//!
//! Run with: `cargo run --example multimedia_soc`

use aelite::AeliteSystem;
use aelite_spec::app::SystemSpecBuilder;
use aelite_spec::config::NocConfig;
use aelite_spec::ids::IpId;
use aelite_spec::topology::Topology;
use aelite_spec::traffic::Bandwidth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3x2 concentrated mesh with 2 NIs per router: 12 NI attach points.
    let topo = Topology::mesh(3, 2, 2);
    let nis: Vec<_> = topo.nis().collect();
    let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());

    // IP cores, placed around the chip.
    let ip: Vec<IpId> = (0..12).map(|i| b.add_ip_at(nis[i])).collect();
    let (video_in, video_dec, display, mem0) = (ip[0], ip[1], ip[2], ip[3]);
    let (audio_in, audio_dsp, speakers) = (ip[4], ip[5], ip[6]);
    let (gui, mem1) = (ip[7], ip[8]);
    let (host, sensors, actuators) = (ip[9], ip[10], ip[11]);

    // Four independent applications.
    let video = b.add_app("video decode");
    b.add_connection(
        video,
        video_in,
        video_dec,
        Bandwidth::from_mbytes_per_sec(200),
        300,
    );
    b.add_connection(
        video,
        video_dec,
        mem0,
        Bandwidth::from_mbytes_per_sec(400),
        250,
    );
    b.add_connection(
        video,
        mem0,
        video_dec,
        Bandwidth::from_mbytes_per_sec(400),
        250,
    );
    b.add_connection(
        video,
        video_dec,
        display,
        Bandwidth::from_mbytes_per_sec(250),
        200,
    );

    let audio = b.add_app("audio");
    b.add_connection(
        audio,
        audio_in,
        audio_dsp,
        Bandwidth::from_mbytes_per_sec(12),
        400,
    );
    b.add_connection(
        audio,
        audio_dsp,
        speakers,
        Bandwidth::from_mbytes_per_sec(12),
        150,
    );

    let gfx = b.add_app("GUI");
    b.add_connection(gfx, gui, mem1, Bandwidth::from_mbytes_per_sec(80), 400);
    b.add_connection(gfx, mem1, display, Bandwidth::from_mbytes_per_sec(120), 350);

    let control = b.add_app("control");
    b.add_connection(
        control,
        host,
        sensors,
        Bandwidth::from_mbytes_per_sec(10),
        500,
    );
    b.add_connection(
        control,
        sensors,
        host,
        Bandwidth::from_mbytes_per_sec(10),
        500,
    );
    b.add_connection(
        control,
        host,
        actuators,
        Bandwidth::from_mbytes_per_sec(10),
        450,
    );

    let system = AeliteSystem::design(b.build())?;
    let cycles = 120_000;

    // Each team verifies its application in isolation...
    for (app, name) in [
        (video, "video decode"),
        (audio, "audio"),
        (gfx, "GUI"),
        (control, "control"),
    ] {
        let isolated = system.simulate_apps(&[app], cycles);
        assert!(isolated.service.all_ok(), "{name} fails in isolation");
        println!(
            "{name:>13}: {} connections verified in isolation",
            isolated.service.verdicts.len()
        );
    }

    // ... and integration cannot change any of their timing.
    let integration = system.verify_composability(cycles);
    println!("integration check: {integration}");
    assert!(integration.is_composable());

    // The full system also meets every contract, of course.
    let full = system.simulate(cycles);
    assert!(full.service.all_ok());
    println!(
        "full system: {} connections, peak link utilisation {:.0}%",
        full.service.verdicts.len(),
        system.allocation().peak_utilisation() * 100.0
    );
    Ok(())
}
