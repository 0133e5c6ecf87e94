//! Alternative topologies: a Miller-compensated two-stage OTA and a
//! telescopic cascode, sized and verified with the same pipeline — the
//! extensibility the paper claims for its hierarchical design plans.
//!
//! ```sh
//! cargo run --release --example two_stage_flow
//! ```

use losac::sizing::eval::evaluate;
use losac::sizing::offset_monte_carlo;
use losac::sizing::ota::telescopic::telescopic_example_specs;
use losac::sizing::{FoldedCascodePlan, Topology};
use losac::sizing::{MatchingStyle, OtaSpecs, ParasiticMode, TelescopicPlan, TwoStagePlan};
use losac::tech::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();

    println!("sizing the two-stage Miller OTA for: {specs}\n");
    let two_stage = TwoStagePlan::default().size(&tech, &specs, &ParasiticMode::None)?;
    println!(
        "Miller capacitor: {:.2} pF; tail {:.0} uA, second stage {:.0} uA",
        two_stage.cc * 1e12,
        two_stage.i_tail * 1e6,
        two_stage.i_stage2 * 1e6
    );
    let p2 = evaluate(&two_stage, &tech, &ParasiticMode::None)?;
    println!("\ntwo-stage performance:\n{p2}");

    // Compare against the folded cascode on the same spec.
    let fc = FoldedCascodePlan::default().size(&tech, &specs, &ParasiticMode::None)?;
    let p1 = evaluate(&fc, &tech, &ParasiticMode::None)?;
    println!("\nfolded-cascode performance (same spec):\n{p1}");

    println!("\ncomparison:");
    println!(
        "  gain:  two-stage {:.1} dB vs folded-cascode {:.1} dB",
        p2.dc_gain_db, p1.dc_gain_db
    );
    println!(
        "  Rout:  two-stage {:.0} kOhm vs folded-cascode {:.2} MOhm",
        p2.output_resistance / 1e3,
        p1.output_resistance / 1e6
    );

    // Third topology: the telescopic cascode (narrower swing, lower
    // power), composed from the building-block routines.
    let tele_specs = telescopic_example_specs();
    let tele = TelescopicPlan::default().size(&tech, &tele_specs, &ParasiticMode::None)?;
    let p3 = evaluate(&tele, &tech, &ParasiticMode::None)?;
    println!(
        "\ntelescopic cascode (narrow-swing spec): gain {:.1} dB, GBW {:.1} MHz, \
         power {:.2} mW (folded cascode: {:.2} mW)",
        p3.dc_gain_db,
        p3.gbw / 1e6,
        p3.power * 1e3,
        p1.power * 1e3
    );

    // The statistical interface reads the matched pairs off each
    // topology's own layout description, so it covers all three.
    println!();
    let sized: [&dyn Topology; 3] = [&fc, &two_stage, &tele];
    for ota in sized {
        let st = offset_monte_carlo(ota, &tech, MatchingStyle::CommonCentroid, 10.0, 2000, 1);
        println!(
            "{} Monte-Carlo offset: mean {:+.3} mV, sigma {:.3} mV ({} samples)",
            ota.topology_name(),
            st.mean * 1e3,
            st.sigma * 1e3,
            st.samples
        );
    }
    Ok(())
}
