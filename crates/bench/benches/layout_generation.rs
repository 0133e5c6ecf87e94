//! Layout-generation benchmarks — the paper's core feasibility argument:
//! "it must be fast as it is normally called several times during circuit
//! sizing". Procedural generation (row building, full OTA plan with area
//! optimisation, routing and extraction) must run in milliseconds so the
//! parasitic-calculation mode can sit inside the sizing loop.

use criterion::{criterion_group, criterion_main, Criterion};
use losac_core::layout_gen::{topology_layout_plan, LayoutOptions};
use losac_layout::extract::extract_default;
use losac_layout::row::{build_row, Finger, RowSpec};
use losac_layout::slicing::ShapeConstraint;
use losac_sizing::{FoldedCascodePlan, OtaSpecs, ParasiticMode};
use losac_tech::units::um;
use losac_tech::{Polarity, Technology};
use std::collections::HashMap;

fn bench_layout(c: &mut Criterion) {
    let tech = Technology::cmos06();

    // A representative 8-finger row.
    let spec = RowSpec {
        name: "m".into(),
        polarity: Polarity::Nmos,
        finger_w: um(6.0),
        gate_l: um(1.0),
        strip_nets: (0..9)
            .map(|i| if i % 2 == 0 { "s".into() } else { "d".into() })
            .collect(),
        fingers: (0..8)
            .map(|i| Finger {
                gate_net: "g".into(),
                device: Some("m".into()),
                flipped: i % 2 == 1,
            })
            .collect(),
        bulk_net: "gnd".into(),
        net_currents: HashMap::new(),
    };
    c.bench_function("row_build_8_fingers", |b| {
        b.iter(|| build_row(&tech, &spec).unwrap())
    });

    let specs = OtaSpecs::paper_example();
    let ota = FoldedCascodePlan::default()
        .size(&tech, &specs, &ParasiticMode::None)
        .expect("sizes");
    let plan = topology_layout_plan(&tech, &ota, &LayoutOptions::default());

    c.bench_function("ota_parasitic_calculation_mode", |b| {
        b.iter(|| {
            plan.calculate_parasitics(&tech, ShapeConstraint::MinArea)
                .unwrap()
        })
    });

    c.bench_function("ota_generation_mode", |b| {
        b.iter(|| plan.generate(&tech, ShapeConstraint::MinArea).unwrap())
    });

    let generated = plan.generate(&tech, ShapeConstraint::MinArea).unwrap();
    c.bench_function("ota_extraction_only", |b| {
        b.iter(|| extract_default(&tech, &generated.cell))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_layout
}
criterion_main!(benches);
