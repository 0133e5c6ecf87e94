//! Simulator benchmarks: DC operating point and AC sweep of the paper's
//! folded-cascode OTA. These are called dozens of times per sizing run,
//! hundreds per Table-1 regeneration.

use criterion::{criterion_group, criterion_main, Criterion};
use losac_sim::ac::{ac_sweep, AcOptions};
use losac_sim::dc::{dc_operating_point, DcOptions};
use losac_sizing::{FoldedCascodePlan, InputDrive, OtaSpecs, ParasiticMode, Topology};
use losac_tech::Technology;

fn bench_simulator(c: &mut Criterion) {
    let tech = Technology::cmos06();
    let specs = OtaSpecs::paper_example();
    let ota = FoldedCascodePlan::default()
        .size(&tech, &specs, &ParasiticMode::None)
        .expect("sizes");
    let circuit = ota.netlist(
        &tech,
        &ParasiticMode::None,
        InputDrive::Differential { dv: 0.0 },
    );
    let dc = dc_operating_point(&circuit, &DcOptions::default()).expect("dc");

    c.bench_function("dc_operating_point_ota", |b| {
        b.iter(|| dc_operating_point(&circuit, &DcOptions::default()).unwrap())
    });

    c.bench_function("ac_sweep_ota_100pts", |b| {
        b.iter(|| {
            ac_sweep(
                &circuit,
                &dc,
                &AcOptions {
                    fstart: 1e2,
                    fstop: 1e10,
                    points_per_decade: 12,
                    threads: 1,
                },
            )
            .unwrap()
        })
    });

    // Same grid on a pre-built linearisation, serial vs fanned out —
    // results are bitwise identical at every thread count.
    let lin = losac_sim::linear::Linearized::build(&circuit, &dc);
    for threads in [1usize, 2, 4] {
        c.bench_function(&format!("ac_sweep_on_100pts_{threads}t"), |b| {
            b.iter(|| {
                losac_sim::ac::ac_sweep_on(
                    &lin,
                    &AcOptions {
                        fstart: 1e2,
                        fstop: 1e10,
                        points_per_decade: 12,
                        threads,
                    },
                )
                .unwrap()
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_simulator
}
criterion_main!(benches);
