//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload table1_mix|corner_sweep|serve_repeat --seed N
//!           --seconds S --trace 0|1
//! perfbench --write-reference
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! serial traced run and reports the per-layer metrics, writing its spans
//! to `.bench_trace/<workload>-seed<N>.jsonl`. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! run's environment. `--write-reference` recomputes the reference tables
//! under `reference/`.

use losac_perfbench::check::{self, Token};
use losac_perfbench::corner::{self, CornerSweep};
use losac_perfbench::inputs::{self, DesignPoint};
use losac_perfbench::ledger::Ledger;
use losac_perfbench::serve::{self, Daemon, ServeRepeat, Served};
use losac_perfbench::table1::{self, Table1};
use losac_perfbench::{
    failures, host, peak_rss_mb, reference, reference_dir, stats, synth_extract_dev, Budget,
    OpResult,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload table1_mix|corner_sweep|serve_repeat --seed N --seconds S --trace 0|1
       perfbench --write-reference";

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Pause before each set-up after the first. A set-up takes tens of
/// microseconds; run back to back, set-ups read the host's speed of that
/// moment, which swings by up to 1.7x within seconds. After a pause each
/// set-up starts cold, as a process's one real set-up does, and their
/// median holds within 10 % from run to run.
const SETUP_PAUSE: Duration = Duration::from_millis(20);
/// Where traced runs write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";
/// Engine workers and serving clients of the untraced runs (the host's
/// two CPUs).
const PARALLELISM: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Table1Mix,
    CornerSweep,
    ServeRepeat,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "table1_mix" => Some(Workload::Table1Mix),
            "corner_sweep" => Some(Workload::CornerSweep),
            "serve_repeat" => Some(Workload::ServeRepeat),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table1Mix => "table1_mix",
            Workload::CornerSweep => "corner_sweep",
            Workload::ServeRepeat => "serve_repeat",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    WriteReference,
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::parse(&v)
                        .ok_or_else(|| format!("unknown workload {v:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--write-reference" => return Ok(Mode::WriteReference),
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    let missing = |n: &str| format!("{n} is required\n{USAGE}");
    Ok(Mode::Run(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?.max(1),
        trace: trace.ok_or_else(|| missing("--trace"))?,
    }))
}

/// A workload's inputs (and, for `serve_repeat`, its running daemon).
enum Prepared {
    Table1(Table1),
    Corner(CornerSweep),
    Serve(ServeRepeat, Daemon),
}

/// Build a workload's inputs (and start its daemon): everything up to
/// the first op.
fn prepare(args: &Args) -> Result<Prepared, String> {
    let s = args.seconds as usize;
    Ok(match args.workload {
        Workload::Table1Mix => Prepared::Table1(Table1::setup(args.seed, 10 * s)),
        Workload::CornerSweep => Prepared::Corner(CornerSweep::setup(args.seed, 10 * s)),
        Workload::ServeRepeat => {
            let workers = if args.trace { 1 } else { PARALLELISM };
            let daemon = Daemon::start(workers, workers).map_err(|e| format!("daemon: {e}"))?;
            let w = ServeRepeat::setup(args.seed, inputs::SERVE_MAX_REQUESTS);
            Prepared::Serve(w, daemon)
        }
    })
}

impl Prepared {
    fn release(self) -> Result<(), String> {
        match self {
            Prepared::Serve(_, daemon) => daemon.stop(),
            _ => Ok(()),
        }
    }
}

/// Everything a run produced.
struct RunOutput {
    ops: Vec<OpResult>,
    served: Vec<Served>,
    window_s: f64,
    /// Share of the CPU time wanted during the window that the host stole.
    stolen: f64,
    ledger: Option<Ledger>,
}

fn run(args: &Args, prepared: &mut Prepared) -> RunOutput {
    let budget = Budget {
        until: Instant::now() + Duration::from_secs(args.seconds),
        max_ops: match args.workload {
            Workload::ServeRepeat => inputs::SERVE_MAX_REQUESTS,
            _ => usize::MAX,
        },
    };
    let mut ledger = args.trace.then(Ledger::default);
    let cpu0 = host::CpuTimes::read();
    let t0 = Instant::now();
    let (ops, served) = match (prepared, ledger.as_mut()) {
        (Prepared::Table1(w), None) => (w.run(&budget), Vec::new()),
        (Prepared::Table1(w), Some(lg)) => (w.run_traced(&budget, lg), Vec::new()),
        (Prepared::Corner(w), None) => (w.run(&budget, PARALLELISM), Vec::new()),
        (Prepared::Corner(w), Some(lg)) => (w.run_traced(&budget, lg), Vec::new()),
        (Prepared::Serve(w, d), None) => w.run(d, &budget),
        (Prepared::Serve(w, d), Some(lg)) => w.run_traced(d, &budget, lg),
    };
    let window_s = t0.elapsed().as_secs_f64();
    let stolen = match (cpu0, host::CpuTimes::read()) {
        (Some(before), Some(after)) => after.stolen_since(&before),
        _ => 0.0,
    };
    RunOutput {
        ops,
        served,
        window_s,
        stolen,
        ledger,
    }
}

/// Check every op against the reference tables (and, for
/// `serve_repeat`, against an offline run of each served sweep); returns
/// the number of failed ops, printing the first few reasons.
fn check_outputs(args: &Args, prepared: &Prepared, out: &RunOutput) -> Result<usize, String> {
    let table = reference(match args.workload {
        Workload::CornerSweep => "corner.tsv",
        _ => "cases.tsv",
    })?;
    let failed = match prepared {
        Prepared::Serve(w, _) => {
            let bad = serve::verify_offline(w.plans(), &out.served);
            failures(&table, &out.ops, |op| match bad.get(&w.point(op.seq)) {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            })
        }
        _ => failures(&table, &out.ops, |_| Ok(())),
    };
    for e in failed.iter().take(5) {
        eprintln!("perfbench: {e}");
    }
    Ok(failed.len())
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of a git checkout in the working directory, read from
/// `.git` directly; "unknown" elsewhere.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

fn env_line(args: &Args, attempted: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"ops\":{attempted},\"solver\":\"{:?}\",\"deriv\":\"{:?}\",\"nproc\":{nproc},\"rustc\":{},\"git\":{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        losac_sim::solver_kind(),
        losac_device::deriv_kind(),
        losac_obs::json::string(&rustc_version()),
        losac_obs::json::string(&git_revision()),
    )
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}",
                losac_obs::json::number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn bench(args: &Args, started: Instant) -> Result<(), String> {
    // Set up several times; the first set-up is timed from process start.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for i in 0..SETUPS {
        if i > 0 {
            std::thread::sleep(SETUP_PAUSE);
        }
        let t0 = if i == 0 { started } else { Instant::now() };
        let p = prepare(args)?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = prepared.replace(p) {
            Prepared::release(previous)?;
        }
    }
    let mut prepared = prepared.expect("at least one set-up");
    let setup_s = stats::median(&setups);
    eprintln!(
        "perfbench: {SETUPS} set-ups: first {:.6} s, median {setup_s:.6} s, max {:.6} s",
        setups[0],
        setups.iter().copied().fold(0.0, f64::max)
    );

    let out = run(args, &mut prepared);
    let peak_rss = peak_rss_mb();
    let attempted = out.ops.len();
    if let Prepared::Serve(w, _) = &prepared {
        let points: Vec<DesignPoint> = out.ops.iter().map(|o| w.point(o.seq)).collect();
        eprintln!(
            "perfbench: {:.4} of {attempted} requests repeat an earlier design point",
            inputs::repeat_share(&points)
        );
    }
    let failed = check_outputs(args, &prepared, &out)?;
    prepared.release()?;

    let quality_samples = match args.workload {
        Workload::Table1Mix => table1::QUALITY_SAMPLES,
        Workload::CornerSweep => corner::QUALITY_SAMPLES,
        Workload::ServeRepeat => serve::QUALITY_SAMPLES,
    };
    let metrics: Vec<(&str, f64, &str)> = match &out.ledger {
        None => {
            let ms: Vec<f64> = out.ops.iter().map(|o| o.ms).collect();
            // Reported at the reference host speed (see `host`); the
            // figures as measured go to standard error.
            let timings = [
                ("ops_per_s", attempted as f64 / out.window_s, "1/s"),
                ("op_ms_p50", stats::percentile(&ms, 0.5), "ms"),
                ("op_ms_p90", stats::percentile(&ms, 0.9), "ms"),
            ];
            let gauge = host::slowdown();
            // A host stealing half the CPU time is too loaded to correct for.
            let slowdown = gauge / (1.0 - out.stolen.min(0.5));
            eprintln!(
                "perfbench: host slowdown {slowdown:.4}: gauge {gauge:.4} (median of {} samples over {} ms), {:.4} of wanted CPU time stolen",
                host::samples(),
                host::REFERENCE_MS,
                out.stolen
            );
            for (n, v, u) in timings {
                eprintln!("perfbench: {:<34} {v:>14.6} {u} as measured", n);
            }
            let mut metrics: Vec<(&str, f64, &str)> = timings
                .into_iter()
                .map(|(n, v, u)| match u {
                    "1/s" => (n, v * slowdown, u),
                    _ => (n, v / slowdown, u),
                })
                .collect();
            metrics.insert(0, ("setup_s", setup_s, "s"));
            metrics.extend([
                ("peak_rss_mb", peak_rss, "MiB"),
                (
                    "synth_extract_dev",
                    synth_extract_dev(&out.ops, quality_samples),
                    "frac",
                ),
            ]);
            metrics
        }
        Some(lg) => {
            let dir = Path::new(TRACE_DIR);
            std::fs::create_dir_all(dir).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
            let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
            std::fs::write(&path, lg.to_jsonl(&env_line(args, attempted)))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            lg.per_layer()
        }
    };
    for (n, v, u) in &metrics {
        eprintln!("perfbench: {:<34} {v:>14.6} {u}", n);
    }
    eprintln!(
        "perfbench: {:<34} {:>14.6} frac ({failed} of {attempted} ops failed)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", env_line(args, attempted));
    println!(
        "{}",
        result_line(
            failed == 0 && attempted > 0,
            attempted.max(1),
            failed,
            &metrics
        )
    );
    Ok(())
}

/// Recompute `reference/cases.tsv` (every grid point through cases 1–4)
/// and `reference/corner.tsv` (every folded-cascode point's corner sweep).
fn write_reference() -> Result<(), String> {
    let dir = reference_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let all = DesignPoint::all();
    let work: Vec<(DesignPoint, losac_core::Case)> = all
        .iter()
        .flat_map(|dp| losac_core::Case::ALL.iter().map(move |c| (*dp, *c)))
        .collect();
    let registry = losac_sizing::TopologyRegistry::builtin();
    let plans = inputs::plans(&registry);
    let tech = losac_tech::Technology::cmos06();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut rows: Vec<(usize, String, Vec<Token>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..PARALLELISM)
            .map(|_| {
                s.spawn(|| {
                    let mut rows = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(dp, case)) = work.get(i) else {
                            break;
                        };
                        let plan = &plans[dp.topo];
                        let opts = losac_core::CaseOptions::builder()
                            .with_plan(plan.clone())
                            .build();
                        let r =
                            losac_core::run_case_with(&tech, &dp.specs(plan.as_ref()), case, &opts);
                        let tokens = match r {
                            Ok(r) => check::case_tokens(&r.synthesized, &r.extracted),
                            Err(e) => vec![Token::Word(format!(
                                "error:{}",
                                e.to_string().replace(['\t', '\n'], " ")
                            ))],
                        };
                        rows.push((i, table1::key(&dp, case), tokens));
                    }
                    rows
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    });
    rows.sort_by_key(|r| r.0);
    let errors = rows
        .iter()
        .filter(|r| matches!(r.2.first(), Some(Token::Word(_))))
        .count();
    let rows: Vec<(String, Vec<Token>)> = rows.into_iter().map(|r| (r.1, r.2)).collect();
    let text = check::render(
        "synthesized then extracted Performance (11 fields each, IEEE-754 bits) of every grid point and case",
        &rows,
    );
    std::fs::write(dir.join("cases.tsv"), text).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: cases.tsv: {} rows, {errors} failed cases",
        rows.len()
    );

    let tech = std::sync::Arc::new(losac_tech::Technology::cmos06());
    let plan = losac_sizing::FoldedCascodePlan::default();
    let mut rows = Vec::new();
    for dp in all.iter().filter(|d| d.topo == 0) {
        let jobs = corner::jobs(&tech, &plan, dp);
        let batch =
            losac_engine::Engine::new(losac_engine::EngineOptions::with_workers(PARALLELISM))
                .run_batch(jobs.clone());
        rows.extend(corner::outputs(dp, &jobs, &batch)?);
    }
    let text = check::render(
        "yield/Cpk row, then each scenario job's status and Performance rows, of every folded-cascode grid point",
        &rows,
    );
    std::fs::write(dir.join("corner.tsv"), text).map_err(|e| e.to_string())?;
    eprintln!("perfbench: corner.tsv: {} rows", rows.len());
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    for var in ["LOSAC_SOLVER", "LOSAC_DERIV"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: {var} is set; the benchmark runs the default kernels only");
            return ExitCode::from(2);
        }
    }
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::WriteReference => write_reference(),
        Mode::Run(args) => bench(&args, started),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
