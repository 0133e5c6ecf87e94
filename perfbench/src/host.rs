//! Host-speed gauge.
//!
//! The benchmark runs on two virtual CPUs of a shared machine. How fast
//! the program runs there drifts with the other tenants' load: one
//! fixed case run took 46 ms and, four minutes later in the same
//! process, 78 ms; two processes running side by side drifted apart.
//! The drift hits allocation-heavy code: timed between the program's
//! ops, a fixed loop of small allocations slowed in step with them,
//! while loops of atomic adds, of pointer chasing in a private 1 MiB
//! buffer and of `exp`/`ln` stayed flat. So before each op the thread
//! about to issue it times that allocation loop ([`sample`]), and the
//! window's timings are reported at a reference host speed: divided by
//! [`slowdown`], the loop's median time over [`REFERENCE_MS`].
//!
//! The loop is the benchmark's own code and calls nothing of the
//! program, so a change to the program moves the reported timings in
//! full. Its allocations are small and few enough to stay in the
//! allocator's per-thread cache.
//!
//! The host also takes whole virtual CPUs away for a while ("steal"
//! time). A half-millisecond loop rarely meets that, and its median
//! ignores it, but ops of tens of milliseconds meet it in proportion:
//! a `serve_repeat` run in which 12 % of the CPU time wanted was stolen
//! ran its requests 1.2x slower. [`CpuTimes`] reads that share from
//! `/proc/stat`; the slowdown a run's timings are corrected by is the
//! gauge divided by the share left.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The loop's median time (ms) on an unloaded host: a 2.1 GHz Xeon
/// virtual machine.
pub const REFERENCE_MS: f64 = 0.45;

static SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Push and drop short vectors of 1–17 floats, at most 64 alive.
fn kernel() {
    let mut live: Vec<Vec<f64>> = Vec::with_capacity(65);
    for i in 0..30_000usize {
        live.push(vec![i as f64; 1 + i % 17]);
        if live.len() > 64 {
            live.swap_remove(i % 64);
        }
    }
    black_box(&live);
}

/// Time the loop once on this thread and keep its time over
/// [`REFERENCE_MS`] for [`slowdown`].
pub fn sample() {
    let t0 = Instant::now();
    kernel();
    let s = t0.elapsed().as_secs_f64() * 1e3 / REFERENCE_MS;
    SAMPLES.lock().expect("gauge samples").push(s);
}

/// Number of samples kept so far.
pub fn samples() -> usize {
    SAMPLES.lock().expect("gauge samples").len()
}

/// Median of the kept samples: above 1 when the host ran slower than
/// the reference. 1 before any sample.
pub fn slowdown() -> f64 {
    let s = SAMPLES.lock().expect("gauge samples");
    if s.is_empty() {
        1.0
    } else {
        crate::stats::median(&s)
    }
}

/// The machine's CPU time so far (clock ticks, all CPUs), from the first
/// line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    /// Time the CPUs ran something or wanted to but were stolen.
    wanted: u64,
    /// Time the hypervisor ran something else while a CPU wanted to run.
    stolen: u64,
}

impl CpuTimes {
    /// Current totals; `None` where `/proc/stat` cannot be read.
    pub fn read() -> Option<CpuTimes> {
        let text = std::fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = text
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        let stolen = at(7);
        Some(CpuTimes {
            wanted: at(0) + at(1) + at(2) + at(5) + at(6) + stolen,
            stolen,
        })
    }

    /// Share of the CPU time wanted since `before` that was stolen.
    pub fn stolen_since(&self, before: &CpuTimes) -> f64 {
        let wanted = self.wanted.saturating_sub(before.wanted);
        let stolen = self.stolen.saturating_sub(before.stolen);
        if wanted == 0 {
            0.0
        } else {
            stolen as f64 / wanted as f64
        }
    }
}
