//! `serve_repeat`: an in-process `losac_serve::Server` on loopback, driven
//! by closed-loop `ServeClient`s. Each request is one design point over
//! cases 1 and 2; some design points repeat earlier ones, and the
//! daemon's shared `EvalCache` answers their evaluations. One op is one
//! request, timed from submit to its result frame.

use crate::check::{case_tokens, Token};
use crate::inputs::{DesignPoint, TOPOLOGIES};
use crate::ledger::{Ledger, Probe};
use crate::{synth_extract_gap, Budget, OpResult};
use losac_engine::{Engine, EngineOptions, JobOutcome};
use losac_serve::wire::{perf_values, Frame, OutcomeSummary, ShutdownMode};
use losac_serve::{ServeClient, ServeOptions, Server, SubmitRequest, SweepSpec};
use losac_sizing::{TopologyPlan, TopologyRegistry};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Case-1/2 jobs whose gaps enter `synth_extract_dev`.
pub const QUALITY_SAMPLES: usize = 96;

/// Table-1 cases of every request.
pub const CASES: [u8; 2] = [1, 2];

/// The sweep of one request.
pub fn sweep(plans: &[Arc<dyn TopologyPlan>], dp: &DesignPoint) -> SweepSpec {
    let s = dp.specs(plans[dp.topo].as_ref());
    SweepSpec {
        topologies: vec![TOPOLOGIES[dp.topo].to_owned()],
        cases: CASES.to_vec(),
        gbw: vec![s.gbw],
        cl: vec![s.c_load],
        pm: vec![s.phase_margin],
        ..SweepSpec::default()
    }
}

/// Each job's status and both Performance rows, as bit patterns.
type Digest = Vec<(String, Vec<u64>)>;

fn digest_rows(rows: impl Iterator<Item = (String, Vec<f64>)>) -> Digest {
    rows.map(|(s, v)| (s, v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

fn wire_digest(outcomes: &[OutcomeSummary]) -> Digest {
    digest_rows(outcomes.iter().map(|o| {
        let mut v = Vec::new();
        for p in [&o.synthesized, &o.extracted].into_iter().flatten() {
            v.extend(perf_values(p));
        }
        (o.status.clone(), v)
    }))
}

/// The same sweep run offline through `Engine::run_batch`.
fn offline_digest(sweep: &SweepSpec) -> Result<Digest, String> {
    let jobs = sweep.to_jobs().map_err(|e| e.to_string())?;
    let batch = Engine::new(EngineOptions::default()).run_batch(jobs);
    Ok(digest_rows(batch.outcomes.iter().map(|o| {
        let mut v = Vec::new();
        if let JobOutcome::Finished(r) = o {
            v.extend(perf_values(&r.synthesized));
            v.extend(perf_values(&r.extracted));
        }
        (o.status().to_owned(), v)
    })))
}

/// A running daemon and its connected clients.
pub struct Daemon {
    handle: JoinHandle<std::io::Result<()>>,
    addr: std::net::SocketAddr,
    /// Connected clients.
    pub clients: Vec<ServeClient>,
}

impl Daemon {
    /// Bind a daemon on an ephemeral loopback port with `workers` engine
    /// workers, start it and connect `clients` clients.
    ///
    /// # Errors
    ///
    /// Bind or connect failures.
    pub fn start(workers: usize, clients: usize) -> std::io::Result<Daemon> {
        let server = Server::bind(
            ServeOptions::default()
                .with_addr("127.0.0.1:0")
                .with_engine(EngineOptions::with_workers(workers)),
        )?;
        let addr = server.local_addr()?;
        let handle = std::thread::spawn(move || server.run());
        let clients = (0..clients)
            .map(|_| ServeClient::connect(addr))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Daemon {
            handle,
            addr,
            clients,
        })
    }

    /// Drain the daemon and wait for it to exit.
    ///
    /// # Errors
    ///
    /// A failed shutdown request or a daemon that exited with an error.
    pub fn stop(self) -> Result<(), String> {
        let mut c = ServeClient::connect(self.addr).map_err(|e| e.to_string())?;
        c.shutdown(ShutdownMode::Drain).map_err(|e| e.to_string())?;
        drop(c);
        drop(self.clients);
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?
            .map_err(|e| e.to_string())
    }
}

/// The inputs of a `serve_repeat` run, made in set-up.
pub struct ServeRepeat {
    plans: Vec<Arc<dyn TopologyPlan>>,
    points: Vec<DesignPoint>,
}

/// What one request returned, kept for the offline comparison.
#[derive(Debug)]
pub struct Served {
    /// Design point of the request.
    pub dp: DesignPoint,
    /// Status and bits of each job.
    pub digest: Digest,
}

impl ServeRepeat {
    /// Topology plans and the seeded request list.
    pub fn setup(seed: u64, n: usize) -> ServeRepeat {
        ServeRepeat {
            plans: crate::inputs::plans(&TopologyRegistry::builtin()),
            points: crate::inputs::serve_points(seed, n),
        }
    }

    /// The topology plans, for [`verify_offline`].
    pub fn plans(&self) -> &[Arc<dyn TopologyPlan>] {
        &self.plans
    }

    /// Design point of request `seq`.
    pub fn point(&self, seq: usize) -> DesignPoint {
        self.points[seq % self.points.len()]
    }

    /// Send request `seq` on `client` and wait for its result frame.
    fn request(&self, client: &mut ServeClient, seq: usize) -> (OpResult, Option<(Served, Frame)>) {
        let dp = self.point(seq);
        let submit = SubmitRequest {
            id: Some(format!("r{seq}")),
            sweep: sweep(&self.plans, &dp),
            ..SubmitRequest::default()
        };
        let t0 = Instant::now();
        let reply = client
            .submit(&submit)
            .and_then(|id| client.wait_result(&id));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let frame = match reply {
            Ok((frame, _)) => frame,
            Err(e) => {
                let r = OpResult {
                    seq,
                    ms,
                    output: Err(format!("request {seq}: {e}")),
                    gaps: Vec::new(),
                };
                return (r, None);
            }
        };
        let Frame::Result { outcomes, .. } = &frame else {
            let r = OpResult {
                seq,
                ms,
                output: Err(format!("request {seq}: expected a result frame")),
                gaps: Vec::new(),
            };
            return (r, None);
        };
        let mut rows = Vec::new();
        let mut gaps = Vec::new();
        for (o, case) in outcomes.iter().zip(CASES) {
            let key = format!("{}/case{case}", dp.key());
            match (o.status.as_str(), &o.synthesized, &o.extracted) {
                ("finished", Some(s), Some(e)) => {
                    gaps.push(synth_extract_gap(s, e));
                    rows.push((key, case_tokens(s, e)));
                }
                (status, _, _) => rows.push((key, vec![Token::Word(status.to_owned())])),
            }
        }
        if outcomes.len() != CASES.len() {
            rows.push((
                format!("{}/jobs", dp.key()),
                vec![Token::Num(outcomes.len() as f64)],
            ));
        }
        let served = Served {
            dp,
            digest: wire_digest(outcomes),
        };
        let r = OpResult {
            seq,
            ms,
            output: Ok(rows),
            gaps,
        };
        (r, Some((served, frame)))
    }

    /// Closed-loop clients until the budget is spent: client `k` sends
    /// requests `k`, `k + n`, `k + 2n`, … of the seeded list; a
    /// [`crate::host::sample`] precedes each.
    pub fn run(&self, daemon: &mut Daemon, budget: &Budget) -> (Vec<OpResult>, Vec<Served>) {
        let n = daemon.clients.len();
        let per_client: Vec<(Vec<OpResult>, Vec<Served>)> = std::thread::scope(|s| {
            let handles: Vec<_> = daemon
                .clients
                .iter_mut()
                .enumerate()
                .map(|(k, client)| {
                    s.spawn(move || {
                        let mut ops = Vec::new();
                        let mut served = Vec::new();
                        let mut seq = k;
                        while budget.allows(seq) {
                            crate::host::sample();
                            let (r, got) = self.request(client, seq);
                            ops.push(r);
                            served.extend(got.map(|g| g.0));
                            seq += n;
                        }
                        (ops, served)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut ops = Vec::new();
        let mut served = Vec::new();
        for (o, s) in per_client {
            ops.extend(o);
            served.extend(s);
        }
        ops.sort_by_key(|o| o.seq);
        (ops, served)
    }

    /// One client, serial: even requests run untraced, odd ones traced
    /// with counter deltas and the serving layer's wait. (Sending one
    /// design point twice would make the traced copy a cache hit.)
    pub fn run_traced(
        &self,
        daemon: &mut Daemon,
        budget: &Budget,
        lg: &mut Ledger,
    ) -> (Vec<OpResult>, Vec<Served>) {
        let client = &mut daemon.clients[0];
        let mut ops = Vec::new();
        let mut served = Vec::new();
        for seq in 0.. {
            if !budget.allows(seq) {
                break;
            }
            if seq % 2 == 0 {
                let (plain, got) = self.request(client, seq);
                lg.untraced_ms.push(plain.ms);
                ops.push(plain);
                served.extend(got.map(|g| g.0));
                continue;
            }
            let before = Probe::read();
            let root = lg.open(seq as u64, None, "serve.request");
            let (traced, got) = self.request(client, seq);
            let ms = lg.close(root);
            lg.op_deltas.push(Probe::read().since(&before));
            lg.traced_ms.push(ms);
            match &got {
                Some((
                    _,
                    Frame::Result {
                        telemetry,
                        outcomes,
                        ..
                    },
                )) => {
                    lg.engine.layout_calls.extend(
                        outcomes
                            .iter()
                            .filter_map(|o| o.layout_calls)
                            .map(|c| c as f64),
                    );
                    let field = |k: &str| telemetry.get(k).and_then(|v| v.as_f64());
                    let wall_ms = field("wall_s").unwrap_or(0.0) * 1e3;
                    lg.serve.engine_ms.push(wall_ms);
                    lg.serve.wait_ms.push(ms - wall_ms);
                    lg.engine.utilization.extend(field("utilization"));
                    lg.engine.retries += field("retries").unwrap_or(0.0) as u64;
                    lg.engine.degraded += field("degraded").unwrap_or(0.0) as u64;
                }
                _ => lg.serve.errors += 1,
            }
            ops.push(traced);
            served.extend(got.map(|g| g.0));
        }
        (ops, served)
    }
}

/// Compare every served result with an offline `Engine::run_batch` of the
/// same sweep, bit for bit. Returns the request design points whose
/// results differ, with the reason.
pub fn verify_offline(
    plans: &[Arc<dyn TopologyPlan>],
    served: &[Served],
) -> HashMap<DesignPoint, String> {
    let mut reference: HashMap<DesignPoint, Result<Digest, String>> = HashMap::new();
    let mut bad = HashMap::new();
    for s in served {
        let want = reference
            .entry(s.dp)
            .or_insert_with(|| offline_digest(&sweep(plans, &s.dp)));
        match want {
            Ok(w) if *w == s.digest => {}
            Ok(_) => {
                bad.insert(
                    s.dp,
                    format!(
                        "{}: daemon result differs from offline run_batch",
                        s.dp.key()
                    ),
                );
            }
            Err(e) => {
                bad.insert(
                    s.dp,
                    format!("{}: offline run_batch failed: {e}", s.dp.key()),
                );
            }
        }
    }
    bad
}
