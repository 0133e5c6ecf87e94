//! The `losac-serve` daemon: a TCP listener, per-connection handler
//! threads, and a single dispatcher thread that drains a priority queue
//! of accepted requests through the batch [`Engine`].
//!
//! Batches run **one at a time** — parallelism lives inside the batch
//! (the engine's worker fleet), which keeps event attribution trivial
//! (every forwarded `engine.*` record belongs to the running request)
//! and makes the daemon's results bitwise-identical to an offline
//! [`Engine::run_batch`] of the same jobs regardless of how many clients
//! race their submits.

use crate::wire::{self, ErrorCode, Request, ShutdownMode, StatusInfo, SubmitRequest, WireError};
use losac_engine::{CancelToken, Engine, EngineOptions, SynthesisJob};
use losac_obs::{Record, RecordKind, Sink};
use losac_sizing::EvalCache;
use std::collections::BinaryHeap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocked `read_line` waits before re-checking the shutdown
/// flag. Partial lines survive the timeout (the buffer persists).
const READ_TIMEOUT: Duration = Duration::from_millis(200);
/// A client that cannot absorb a frame within this budget is declared
/// dead instead of blocking the dispatcher.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// Dispatcher wake-up cadence when idle.
const IDLE_WAIT: Duration = Duration::from_millis(100);
/// Accept-loop poll cadence (the listener runs non-blocking so the loop
/// can observe shutdown).
const ACCEPT_POLL: Duration = Duration::from_millis(15);

/// Daemon configuration. Construct with [`ServeOptions::default`] and
/// refine with the `with_*` methods.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeOptions {
    /// Address to bind; port 0 picks a free port (the bound address is
    /// announced in the `listening` frame). Default `127.0.0.1:0`.
    pub addr: String,
    /// Engine configuration for every batch. Its `cache` and `deadline`
    /// fields are overwritten per request by the dispatcher.
    pub engine: EngineOptions,
    /// Maximum submits a single connection may have queued or running at
    /// once; 0 = unlimited. Default 0.
    pub quota: usize,
    /// Directory for the persistent evaluation cache; `None` keeps the
    /// cache in memory only (still shared across every batch the daemon
    /// runs). Default `None`.
    pub cache_dir: Option<PathBuf>,
    /// Maximum requests queued across all clients before submits are
    /// rejected as `overloaded`. Default 256.
    pub max_queue: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            engine: EngineOptions::default(),
            quota: 0,
            cache_dir: None,
            max_queue: 256,
        }
    }
}

impl ServeOptions {
    /// Bind address (`host:port`; port 0 = ephemeral).
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Engine configuration used for every batch.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineOptions) -> Self {
        self.engine = engine;
        self
    }

    /// Per-connection in-flight submit quota (0 = unlimited).
    #[must_use]
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = quota;
        self
    }

    /// Persist the evaluation cache under `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Global queue capacity.
    #[must_use]
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }
}

/// One connected client. The writer half is shared between the client's
/// handler thread (acks, errors) and the dispatcher (results, events);
/// a failed or timed-out write marks the client dead so the dispatcher
/// never blocks on a stuck peer.
struct ClientHandle {
    writer: Mutex<BufWriter<TcpStream>>,
    inflight: AtomicUsize,
    alive: AtomicBool,
}

impl ClientHandle {
    fn new(stream: TcpStream) -> Self {
        Self {
            writer: Mutex::new(BufWriter::new(stream)),
            inflight: AtomicUsize::new(0),
            alive: AtomicBool::new(true),
        }
    }

    /// Write one frame line; errors demote the client to dead.
    fn send_line(&self, frame: &str) {
        if !self.alive.load(Ordering::Acquire) {
            return;
        }
        let mut w = self.writer.lock().expect("client writer poisoned");
        let ok = w
            .write_all(frame.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
            .is_ok();
        if !ok {
            self.alive.store(false, Ordering::Release);
        }
    }
}

/// A queued submit, ordered by (priority desc, arrival asc).
struct QueuedRequest {
    priority: i64,
    seq: u64,
    id: String,
    jobs: Vec<SynthesisJob>,
    deadline: Option<Instant>,
    subscribe: bool,
    client: Arc<ClientHandle>,
    cancelled: Arc<AtomicBool>,
}

impl PartialEq for QueuedRequest {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedRequest {}
impl PartialOrd for QueuedRequest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedRequest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins, then earlier
        // arrival (smaller seq).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct QueueState {
    queue: BinaryHeap<QueuedRequest>,
    /// Id and cancel handles of the request a batch is running for.
    running: Option<(String, CancelToken, Arc<AtomicBool>)>,
    next_seq: u64,
}

struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// No new submits; queue still drains.
    draining: AtomicBool,
    /// Cancel in-flight work instead of finishing it.
    abort: AtomicBool,
    /// Accept loop, handlers and dispatcher exit.
    stopping: AtomicBool,
    jobs_done: AtomicU64,
    cache: Arc<EvalCache>,
    quota: usize,
    max_queue: usize,
    workers: usize,
    engine: EngineOptions,
}

impl Shared {
    fn wake(&self) {
        self.cv.notify_all();
    }

    fn queued(&self) -> u64 {
        let state = self.state.lock().expect("queue poisoned");
        state
            .queue
            .iter()
            .filter(|r| !r.cancelled.load(Ordering::Acquire))
            .count() as u64
    }

    fn status(&self) -> StatusInfo {
        let running = {
            let state = self.state.lock().expect("queue poisoned");
            u64::from(state.running.is_some())
        };
        StatusInfo {
            state: if self.draining.load(Ordering::Acquire) {
                "draining".to_owned()
            } else {
                "accepting".to_owned()
            },
            queued: self.queued(),
            running,
            jobs_done: self.jobs_done.load(Ordering::Acquire),
            workers: self.workers as u64,
            cache_entries: self.cache.len() as u64,
            counters: losac_obs::metrics::snapshot()
                .counters
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        }
    }
}

/// Forwards the running batch's `engine.*` telemetry events to the
/// subscribed client as `event` frames. Installed only while that
/// request's batch runs.
struct ForwardSink {
    id: String,
    client: Arc<ClientHandle>,
}

impl Sink for ForwardSink {
    fn record(&self, r: &Record) {
        if r.kind == RecordKind::Event && r.name.starts_with("engine.") {
            self.client.send_line(&wire::frame_event(&self.id, r));
        }
    }
}

/// The daemon. [`Server::bind`] claims the socket (so callers can learn
/// the ephemeral port before anything runs), [`Server::run`] serves until
/// a `shutdown` frame drains or aborts it.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listening socket and open (or create) the persistent
    /// cache directory.
    ///
    /// # Errors
    ///
    /// Address or cache-directory failures surface as [`io::Error`].
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let cache = Arc::new(match &opts.cache_dir {
            Some(dir) => EvalCache::persistent(dir)?,
            None => EvalCache::new(),
        });
        let workers = Engine::new(opts.engine.clone()).workers();
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(QueueState {
                    queue: BinaryHeap::new(),
                    running: None,
                    next_seq: 0,
                }),
                cv: Condvar::new(),
                draining: AtomicBool::new(false),
                abort: AtomicBool::new(false),
                stopping: AtomicBool::new(false),
                jobs_done: AtomicU64::new(0),
                cache,
                quota: opts.quota,
                max_queue: opts.max_queue.max(1),
                workers,
                engine: opts.engine,
            }),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until shut down. Returns once a `shutdown` request has
    /// drained (or aborted) the queue and every connection handler has
    /// exited; sinks are flushed before returning.
    ///
    /// # Errors
    ///
    /// Only listener-level failures; per-connection I/O errors drop that
    /// connection.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        std::thread::scope(|scope| {
            scope.spawn(|| dispatcher(shared));
            loop {
                if shared.stopping.load(Ordering::Acquire) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(shared);
                        scope.spawn(move || handle_connection(stream, &shared));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        });
        losac_obs::flush_all();
        Ok(())
    }
}

/// The single dispatcher: pops the highest-priority request, runs its
/// batch, ships the result. Exits when draining finds nothing left (and
/// flips `stopping` so the accept loop and handlers follow).
fn dispatcher(shared: &Arc<Shared>) {
    loop {
        let req = {
            let mut state = shared.state.lock().expect("queue poisoned");
            loop {
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                // Drop client-cancelled requests (their terminal ack was
                // already sent at cancel time).
                while let Some(top) = state.queue.peek() {
                    if top.cancelled.load(Ordering::Acquire) {
                        state.queue.pop();
                    } else {
                        break;
                    }
                }
                if let Some(req) = state.queue.pop() {
                    break req;
                }
                if shared.draining.load(Ordering::Acquire) {
                    shared.stopping.store(true, Ordering::Release);
                    return;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(state, IDLE_WAIT)
                    .expect("queue poisoned");
                state = guard;
            }
        };
        run_request(shared, req);
    }
}

fn run_request(shared: &Arc<Shared>, req: QueuedRequest) {
    let mut eopts = shared.engine.clone();
    eopts.cache = Some(Arc::clone(&shared.cache));
    eopts.deadline = req.deadline;
    let engine = Engine::new(eopts);
    let token = engine.cancel_token();
    if shared.abort.load(Ordering::Acquire) || req.cancelled.load(Ordering::Acquire) {
        // Aborting: run the pre-cancelled engine so every job comes back
        // through the real `cancelled` outcome path.
        token.cancel();
    }
    {
        let mut state = shared.state.lock().expect("queue poisoned");
        state.running = Some((req.id.clone(), token, Arc::clone(&req.cancelled)));
    }
    let _forward = req.subscribe.then(|| {
        losac_obs::install(Arc::new(ForwardSink {
            id: req.id.clone(),
            client: Arc::clone(&req.client),
        }))
    });
    let jobs = req.jobs;
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let batch = engine.run_batch(jobs);
    shared
        .jobs_done
        .fetch_add(batch.outcomes.len() as u64, Ordering::AcqRel);
    let outcomes = labels
        .iter()
        .zip(&batch.outcomes)
        .map(|(label, outcome)| wire::outcome_json(label, outcome))
        .collect();
    req.client.send_line(&wire::frame_result(
        &req.id,
        outcomes,
        batch.telemetry.to_json(),
    ));
    req.client.inflight.fetch_sub(1, Ordering::AcqRel);
    {
        let mut state = shared.state.lock().expect("queue poisoned");
        state.running = None;
    }
    shared.wake();
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let client = Arc::new(ClientHandle::new(write_half));
    let mut reader = BufReader::new(stream);
    // `read_line` may return a timeout error with a partial line already
    // appended; keeping the buffer across iterations lets the retry
    // finish the line instead of corrupting the stream.
    let mut buf = String::new();
    let mut serve_line = |reader: &mut BufReader<TcpStream>| match reader.read_line(&mut buf) {
        Ok(0) => ReadStep::Eof,
        Ok(_) => {
            let line = std::mem::take(&mut buf);
            if !line.trim().is_empty() {
                handle_line(&line, &client, shared);
            }
            ReadStep::Line
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            ReadStep::Idle
        }
        Err(_) => ReadStep::Eof,
    };
    while client.alive.load(Ordering::Acquire) && !shared.stopping.load(Ordering::Acquire) {
        if serve_line(&mut reader) == ReadStep::Eof {
            break;
        }
    }
    if shared.stopping.load(Ordering::Acquire) {
        // Closing a socket with unread input makes the kernel send RST,
        // which can destroy answers the peer has not read yet. So answer
        // the lines the peer already sent (a submit now gets `draining`)
        // until it goes quiet, bounded by one read timeout...
        let quiet_by = Instant::now() + READ_TIMEOUT;
        while client.alive.load(Ordering::Acquire) && Instant::now() < quiet_by {
            if serve_line(&mut reader) != ReadStep::Line {
                break;
            }
        }
        // ...then signal EOF and discard input until the peer closes too,
        // again for at most one read timeout.
        let _ = reader.get_ref().shutdown(Shutdown::Write);
        let closed_by = Instant::now() + READ_TIMEOUT;
        let mut sink = [0u8; 4096];
        while Instant::now() < closed_by {
            if !matches!(reader.get_mut().read(&mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }
    client.alive.store(false, Ordering::Release);
}

/// What one `read_line` attempt of a connection handler produced.
#[derive(Debug, PartialEq, Eq)]
enum ReadStep {
    /// A line was read and answered.
    Line,
    /// The read timed out without a complete line.
    Idle,
    /// The peer closed the connection, or the socket failed.
    Eof,
}

fn handle_line(line: &str, client: &Arc<ClientHandle>, shared: &Arc<Shared>) {
    match Request::parse(line) {
        Err(err) => client.send_line(&wire::frame_error(&err)),
        Ok(Request::Ping) => client.send_line(&wire::frame_pong()),
        Ok(Request::Status) => client.send_line(&wire::frame_status(&shared.status())),
        Ok(Request::Submit(submit)) => handle_submit(*submit, client, shared),
        Ok(Request::Cancel { id }) => handle_cancel(&id, client, shared),
        Ok(Request::Shutdown { mode }) => {
            shared.draining.store(true, Ordering::Release);
            if mode == ShutdownMode::Abort {
                shared.abort.store(true, Ordering::Release);
                let state = shared.state.lock().expect("queue poisoned");
                if let Some((_, token, _)) = &state.running {
                    token.cancel();
                }
            }
            client.send_line(&wire::frame_shutting_down(mode));
            shared.wake();
        }
    }
}

fn handle_submit(submit: SubmitRequest, client: &Arc<ClientHandle>, shared: &Arc<Shared>) {
    let reject = |err: WireError| {
        let err = match &submit.id {
            Some(id) => err.with_id(id.clone()),
            None => err,
        };
        client.send_line(&wire::frame_error(&err));
    };
    if shared.draining.load(Ordering::Acquire) {
        return reject(WireError::new(
            ErrorCode::Draining,
            "server is draining; no new submits",
        ));
    }
    // Expand at accept time: sweep errors come back synchronously and
    // the accepted frame can announce the job count.
    let jobs = match submit.sweep.to_jobs() {
        Ok(jobs) => jobs,
        Err(err) => return reject(err),
    };
    if shared.quota > 0 && client.inflight.load(Ordering::Acquire) >= shared.quota {
        return reject(WireError::new(
            ErrorCode::QuotaExceeded,
            format!("quota of {} in-flight submits reached", shared.quota),
        ));
    }
    let deadline = submit
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (id, jobs_n, depth) = {
        let mut state = shared.state.lock().expect("queue poisoned");
        if state.queue.len() >= shared.max_queue {
            drop(state);
            return reject(WireError::new(
                ErrorCode::Overloaded,
                format!("queue is full ({} requests)", shared.max_queue),
            ));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let id = submit.id.clone().unwrap_or_else(|| format!("req-{seq}"));
        let jobs_n = jobs.len() as u64;
        client.inflight.fetch_add(1, Ordering::AcqRel);
        state.queue.push(QueuedRequest {
            priority: submit.priority,
            seq,
            id: id.clone(),
            jobs,
            deadline,
            subscribe: submit.subscribe,
            client: Arc::clone(client),
            cancelled: Arc::new(AtomicBool::new(false)),
        });
        (id, jobs_n, state.queue.len() as u64)
    };
    shared.wake();
    client.send_line(&wire::frame_accepted(&id, jobs_n, depth));
}

fn handle_cancel(id: &str, client: &Arc<ClientHandle>, shared: &Arc<Shared>) {
    let found = {
        let state = shared.state.lock().expect("queue poisoned");
        if let Some(req) = state.queue.iter().find(|r| r.id == id) {
            if !req.cancelled.swap(true, Ordering::AcqRel) {
                // Terminal for a queued request: no result will follow.
                req.client.inflight.fetch_sub(1, Ordering::AcqRel);
            }
            true
        } else if let Some((running_id, token, flag)) = &state.running {
            if running_id == id {
                flag.store(true, Ordering::Release);
                token.cancel();
                true
            } else {
                false
            }
        } else {
            false
        }
    };
    if found {
        shared.wake();
        client.send_line(&wire::frame_cancelled(id));
    } else {
        client.send_line(&wire::frame_error(
            &WireError::new(
                ErrorCode::UnknownId,
                format!("no queued or running request with id {id:?}"),
            )
            .with_id(id),
        ));
    }
}
