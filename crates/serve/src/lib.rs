//! `grimp serve`: an overload-robust HTTP imputation service.
//!
//! The training pipeline fits once and writes a [`TrainCheckpoint`]; this
//! crate turns that checkpoint into a long-running service that answers
//! concurrent CSV-in/CSV-out imputation requests without ever panicking,
//! OOMing, or wedging — the serving-side counterpart of the pipeline's
//! never-panic/always-impute contract:
//!
//! - **Bounded everything.** A fixed worker pool pulls from a bounded
//!   queue; when the queue is full the accept loop sheds load with
//!   `503 + Retry-After` instead of buffering unboundedly. Request heads
//!   and bodies are capped before they are buffered.
//! - **Memory admission.** Each `/impute` body is sized with the PR 5
//!   governor's [`estimate_footprint`] before any model work; requests
//!   that would blow the budget get `503 + Retry-After`, never an OOM.
//! - **Deadlines.** A per-request wall-clock deadline starts at accept
//!   time; requests that exceed it (queue wait included) get `504`.
//! - **Slowloris defense.** A socket read timeout bounds how long a slow
//!   client can hold a worker; stalled requests get `408`.
//! - **Fault injection.** [`SocketFaultPlan`] extends the `GrimpFs`-style
//!   deterministic fault injection to the socket layer (torn request,
//!   mid-response disconnect, malformed payload, stalled body), so the
//!   chaos harness can drive the full failure matrix reproducibly.
//! - **Graceful drain.** On shutdown the listener stops accepting,
//!   queued and in-flight requests finish within a drain deadline, and
//!   [`Server::run`] reports whether the drain was clean.
//! - **Hot reload.** A watcher thread polls the checkpoint file (with a
//!   deterministic per-seed jitter so server fleets do not poll in
//!   lockstep); when the trainer rotates a new generation in
//!   (CRC-validated), the watcher restores its model once, off the request
//!   path, and swaps it in — in-flight requests always finish on the model
//!   they started with, and a generation that fails to restore never
//!   replaces the last good one.
//! - **Incremental append.** `POST /append` pushes CSV rows through the
//!   WAL-backed incremental pipeline ([`Pipeline::append`]): the rows are
//!   durable before any model work, the base checkpoint is fine-tuned,
//!   and the served generation swaps to the grown table atomically.
//!   Concurrent appends are serialized; a conflicting pending append log
//!   from a crashed run is `409`, as is a delta with new categorical
//!   values (a refit cannot be recovered after a crash — that flow
//!   belongs to the offline `grimp append`).
//! - **Panic isolation.** Every handler runs under `catch_unwind`: a
//!   panicking request is answered `500` and the pool keeps its size. The
//!   served model is immutable, so the unwind drops only that request's
//!   scratch (tape, graph, buffers) — that is what makes the handler
//!   unwind-safe. Counted as `panics` in `/stats` and the [`DrainReport`],
//!   traced as `worker_panic`.
//! - **Idempotent append.** An `Idempotency-Key` request header is
//!   journaled durably next to the WAL ([`idem`]) before any model work;
//!   a replayed key returns the recorded outcome instead of re-appending,
//!   so client-retry-after-crash can never double rows.
//! - **Liveness vs readiness.** `GET /healthz` answers `ok` while the
//!   process lives; `GET /readyz` reports generation, pending-WAL and
//!   append state, and failed-reload memoization, going `503` while an
//!   append holds the gate or a drain is underway.
//!
//! [`FittedModel`] is immutable and `Send + Sync`, so the server holds one
//! model per checkpoint generation behind an `Arc`: whatever moves the
//! generation (bind, the watcher, `/append`) restores it once through
//! [`Pipeline::restore_traced`] into the server's sink, and every worker
//! imputes through it on a scratch tape of its own.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod fault;
pub mod http;
pub mod idem;

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread;
use std::time::{Duration, Instant};

use grimp::checkpoint::{crc32, TrainCheckpoint, CHECKPOINT_FILE};
use grimp::{estimate_footprint, FittedModel, GrimpError, Pipeline, ShutdownFlag};
use grimp_obs::{crashpoint, names, splitmix64, Event, EventSink, RealFs, Trace};
use grimp_table::csv::{read_csv_str, to_csv_bytes};
use grimp_table::{ColumnKind, Table};

pub use fault::{FaultStream, SocketFaultKind, SocketFaultPlan};
pub use http::{HttpError, Request};

/// Environment variable carrying a [`SocketFaultPlan`] spec
/// (`kind[:times[:from_conn]]`), the socket-layer sibling of
/// `GRIMP_FAULT_FS`.
pub const FAULT_SOCKET_ENV: &str = "GRIMP_FAULT_SOCKET";

/// Environment variable that, when set to `1`, enables the
/// `POST /panic` injection endpoint (see [`ServeConfig::panic_route`]) —
/// the panic-isolation sibling of [`FAULT_SOCKET_ENV`].
pub const FAULT_PANIC_ENV: &str = "GRIMP_FAULT_PANIC";

/// How the server behaves under load; every bound has a safe default.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads, all sharing the served model generation.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker; beyond this the
    /// accept loop sheds with `503 + Retry-After`.
    pub queue_depth: usize,
    /// Per-request wall-clock deadline, measured from accept; `None`
    /// disables the check.
    pub request_deadline: Option<Duration>,
    /// Memory admission budget in bytes for one request's estimated fit
    /// footprint; `None` admits everything.
    pub memory_budget_bytes: Option<u64>,
    /// Socket read timeout: how long a slow client may stall a worker.
    pub read_timeout: Duration,
    /// Largest request body accepted, in bytes.
    pub max_body_bytes: usize,
    /// How long a drain may take before in-flight work is abandoned.
    pub drain_deadline: Duration,
    /// How often the watcher polls the checkpoint file for a new
    /// generation. Each poll adds a deterministic jitter of up to a
    /// quarter of this interval, derived from `seed` and the poll count,
    /// so a fleet of servers started together does not stampede the
    /// filesystem in lockstep — yet every run is reproducible.
    pub reload_poll: Duration,
    /// Seed for the watcher's poll jitter (and any future randomized
    /// serving decision): same seed, same jitter sequence.
    pub seed: u64,
    /// Deterministic socket-fault plan for chaos runs.
    pub fault: Option<SocketFaultPlan>,
    /// Expose `POST /panic`, which panics inside the handler — the chaos
    /// harness's deterministic probe that panic isolation answers `500`,
    /// keeps the served model, and never kills the worker. Off by default;
    /// the CLI enables it only under [`FAULT_PANIC_ENV`].
    pub panic_route: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            request_deadline: Some(Duration::from_secs(30)),
            memory_budget_bytes: None,
            read_timeout: Duration::from_secs(5),
            max_body_bytes: 8 * 1024 * 1024,
            drain_deadline: Duration::from_secs(10),
            reload_poll: Duration::from_millis(200),
            seed: 0,
            fault: None,
            panic_route: false,
        }
    }
}

/// Where the served model comes from: the pipeline and training table
/// that reproduce its structure, plus the checkpoint directory a trainer
/// rotates new generations into.
#[derive(Clone, Debug)]
pub struct ModelSource {
    /// The validated pipeline whose configuration matches the fit that
    /// wrote the checkpoint.
    pub pipeline: Pipeline,
    /// The training table the model structure is rebuilt from.
    pub train: Table,
    /// Directory holding `grimp.ckpt` (see
    /// [`grimp::checkpoint::CHECKPOINT_FILE`]).
    pub checkpoint_dir: PathBuf,
}

/// What [`Server::run`] hands back after the drain completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every queued and in-flight request finished within the
    /// drain deadline.
    pub clean: bool,
    /// Requests answered with a `2xx` response over the server's life.
    pub served: u64,
    /// Connections shed with `503` because the queue was full.
    pub shed: u64,
    /// Requests refused with `503` by memory admission.
    pub over_budget: u64,
    /// Successful hot reloads (checkpoint generation swaps).
    pub reloads: u64,
    /// Successful `POST /append` requests (rows appended and fine-tuned
    /// or refitted, served table swapped to the grown one).
    pub appends: u64,
    /// Handler panics caught and answered `500` (the process survived
    /// every one of them).
    pub panics: u64,
}

/// An [`EventSink`] shareable across the accept loop, workers, and the
/// watcher: clones lock the same underlying sink per event. Lock
/// poisoning is absorbed (a panicking thread must not mute the trace).
#[derive(Clone)]
pub struct SharedSink(Arc<Mutex<Box<dyn EventSink + Send>>>);

impl SharedSink {
    /// Share `sink` between threads.
    pub fn new(sink: Box<dyn EventSink + Send>) -> Self {
        SharedSink(Arc::new(Mutex::new(sink)))
    }

    fn lock(&self) -> MutexGuard<'_, Box<dyn EventSink + Send>> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl EventSink for SharedSink {
    fn enabled(&self) -> bool {
        self.lock().enabled()
    }

    fn record(&mut self, event: Event) {
        self.lock().record(event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.lock().flush()
    }
}

/// One accepted connection waiting for a worker.
struct Job {
    stream: FaultStream,
    accepted_at: Instant,
    req_id: u64,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    over_budget: AtomicU64,
    client_gone: AtomicU64,
    reloads: AtomicU64,
    appends: AtomicU64,
    panics: AtomicU64,
}

/// The served model generation: checkpoint bytes, the table they restore
/// against, and the model restored from the two. Swapped together — after
/// an append, the fine-tuned checkpoint only matches the *grown* table.
struct Current {
    /// Checkpoint bytes of the served model.
    blob: Vec<u8>,
    /// The table the served model was fitted on.
    train: Arc<Table>,
    /// The served model, shared by every worker.
    model: Arc<FittedModel>,
}

/// State shared by the accept loop, workers, and the watcher thread.
struct Shared {
    cfg: ServeConfig,
    source: ModelSource,
    queue: Mutex<QueueState>,
    job_ready: Condvar,
    active_workers: Mutex<usize>,
    worker_done: Condvar,
    draining: AtomicBool,
    current: Mutex<Current>,
    /// Bumped on every successful hot reload or applied append.
    generation: AtomicU64,
    /// Serializes `POST /append` runs: the WAL/checkpoint directory is
    /// one shared resource, and a second concurrent append is answered
    /// `503` instead of racing the first for it. The gate also caches the
    /// idempotency journal (loaded lazily on the first keyed append) so
    /// the file is not re-read per request; a panic that poisons the
    /// mutex is absorbed — the journal's disk image is always consistent
    /// (atomic whole-file writes), so the cached copy is dropped and
    /// reloaded rather than trusted after a poisoning.
    append_gate: Mutex<Option<idem::Journal>>,
    /// Readiness memoization of the last rotation that failed to restore:
    /// `g + 1` for the generation `g` it would have become, `0` once a
    /// later generation restored fine. Reported by `GET /readyz`.
    failed_reload: AtomicU64,
    counters: Counters,
    sink: SharedSink,
    shutdown: ShutdownFlag,
}

impl Shared {
    fn queue_lock(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The served generation. Its lock is held only to read or swap the
    /// `Arc`s, never across a restore or an impute.
    fn current(&self) -> MutexGuard<'_, Current> {
        self.current.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A bound-but-not-yet-running imputation server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener, load and CRC-validate the current checkpoint,
    /// and restore the served model from it — so a checkpoint that does
    /// not match the pipeline/table fails fast.
    ///
    /// # Errors
    /// [`GrimpError::Checkpoint`] when the checkpoint is missing, corrupt,
    /// or shape-mismatched; [`GrimpError::Io`] when the bind fails.
    pub fn bind(
        cfg: ServeConfig,
        source: ModelSource,
        shutdown: ShutdownFlag,
        sink: Box<dyn EventSink + Send>,
    ) -> Result<Server, GrimpError> {
        let ckpt_path = source.checkpoint_dir.join(CHECKPOINT_FILE);
        let bytes = std::fs::read(&ckpt_path).map_err(|e| GrimpError::Checkpoint {
            path: ckpt_path.clone(),
            source: e.into(),
        })?;
        let ck = TrainCheckpoint::from_bytes(&bytes).map_err(|source| GrimpError::Checkpoint {
            path: ckpt_path.clone(),
            source,
        })?;
        // Fail fast: a shape-mismatched checkpoint must be a startup
        // error, not a 500 on the first request.
        let sink = SharedSink::new(sink);
        let model = source
            .pipeline
            .restore_traced(&source.train, &ck, &mut sink.clone())?;

        let bind_err = |source: std::io::Error| GrimpError::Io {
            context: format!("binding {}", cfg.addr),
            source,
        };
        let listener = TcpListener::bind(&cfg.addr).map_err(&bind_err)?;
        listener.set_nonblocking(true).map_err(&bind_err)?;
        let current = Current {
            blob: bytes,
            train: Arc::new(source.train.clone()),
            model: Arc::new(model),
        };
        let shared = Arc::new(Shared {
            cfg,
            source,
            queue: Mutex::new(QueueState::default()),
            job_ready: Condvar::new(),
            active_workers: Mutex::new(0),
            worker_done: Condvar::new(),
            draining: AtomicBool::new(false),
            current: Mutex::new(current),
            generation: AtomicU64::new(0),
            append_gate: Mutex::new(None),
            failed_reload: AtomicU64::new(0),
            counters: Counters::default(),
            sink,
            shutdown,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Run until the shutdown flag is raised, then drain and return.
    ///
    /// Spawns the worker pool and the checkpoint watcher, then accepts
    /// connections on the calling thread. On shutdown: stop accepting,
    /// emit `drain_begin`, let workers finish queued and in-flight
    /// requests within the drain deadline, emit `drain_end`
    /// (value 1 = clean, 0 = deadline expired, stragglers abandoned).
    ///
    /// # Errors
    /// [`GrimpError::Io`] when a worker or watcher thread cannot be
    /// spawned; any workers that did start are drained first, so the
    /// error path leaks neither threads nor sockets.
    pub fn run(self) -> Result<DrainReport, GrimpError> {
        let workers = self.shared.cfg.workers.max(1);
        {
            let mut active = self
                .shared
                .active_workers
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            *active = workers;
        }
        let abort_spawn =
            |handles: Vec<thread::JoinHandle<()>>, what: &str, source: std::io::Error| {
                {
                    let mut active = self
                        .shared
                        .active_workers
                        .lock()
                        .unwrap_or_else(|p| p.into_inner());
                    *active = handles.len();
                }
                self.shared.draining.store(true, Ordering::SeqCst);
                self.shared.job_ready.notify_all();
                for h in handles {
                    let _ = h.join();
                }
                GrimpError::Io {
                    context: format!("spawning the {what} thread"),
                    source,
                }
            };
        let mut handles = Vec::with_capacity(workers);
        for worker_id in 0..workers {
            let shared = Arc::clone(&self.shared);
            match thread::Builder::new()
                .name(format!("grimp-serve-worker-{worker_id}"))
                .spawn(move || worker_loop(&shared))
            {
                Ok(handle) => handles.push(handle),
                Err(e) => return Err(abort_spawn(handles, "worker", e)),
            }
        }
        let watcher = {
            let shared = Arc::clone(&self.shared);
            match thread::Builder::new()
                .name("grimp-serve-watcher".to_string())
                .spawn(move || watcher_loop(&shared))
            {
                Ok(handle) => handle,
                Err(e) => return Err(abort_spawn(handles, "watcher", e)),
            }
        };

        self.accept_loop();

        // Drain: no new connections, wake every worker, wait for them to
        // finish what is queued and in flight.
        let shared = &self.shared;
        let pending = shared.queue_lock().jobs.len() as u64;
        {
            let mut sink = shared.sink.clone();
            let mut trace = Trace::new(&mut sink);
            trace.counter(names::DRAIN_BEGIN, 0, pending);
        }
        shared.draining.store(true, Ordering::SeqCst);
        shared.job_ready.notify_all();

        let deadline = Instant::now() + shared.cfg.drain_deadline;
        let mut active = shared
            .active_workers
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        while *active > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _timeout) = shared
                .worker_done
                .wait_timeout(active, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            active = guard;
        }
        let clean = *active == 0;
        drop(active);

        {
            let mut sink = shared.sink.clone();
            let mut trace = Trace::new(&mut sink);
            trace.counter(names::DRAIN_END, 0, u64::from(clean));
            let _ = trace.flush();
        }
        let _ = watcher.join();
        if clean {
            for h in handles {
                let _ = h.join();
            }
        }
        // On an expired drain the handles are dropped (detached); the
        // stragglers die with the process.
        Ok(DrainReport {
            clean,
            served: shared.counters.served.load(Ordering::SeqCst),
            shed: shared.counters.shed.load(Ordering::SeqCst),
            over_budget: shared.counters.over_budget.load(Ordering::SeqCst),
            reloads: shared.counters.reloads.load(Ordering::SeqCst),
            appends: shared.counters.appends.load(Ordering::SeqCst),
            panics: shared.counters.panics.load(Ordering::SeqCst),
        })
    }

    fn accept_loop(&self) {
        let shared = &self.shared;
        let mut accepted: usize = 0;
        let mut next_req_id: u64 = 0;
        while !shared.shutdown.is_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let conn = accepted;
                    accepted += 1;
                    let req_id = next_req_id;
                    next_req_id += 1;
                    let fault = shared
                        .cfg
                        .fault
                        .filter(|plan| plan.fires_on(conn))
                        .map(|plan| plan.kind);
                    // Accepted sockets do not inherit the listener's
                    // non-blocking mode on Linux, but make it explicit:
                    // workers rely on blocking reads bounded by timeouts.
                    let _ = stream.set_nonblocking(false);
                    let mut job = Job {
                        stream: FaultStream::new(stream, fault),
                        accepted_at: Instant::now(),
                        req_id,
                    };
                    if let Some(kind) = fault {
                        let mut sink = shared.sink.clone();
                        let mut trace = Trace::new(&mut sink);
                        trace.counter(names::SOCKET_FAULT, req_id, kind.code());
                    }
                    let mut q = shared.queue_lock();
                    if q.jobs.len() >= shared.cfg.queue_depth {
                        drop(q);
                        shared.counters.shed.fetch_add(1, Ordering::SeqCst);
                        let mut sink = shared.sink.clone();
                        let mut trace = Trace::new(&mut sink);
                        trace.counter(names::REQUEST_SHED, req_id, 1);
                        // Consume the request (briefly, bounded) so the
                        // close sends a clean FIN instead of RST-ing the
                        // 503 away before the client reads it.
                        absorb_remaining(job.stream.socket(), Duration::from_millis(20));
                        let _ = http::write_response(
                            &mut job.stream,
                            503,
                            "text/plain",
                            &[("Retry-After", "1".to_string())],
                            b"queue full, retry shortly\n",
                        );
                    } else {
                        q.jobs.push_back(job);
                        drop(q);
                        shared.job_ready.notify_one();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failures (EMFILE, ECONNABORTED)
                    // must not kill the server; back off briefly.
                    thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
}

/// Bounded best-effort drain of a socket's receive buffer (at most
/// 64 KiB, at most `timeout` per read). Called before answering a
/// request whose body was not fully read: closing a socket with unread
/// bytes turns into a TCP RST that can race the error response off the
/// wire before the client reads it.
fn absorb_remaining(socket: &TcpStream, timeout: Duration) {
    if socket.set_nonblocking(false).is_err() || socket.set_read_timeout(Some(timeout)).is_err() {
        return;
    }
    let mut sunk = 0usize;
    let mut buf = [0u8; 4096];
    let mut reader = socket;
    loop {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                sunk += n;
                if sunk >= 64 * 1024 {
                    break;
                }
            }
        }
    }
}

/// The deterministic extra wait added to poll number `polls`: a pure
/// function of `(seed, polls)` in `[0, reload_poll / 4]`, so servers
/// with different seeds drift apart while any single run replays its
/// exact poll schedule.
fn poll_jitter(seed: u64, polls: u64, reload_poll: Duration) -> Duration {
    let quarter = (reload_poll.as_millis() as u64) / 4;
    if quarter == 0 {
        return Duration::ZERO;
    }
    Duration::from_millis(splitmix64(seed ^ polls.wrapping_mul(0x9E37_79B9)) % (quarter + 1))
}

fn watcher_loop(shared: &Shared) {
    let ckpt_path = shared.source.checkpoint_dir.join(CHECKPOINT_FILE);
    let mut polls: u64 = 0;
    // The last rotation that failed to restore, so a bad generation costs
    // one restore attempt rather than one per poll.
    let mut rejected: Option<Vec<u8>> = None;
    while !shared.shutdown.is_requested() && !shared.draining.load(Ordering::SeqCst) {
        // Sleep in small slices so shutdown is honored promptly even
        // with a long poll interval.
        let jitter = poll_jitter(shared.cfg.seed, polls, shared.cfg.reload_poll);
        let wait = shared.cfg.reload_poll + jitter;
        let mut slept = Duration::ZERO;
        while slept < wait {
            if shared.shutdown.is_requested() || shared.draining.load(Ordering::SeqCst) {
                return;
            }
            let slice = Duration::from_millis(10).min(wait - slept);
            thread::sleep(slice);
            slept += slice;
        }
        polls += 1;
        {
            let mut sink = shared.sink.clone();
            let mut trace = Trace::new(&mut sink);
            trace.counter(names::RELOAD_POLL, polls, jitter.as_millis() as u64);
        }
        let Ok(bytes) = std::fs::read(&ckpt_path) else {
            // Mid-rotation (tmp rename in flight) or deleted: keep the
            // current generation and try again next poll.
            continue;
        };
        let (generation, train) = {
            let current = shared.current();
            if current.blob == bytes || rejected.as_ref() == Some(&bytes) {
                continue;
            }
            (
                shared.generation.load(Ordering::SeqCst),
                Arc::clone(&current.train),
            )
        };
        // CRC and structure validation happen before the restore: a torn
        // or bit-flipped rotation never replaces a good generation.
        let Ok(ck) = TrainCheckpoint::from_bytes(&bytes) else {
            continue;
        };
        let Some(model) = restore(shared, &train, &ck, generation + 1) else {
            rejected = Some(bytes);
            continue;
        };
        let crc = crc32(&bytes);
        let generation = {
            let mut current = shared.current();
            // An append moved the generation (and the table) while this
            // model restored against the old one: the append's model wins.
            if shared.generation.load(Ordering::SeqCst) != generation {
                continue;
            }
            current.blob = bytes;
            current.model = Arc::new(model);
            shared.generation.fetch_add(1, Ordering::SeqCst) + 1
        };
        shared.failed_reload.store(0, Ordering::SeqCst);
        shared.counters.reloads.fetch_add(1, Ordering::SeqCst);
        let mut sink = shared.sink.clone();
        let mut trace = Trace::new(&mut sink);
        trace.counter(names::MODEL_RELOADED, generation, u64::from(crc));
    }
}

/// Restore the model of generation `generation` from `ck` against `train`
/// — once per generation, off the request path, traced into the server's
/// sink. A checkpoint that does not restore (another table's or model's
/// shapes, or a panic inside the restore) is memoized for `GET /readyz`,
/// and the caller keeps serving the last good generation.
fn restore(
    shared: &Shared,
    train: &Table,
    ck: &TrainCheckpoint,
    generation: u64,
) -> Option<FittedModel> {
    let mut sink = shared.sink.clone();
    let restored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.source.pipeline.restore_traced(train, ck, &mut sink)
    }));
    let model = restored.ok().and_then(Result::ok);
    if model.is_none() {
        shared.failed_reload.store(generation + 1, Ordering::SeqCst);
    }
    model
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = next_job(shared) {
        let req_id = job.req_id;
        // Last-resort panic isolation: `serve_one` already catches
        // handler panics and answers 500; this outer belt catches a
        // panic anywhere else on the request path (parsing, response
        // IO), so one poisoned request can never shrink the worker pool
        // or hang the drain waiting on a dead worker.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_one(shared, job);
        }));
        if caught.is_err() {
            note_panic(shared, req_id);
        }
    }
    let mut active = shared
        .active_workers
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    *active = active.saturating_sub(1);
    drop(active);
    shared.worker_done.notify_all();
}

/// Count a caught panic and put a `worker_panic` event in the trace.
fn note_panic(shared: &Shared, req_id: u64) {
    shared.counters.panics.fetch_add(1, Ordering::SeqCst);
    let mut sink = shared.sink.clone();
    let mut trace = Trace::new(&mut sink);
    trace.counter(names::WORKER_PANIC, req_id, 1);
}

fn next_job(shared: &Shared) -> Option<Job> {
    let mut q = shared.queue_lock();
    loop {
        if let Some(job) = q.jobs.pop_front() {
            return Some(job);
        }
        if shared.draining.load(Ordering::SeqCst) {
            return None;
        }
        let (guard, _timeout) = shared
            .job_ready
            .wait_timeout(q, Duration::from_millis(100))
            .unwrap_or_else(|p| p.into_inner());
        q = guard;
    }
}

/// What one request resolved to; `status` 0 means the client vanished
/// before a response could be written.
struct Outcome {
    status: u16,
    content_type: &'static str,
    extra: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Outcome {
    fn text(status: u16, msg: impl Into<String>) -> Outcome {
        let mut body = msg.into().into_bytes();
        body.push(b'\n');
        Outcome {
            status,
            content_type: "text/plain",
            extra: Vec::new(),
            body,
        }
    }

    fn busy(status: u16, msg: &str) -> Outcome {
        let mut o = Outcome::text(status, msg);
        o.extra.push(("Retry-After", "1".to_string()));
        o
    }
}

fn serve_one(shared: &Shared, mut job: Job) {
    let req_id = job.req_id;
    let queue_wait = job.accepted_at.elapsed();
    let mut sink = shared.sink.clone();
    let mut trace = Trace::new(&mut sink);
    let span = trace.enter(names::REQUEST, req_id);
    trace.metric(names::QUEUE_WAIT, req_id, queue_wait.as_secs_f64());

    let _ = job
        .stream
        .socket()
        .set_read_timeout(Some(shared.cfg.read_timeout));

    let deadline = shared
        .cfg
        .request_deadline
        .map(|limit| job.accepted_at + limit);
    let parsed = http::read_request(&mut job.stream, shared.cfg.max_body_bytes);
    if matches!(parsed, Err(ref e) if !matches!(e, HttpError::Torn)) {
        // The request was not fully read; drain what is left so the
        // error response is not RST-raced off the wire (see
        // `absorb_remaining`).
        absorb_remaining(job.stream.socket(), Duration::from_millis(50));
    }
    let outcome = match parsed {
        Ok(request) => {
            // Panic isolation: any panic out of the handler (imputation,
            // append) unwinds to here. The served model is immutable, so
            // the unwind drops only this request's scratch — which is
            // what makes the closure sound under `AssertUnwindSafe`.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(shared, &mut trace, req_id, &request, deadline)
            }));
            Some(match caught {
                Ok(outcome) => outcome,
                Err(_panic) => {
                    note_panic(shared, req_id);
                    Outcome::text(500, "handler panicked; the served model is unaffected")
                }
            })
        }
        Err(HttpError::Timeout) => Some(Outcome::text(408, "request read timed out")),
        Err(HttpError::Torn) => None,
        Err(HttpError::Malformed(why)) => Some(Outcome::text(400, format!("bad request: {why}"))),
        Err(HttpError::TooLarge("request head")) => {
            Some(Outcome::text(431, "request head too large"))
        }
        Err(HttpError::TooLarge(_)) => Some(Outcome::text(413, "request body too large")),
    };

    let status = match outcome {
        None => 0,
        Some(outcome) => {
            let wrote = http::write_response(
                &mut job.stream,
                outcome.status,
                outcome.content_type,
                &outcome.extra,
                &outcome.body,
            );
            match wrote {
                Ok(()) => {
                    if (200..300).contains(&outcome.status) {
                        shared.counters.served.fetch_add(1, Ordering::SeqCst);
                    }
                    outcome.status
                }
                Err(_) => 0,
            }
        }
    };
    if status == 0 {
        shared.counters.client_gone.fetch_add(1, Ordering::SeqCst);
    }
    trace.counter(names::REQUEST_OUTCOME, req_id, u64::from(status));
    trace.exit(names::REQUEST, req_id, span);
}

fn route(
    shared: &Shared,
    trace: &mut Trace<'_>,
    req_id: u64,
    request: &Request,
    deadline: Option<Instant>,
) -> Outcome {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Outcome::text(200, "ok"),
        ("GET", "/readyz") => readyz(shared),
        ("GET", "/stats") => stats(shared),
        ("POST", "/panic") if shared.cfg.panic_route => {
            // A body of `append-gate` unwinds while HOLDING the append
            // gate — the deterministic probe that a panic anywhere inside
            // the gated append region (which poisons the mutex) does not
            // wedge later appends or readiness.
            if request.body == b"append-gate" {
                let _gate = shared.append_gate.lock();
                panic!("injected handler panic while holding the append gate")
            }
            panic!("injected handler panic (panic route enabled)")
        }
        ("POST", "/impute") => impute(shared, trace, req_id, request, deadline),
        ("POST", "/append") => append(shared, trace, req_id, request, deadline),
        _ => Outcome::text(
            404,
            format!("no such endpoint: {} {}", request.method, request.path),
        ),
    }
}

fn stats(shared: &Shared) -> Outcome {
    let c = &shared.counters;
    let body = format!(
        "{{\"served\":{},\"shed\":{},\"over_budget\":{},\"client_gone\":{},\"reloads\":{},\"appends\":{},\"panics\":{},\"generation\":{}}}\n",
        c.served.load(Ordering::SeqCst),
        c.shed.load(Ordering::SeqCst),
        c.over_budget.load(Ordering::SeqCst),
        c.client_gone.load(Ordering::SeqCst),
        c.reloads.load(Ordering::SeqCst),
        c.appends.load(Ordering::SeqCst),
        c.panics.load(Ordering::SeqCst),
        shared.generation.load(Ordering::SeqCst),
    );
    Outcome {
        status: 200,
        content_type: "application/json",
        extra: Vec::new(),
        body: body.into_bytes(),
    }
}

/// `GET /readyz`: readiness, as opposed to `/healthz` liveness. Reports
/// the served generation, whether an append WAL is pending on disk,
/// whether the append gate is held right now, and the failed-reload
/// memoization; answers `503 + Retry-After` while an append is running
/// or a drain is underway (the process is alive but should not receive
/// new traffic from a balancer).
fn readyz(shared: &Shared) -> Outcome {
    let draining = shared.draining.load(Ordering::SeqCst);
    // Only WouldBlock means an append is actually running; a poisoned
    // gate (a handler panicked mid-append) must not leave
    // readiness stuck at 503 forever.
    let append_in_progress = matches!(shared.append_gate.try_lock(), Err(TryLockError::WouldBlock));
    let pending_wal = shared.source.checkpoint_dir.join(grimp::WAL_FILE).exists();
    let generation = shared.generation.load(Ordering::SeqCst);
    let failed = shared.failed_reload.load(Ordering::SeqCst);
    let failed_json = match failed {
        0 => "null".to_string(),
        g => (g - 1).to_string(),
    };
    let ready = !draining && !append_in_progress;
    let body = format!(
        "{{\"ready\":{ready},\"generation\":{generation},\"pending_wal\":{pending_wal},\"append_in_progress\":{append_in_progress},\"draining\":{draining},\"failed_reload_generation\":{failed_json}}}\n",
    );
    let mut outcome = Outcome {
        status: if ready { 200 } else { 503 },
        content_type: "application/json",
        extra: Vec::new(),
        body: body.into_bytes(),
    };
    if !ready {
        outcome.extra.push(("Retry-After", "1".to_string()));
    }
    outcome
}

fn impute(
    shared: &Shared,
    trace: &mut Trace<'_>,
    req_id: u64,
    request: &Request,
    deadline: Option<Instant>,
) -> Outcome {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Outcome::busy(504, "request deadline exceeded while queued");
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Outcome::text(400, "body is not UTF-8");
    };
    let table = match read_csv_str(text) {
        Ok(table) => table,
        Err(e) => return Outcome::text(400, format!("body is not parseable CSV: {e}")),
    };

    // Memory admission happens before any model work, on the governor's
    // fit-footprint estimate for this table.
    if let Some(budget) = shared.cfg.memory_budget_bytes {
        let need = estimate_footprint(&table, shared.source.pipeline.config()).total_bytes();
        if need > budget {
            shared.counters.over_budget.fetch_add(1, Ordering::SeqCst);
            trace.counter(names::REQUEST_OVER_BUDGET, req_id, need);
            return Outcome::busy(
                503,
                &format!("request needs ~{need} bytes, budget is {budget}"),
            );
        }
    }

    let model = Arc::clone(&shared.current().model);
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Outcome::busy(504, "request deadline exceeded");
    }
    match model.impute(&table) {
        Ok(imputed) => Outcome {
            status: 200,
            content_type: "text/csv",
            extra: Vec::new(),
            body: to_csv_bytes(&imputed),
        },
        Err(
            e @ (GrimpError::SchemaMismatch { .. }
            | GrimpError::Table { .. }
            | GrimpError::InductiveUnsupported),
        ) => Outcome::text(400, format!("cannot impute this table: {e}")),
        Err(e) => Outcome::text(500, format!("imputation failed: {e}")),
    }
}

/// `POST /append`: durably append the body's CSV rows to the served
/// table through the WAL-backed incremental pipeline, then swap the
/// served generation to the grown table and its fine-tuned checkpoint.
/// The response body is the imputed grown table.
///
/// Appends are serialized through `append_gate` (a second concurrent one
/// gets `503 + Retry-After`), and a pending append log from a crashed
/// earlier run that conflicts with this request is `409`. A delta that
/// introduces new categorical values is `409` too: it would force a full
/// refit whose checkpoint cannot be restored against the base table
/// after a restart — that flow belongs to the offline `grimp append`.
///
/// An `Idempotency-Key` request header makes the append safe to retry
/// across crashes (see [`idem`]): the key is journaled durably before
/// any model work, the response is journaled before the generation
/// swaps, and a replayed key is answered from the journal (marked with
/// an `Idempotency-Replay: true` response header) instead of
/// re-appending. A replayed key with a *different* body is `422`; one
/// whose recorded response was compacted away (see
/// [`idem::MAX_DONE_BODIES`]) is `410` — applied exactly once, but the
/// bytes are gone.
fn append(
    shared: &Shared,
    trace: &mut Trace<'_>,
    req_id: u64,
    request: &Request,
    deadline: Option<Instant>,
) -> Outcome {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Outcome::busy(504, "request deadline exceeded while queued");
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Outcome::text(400, "body is not UTF-8");
    };
    let rows_table = match read_csv_str(text) {
        Ok(table) => table,
        Err(e) => return Outcome::text(400, format!("body is not parseable CSV: {e}")),
    };

    // Idempotency-Key validation is pure, so it happens before the gate —
    // an invalid key must never consume it.
    let idem_key = match request.header("idempotency-key") {
        None => None,
        Some(key) if idem::valid_key(key) => Some(key.to_string()),
        Some(_) => {
            return Outcome::text(
                400,
                "invalid Idempotency-Key: need 1-255 visible ASCII characters",
            )
        }
    };

    // The gate comes BEFORE the base-table snapshot: a concurrent append
    // that swapped the generation between a snapshot and the gate would
    // make this request validate against — and fine-tune from — a stale
    // base, silently dropping the earlier append's rows. Only WouldBlock
    // means busy; a poisoned gate (a worker panicked mid-append) is
    // recovered by dropping the cached journal and reloading it from its
    // crash-consistent disk image.
    let mut gate = match shared.append_gate.try_lock() {
        Ok(gate) => gate,
        Err(TryLockError::Poisoned(p)) => {
            let mut gate = p.into_inner();
            *gate = None;
            shared.append_gate.clear_poison();
            gate
        }
        Err(TryLockError::WouldBlock) => {
            return Outcome::busy(503, "another append is in progress, retry shortly")
        }
    };

    let train = Arc::clone(&shared.current().train);
    let names_match = rows_table.n_columns() == train.n_columns()
        && (0..train.n_columns())
            .all(|j| rows_table.schema().column(j).name == train.schema().column(j).name);
    if !names_match {
        return Outcome::text(
            400,
            "appended columns do not match the served table's header",
        );
    }

    // Build the concatenation once: the dictionary-growth check and the
    // memory admission both need base + delta.
    let mut concat = (*train).clone();
    for i in 0..rows_table.n_rows() {
        let row: Vec<Option<String>> = (0..rows_table.n_columns())
            .map(|j| (!rows_table.is_missing(i, j)).then(|| rows_table.display(i, j)))
            .collect();
        let r: Vec<Option<&str>> = row.iter().map(|c| c.as_deref()).collect();
        if let Err(e) = concat.try_push_str_row(&r) {
            return Outcome::text(400, format!("cannot append row {i}: {e}"));
        }
    }

    // The serve surface only accepts appends it can recover from. A delta
    // that grows a categorical dictionary forces a full refit (same test
    // as the incremental pipeline's decide step), and a refitted
    // checkpoint no longer restores against the base table a respawned
    // server starts from — a crash after the rotation would turn into a
    // startup failure, not a replay. Those deltas belong to the offline
    // `grimp append` flow.
    let grows_dictionary = (0..train.n_columns()).any(|j| {
        train.schema().column(j).kind == ColumnKind::Categorical
            && concat.dictionary(j).len() != train.dictionary(j).len()
    });
    if grows_dictionary {
        return Outcome::text(
            409,
            "append introduces new categorical values, which would force a full refit \
             that cannot be recovered after a crash; run `grimp append` offline and \
             restart the server with the grown table",
        );
    }

    // Memory admission on the *grown* table: the append fine-tunes over
    // base + delta, so that concatenation is what must fit.
    if let Some(budget) = shared.cfg.memory_budget_bytes {
        let need = estimate_footprint(&concat, shared.source.pipeline.config()).total_bytes();
        if need > budget {
            shared.counters.over_budget.fetch_add(1, Ordering::SeqCst);
            trace.counter(names::REQUEST_OVER_BUDGET, req_id, need);
            return Outcome::busy(
                503,
                &format!("grown table needs ~{need} bytes, budget is {budget}"),
            );
        }
    }
    drop(concat);

    let rows_crc = crc32(&request.body);
    if let Some(key) = &idem_key {
        // The journal is cached under the gate (appends are serialized,
        // so journal access is too); the file is only read when the cache
        // is cold — process start or post-panic recovery.
        if gate.is_none() {
            match idem::Journal::load(&shared.source.checkpoint_dir) {
                Ok(journal) => *gate = Some(journal),
                Err(e) => return Outcome::text(500, format!("idempotency journal: {e}")),
            }
        }
        let Some(journal) = gate.as_mut() else {
            return Outcome::text(500, "idempotency journal cache unavailable");
        };
        match journal.lookup(key) {
            Some(entry) if entry.rows_crc != rows_crc => {
                return Outcome::text(
                    422,
                    "Idempotency-Key was already used with a different body",
                );
            }
            Some(entry) => {
                if let Some(done) = &entry.done {
                    // The append already completed (possibly in a previous
                    // process life): answer from the journal, touch nothing.
                    trace.counter(names::IDEM_REPLAY, req_id, 1);
                    return match &done.body {
                        Some(body) => Outcome {
                            status: 200,
                            content_type: "text/csv",
                            extra: vec![("Idempotency-Replay", "true".to_string())],
                            body: body.clone(),
                        },
                        // The recorded response outlived the journal's
                        // body cap: the rows were applied exactly once
                        // and must not be re-applied, but the bytes are
                        // gone — `410` tells the client its append
                        // succeeded without pretending to replay it.
                        None => {
                            let mut gone = Outcome::text(
                                410,
                                format!(
                                    "append already applied ({} rows); its recorded \
                                     response has been compacted away — do not retry",
                                    done.appended_rows
                                ),
                            );
                            gone.extra.push(("Idempotency-Replay", "true".to_string()));
                            gone
                        }
                    };
                }
                // Pending from an interrupted earlier attempt: fall
                // through — `Pipeline::append` reconciles whatever the
                // crash left (pending WAL resumed, rotated WAL restarted
                // against the recovered base table).
            }
            None => {
                // Durable before ack *and* before any model work.
                if let Err(e) = journal.record_pending(&mut RealFs, key, rows_crc) {
                    return Outcome::text(500, format!("idempotency journal: {e}"));
                }
            }
        }
        crashpoint::hit(crashpoint::IDEM_JOURNAL);
    }

    // The serving pipeline is structure-only; give the append run the
    // checkpoint directory so its WAL and fine-tuned generation land
    // where the watcher looks.
    let mut cfg = shared.source.pipeline.config().clone();
    cfg.checkpoint_dir = Some(shared.source.checkpoint_dir.clone());
    let pipeline = match Pipeline::new(cfg) {
        Ok(p) => p,
        Err(e) => return Outcome::text(500, format!("append pipeline: {e}")),
    };
    let rows = grimp::table_to_wal_rows(&rows_table);
    match pipeline.append(&train, &rows) {
        Ok(outcome) => {
            let body = to_csv_bytes(&outcome.imputed);
            if let (Some(key), Some(j)) = (&idem_key, gate.as_mut()) {
                // The done record must be durable before the generation
                // swaps: once the served table has grown, a replayed key
                // that fell through here would append onto the grown
                // table and double the rows. If this write fails the
                // swap is abandoned too — the server keeps serving the
                // base table, so a retry still converges to exactly one
                // application of the rows.
                if let Err(e) = j.record_done(
                    &mut RealFs,
                    key,
                    rows_crc,
                    outcome.appended_rows as u32,
                    &body,
                ) {
                    return Outcome::text(
                        500,
                        format!("append applied, journal write failed: {e}"),
                    );
                }
            }
            crashpoint::hit(crashpoint::GENERATION_SWAP);
            // Swap the served generation: the grown table, plus whatever
            // checkpoint the append left on disk with its model, restored
            // here once. A file that does not read or restore is not fatal
            // — the last good model keeps serving and the watcher retries
            // — but the table moves either way.
            let ckpt_path = shared.source.checkpoint_dir.join(CHECKPOINT_FILE);
            let train = Arc::new(outcome.table);
            let next = shared.generation.load(Ordering::SeqCst) + 1;
            let rotated = std::fs::read(&ckpt_path).ok().and_then(|bytes| {
                let ck = TrainCheckpoint::from_bytes(&bytes).ok()?;
                Some((bytes, restore(shared, &train, &ck, next)?))
            });
            let generation = {
                let mut current = shared.current();
                if let Some((bytes, model)) = rotated {
                    current.blob = bytes;
                    current.model = Arc::new(model);
                    shared.failed_reload.store(0, Ordering::SeqCst);
                }
                current.train = train;
                shared.generation.fetch_add(1, Ordering::SeqCst) + 1
            };
            shared.counters.appends.fetch_add(1, Ordering::SeqCst);
            trace.counter(names::APPEND, generation, outcome.appended_rows as u64);
            Outcome {
                status: 200,
                content_type: "text/csv",
                extra: Vec::new(),
                body,
            }
        }
        Err(e @ GrimpError::PendingAppend { .. }) => {
            Outcome::text(409, format!("conflicting pending append: {e}"))
        }
        Err(e) => match e.category() {
            grimp::ErrorCategory::Data => Outcome::text(400, format!("cannot append: {e}")),
            grimp::ErrorCategory::Busy => Outcome::busy(503, &format!("busy: {e}")),
            _ => Outcome::text(500, format!("append failed: {e}")),
        },
    }
}

/// A minimal blocking HTTP client for tests, benches, and the chaos
/// harness: one request, `Connection: close`, whole response buffered.
pub mod client {
    use super::*;

    /// A buffered response: status code plus raw body bytes.
    #[derive(Clone, Debug)]
    pub struct Response {
        /// The HTTP status code.
        pub status: u16,
        /// The response body.
        pub body: Vec<u8>,
        /// Raw header lines (request line excluded).
        pub headers: Vec<String>,
    }

    impl Response {
        /// The value of `name` (case-insensitive), when present.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers.iter().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
            })
        }
    }

    /// Send one request and read the full response.
    ///
    /// # Errors
    /// IO errors from the socket, or `InvalidData` when the response
    /// does not parse as HTTP.
    pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        request_with_headers(addr, method, path, &[], body)
    }

    /// [`request`] with extra request headers (e.g. `Idempotency-Key`).
    ///
    /// # Errors
    /// Same contract as [`request`].
    pub fn request_with_headers(
        addr: &str,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: grimp\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("Connection: close\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    /// POST a CSV body to `/impute`.
    ///
    /// # Errors
    /// Same contract as [`request`].
    pub fn impute(addr: &str, csv: &str) -> std::io::Result<Response> {
        request(addr, "POST", "/impute", csv.as_bytes())
    }

    fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
        let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
        let head_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| bad("no header terminator"))?;
        let head =
            std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("response head not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        Ok(Response {
            status,
            body: raw[head_end + 4..].to_vec(),
            headers: lines.map(str::to_string).collect(),
        })
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;

    #[test]
    fn poll_jitter_is_deterministic_and_bounded() {
        let poll = Duration::from_millis(200);
        for polls in 0..64u64 {
            let a = poll_jitter(9, polls, poll);
            let b = poll_jitter(9, polls, poll);
            assert_eq!(a, b, "same seed and poll count must jitter identically");
            assert!(a <= poll / 4, "jitter stays within a quarter interval");
        }
        // Different seeds decorrelate the fleet: at least one poll differs.
        assert!((0..64u64).any(|p| poll_jitter(9, p, poll) != poll_jitter(10, p, poll)));
    }

    #[test]
    fn poll_jitter_degrades_to_zero_for_tiny_intervals() {
        for ms in 0..4u64 {
            assert_eq!(poll_jitter(1, 7, Duration::from_millis(ms)), Duration::ZERO);
        }
    }
}
