//! End-to-end tests against a real listening server: health, imputation,
//! load shedding, memory admission, the injected socket-fault matrix,
//! hot reload, and graceful drain.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use grimp::{GrimpConfig, GrimpError, Pipeline, ShutdownFlag};
use grimp_obs::{names, Event, EventKind, EventSink, JsonlSink};
use grimp_serve::{client, ModelSource, ServeConfig, Server, SocketFaultKind, SocketFaultPlan};
use grimp_table::csv::{read_csv_str, to_csv_string};
use grimp_table::{inject_mcar, ColumnKind, Schema, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_table(n: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..n {
        let a = format!("a{}", i % 3);
        let b = format!("b{}", i % 3);
        t.push_str_row(&[Some(&a), Some(&b)]);
    }
    t
}

fn quick_config(seed: u64, dir: &Path) -> GrimpConfig {
    GrimpConfig {
        checkpoint_dir: Some(dir.to_path_buf()),
        feature_dim: 8,
        gnn: grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 8,
            ..Default::default()
        },
        merge_hidden: 16,
        embed_dim: 8,
        max_epochs: 8,
        patience: 8,
        lr: 2e-2,
        seed,
        ..GrimpConfig::paper()
    }
}

/// Fit a model into `dir` and return the serving-ready pieces.
fn fitted_source(name: &str, seed: u64) -> (ModelSource, Table, PathBuf) {
    let dir = std::env::temp_dir().join(format!("grimp-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut dirty = small_table(45);
    inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
    let pipeline = Pipeline::new(quick_config(seed, &dir)).unwrap();
    pipeline.fit(&dirty).unwrap();
    // The served pipeline must not itself write checkpoints.
    let serving = Pipeline::new(GrimpConfig {
        checkpoint_dir: None,
        ..quick_config(seed, &dir)
    })
    .unwrap();
    (
        ModelSource {
            pipeline: serving,
            train: dirty.clone(),
            checkpoint_dir: dir.clone(),
        },
        dirty,
        dir,
    )
}

/// The server's trace: the JSONL file, plus a live count of the watcher's
/// `reload_poll` events (the file is buffered until the drain flushes it).
struct TraceSink {
    file: JsonlSink<BufWriter<File>>,
    polls: Arc<AtomicUsize>,
}

impl EventSink for TraceSink {
    fn record(&mut self, event: Event) {
        if event.name == names::RELOAD_POLL {
            self.polls.fetch_add(1, Ordering::SeqCst);
        }
        self.file.record(event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

struct Running {
    addr: String,
    shutdown: ShutdownFlag,
    handle: thread::JoinHandle<Result<grimp_serve::DrainReport, grimp::GrimpError>>,
    trace_path: PathBuf,
    polls: Arc<AtomicUsize>,
}

impl Running {
    fn start(name: &str, cfg: ServeConfig, source: ModelSource) -> Running {
        let trace_path = std::env::temp_dir().join(format!(
            "grimp-serve-trace-{name}-{}.jsonl",
            std::process::id()
        ));
        let polls = Arc::new(AtomicUsize::new(0));
        let sink = TraceSink {
            file: JsonlSink::create(&trace_path).unwrap(),
            polls: Arc::clone(&polls),
        };
        let shutdown = ShutdownFlag::new();
        let server = Server::bind(cfg, source, shutdown.clone(), Box::new(sink)).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || server.run());
        Running {
            addr,
            shutdown,
            handle,
            trace_path,
            polls,
        }
    }

    /// Wait until the watcher has polled the checkpoint at least once.
    fn await_reload_poll(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.polls.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the watcher never polled");
            thread::sleep(Duration::from_millis(5));
        }
    }

    fn stop(self) -> (grimp_serve::DrainReport, String) {
        self.stop_within(Duration::from_secs(60))
    }

    /// Request shutdown and require the server to finish its drain within
    /// `bound`: a server that stays blocked in `accept` fails the test
    /// instead of hanging it.
    fn stop_within(self, bound: Duration) -> (grimp_serve::DrainReport, String) {
        let asked = Instant::now();
        self.shutdown.request();
        while !self.handle.is_finished() {
            assert!(
                asked.elapsed() < bound,
                "the server did not drain within {bound:?} of the shutdown request"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let report = self
            .handle
            .join()
            .expect("server thread must not panic")
            .expect("server ran to a drain report");
        let trace = std::fs::read_to_string(&self.trace_path).unwrap();
        let _ = std::fs::remove_file(&self.trace_path);
        (report, trace)
    }
}

#[test]
fn serves_impute_health_and_stats_then_drains_clean() {
    let (source, dirty, dir) = fitted_source("basic", 5);
    let running = Running::start("basic", ServeConfig::default(), source);

    let health = client::request(&running.addr, "GET", "/healthz", b"").unwrap();
    assert_eq!((health.status, health.body.as_slice()), (200, &b"ok\n"[..]));

    let res = client::impute(&running.addr, &to_csv_string(&dirty)).unwrap();
    assert_eq!(res.status, 200, "{:?}", String::from_utf8_lossy(&res.body));
    let imputed = read_csv_str(std::str::from_utf8(&res.body).unwrap()).unwrap();
    assert_eq!(imputed.n_missing(), 0, "every hole must be filled");
    assert_eq!(imputed.n_rows(), dirty.n_rows());

    let stats = client::request(&running.addr, "GET", "/stats", b"").unwrap();
    assert_eq!(stats.status, 200);
    let body = String::from_utf8(stats.body).unwrap();
    assert!(body.contains("\"generation\":0"), "{body}");

    let missing = client::request(&running.addr, "GET", "/nope", b"").unwrap();
    assert_eq!(missing.status, 404);

    let (report, trace) = running.stop();
    assert!(report.clean, "drain must finish within the deadline");
    assert!(report.served >= 3, "impute + healthz + stats are all 2xx");
    assert_eq!(report.shed, 0);

    // The trace must parse with the replay reader and carry the serve
    // vocabulary: request spans, outcomes, and the drain bracket.
    let replay = grimp_obs::read_jsonl(&trace).unwrap();
    let has = |name: &str| replay.events.iter().any(|e| e.name == name);
    assert!(has(grimp_obs::names::REQUEST), "request spans");
    assert!(has(grimp_obs::names::QUEUE_WAIT), "queue-wait metrics");
    assert!(has(grimp_obs::names::REQUEST_OUTCOME), "outcome counters");
    assert!(has(grimp_obs::names::DRAIN_BEGIN), "drain_begin");
    assert!(has(grimp_obs::names::DRAIN_END), "drain_end");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sheds_load_with_503_when_the_queue_is_full() {
    let (source, dirty, dir) = fitted_source("shed", 5);
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    };
    let running = Running::start("shed", cfg, source);

    let res = client::impute(&running.addr, &to_csv_string(&dirty)).unwrap();
    assert_eq!(res.status, 503);
    assert_eq!(res.header("Retry-After"), Some("1"));

    let (report, trace) = running.stop();
    assert!(report.clean);
    assert_eq!(report.shed, 1);
    let replay = grimp_obs::read_jsonl(&trace).unwrap();
    assert!(replay
        .events
        .iter()
        .any(|e| e.name == grimp_obs::names::REQUEST_SHED));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_admission_refuses_over_budget_requests() {
    let (source, dirty, dir) = fitted_source("budget", 5);
    let cfg = ServeConfig {
        memory_budget_bytes: Some(1),
        ..ServeConfig::default()
    };
    let running = Running::start("budget", cfg, source);

    let res = client::impute(&running.addr, &to_csv_string(&dirty)).unwrap();
    assert_eq!(res.status, 503);
    assert_eq!(res.header("Retry-After"), Some("1"));
    let body = String::from_utf8(res.body).unwrap();
    assert!(body.contains("budget"), "{body}");

    let (report, trace) = running.stop();
    assert!(report.clean);
    assert_eq!(report.over_budget, 1);
    let replay = grimp_obs::read_jsonl(&trace).unwrap();
    assert!(replay
        .events
        .iter()
        .any(|e| e.name == grimp_obs::names::REQUEST_OVER_BUDGET));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_payloads_get_400_not_a_panic() {
    let (source, _dirty, dir) = fitted_source("malformed", 5);
    let running = Running::start("malformed", ServeConfig::default(), source);

    let res = client::impute(&running.addr, "a,b\n\"unterminated").unwrap();
    assert_eq!(res.status, 400);
    let res = client::request(&running.addr, "POST", "/impute", &[0xff, 0xfe, 0x00]).unwrap();
    assert_eq!(res.status, 400, "non-UTF-8 body");

    let (report, _) = running.stop();
    assert!(report.clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request big enough to need more than one socket read, so read-side
/// faults (torn, stalled) trigger on the second read.
fn big_body() -> String {
    let mut csv = "a,b\n".to_string();
    for i in 0..700 {
        csv.push_str(&format!("a{},b{}\n", i % 3, i % 3));
    }
    assert!(csv.len() > 4096);
    csv
}

#[test]
fn injected_socket_faults_never_kill_the_server() {
    for kind in SocketFaultKind::all() {
        let name = format!("fault-{}", kind.label());
        let (source, _dirty, dir) = fitted_source(&name, 5);
        let cfg = ServeConfig {
            fault: Some(SocketFaultPlan {
                kind,
                times: 1,
                from_conn: 0,
            }),
            read_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        };
        let running = Running::start(&name, cfg, source);

        // Connection 0 gets the fault; the server must absorb it.
        let faulted = client::request(&running.addr, "POST", "/impute", big_body().as_bytes());
        match kind {
            SocketFaultKind::TornRequest => {
                // The server saw EOF mid-request and dropped the socket.
                assert!(faulted.is_err(), "torn request must get no response");
            }
            SocketFaultKind::StalledBody => {
                let res = faulted.expect("stalled body gets a timeout response");
                assert_eq!(res.status, 408);
            }
            SocketFaultKind::MalformedPayload => {
                let res = faulted.expect("corrupted head gets a response");
                assert_eq!(res.status, 400);
            }
            SocketFaultKind::DisconnectMidResponse => {
                // The response write was cut; anything but a server
                // panic is acceptable here.
                let _ = faulted;
            }
        }

        // Connection 1 is past the fault window: normal service resumes.
        let health = client::request(&running.addr, "GET", "/healthz", b"").unwrap();
        assert_eq!(health.status, 200, "{}", kind.label());

        let (report, trace) = running.stop();
        assert!(report.clean, "{}", kind.label());
        let replay = grimp_obs::read_jsonl(&trace).unwrap();
        assert!(
            replay
                .events
                .iter()
                .any(|e| e.name == grimp_obs::names::SOCKET_FAULT && e.value == kind.code() as f64),
            "{} must be recorded in the trace",
            kind.label()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_rotation_hot_reloads_between_requests() {
    let (source, dirty, dir) = fitted_source("reload", 5);
    let cfg = ServeConfig {
        reload_poll: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let running = Running::start("reload", cfg, source);

    let res = client::impute(&running.addr, &to_csv_string(&dirty)).unwrap();
    assert_eq!(res.status, 200);

    // A trainer rotates a new generation into the same directory (a
    // different seed produces different weights, same shapes).
    Pipeline::new(quick_config(6, &dir))
        .unwrap()
        .fit(&dirty)
        .unwrap();

    // The trainer checkpoints every epoch, so the watcher may observe
    // several intermediate generations — at least one reload must land.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client::request(&running.addr, "GET", "/stats", b"").unwrap();
        let body = String::from_utf8(stats.body).unwrap();
        if !body.contains("\"reloads\":0") && !body.contains("\"generation\":0") {
            break;
        }
        assert!(Instant::now() < deadline, "reload never observed: {body}");
        thread::sleep(Duration::from_millis(20));
    }

    let res = client::impute(&running.addr, &to_csv_string(&dirty)).unwrap();
    assert_eq!(res.status, 200, "the reloaded generation serves");

    let (report, trace) = running.stop();
    assert!(report.clean);
    assert!(report.reloads >= 1);
    let replay = grimp_obs::read_jsonl(&trace).unwrap();
    assert!(replay
        .events
        .iter()
        .any(|e| e.name == grimp_obs::names::MODEL_RELOADED && e.index >= 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binding_without_a_checkpoint_is_a_typed_startup_error() {
    let dir = std::env::temp_dir().join(format!("grimp-serve-nockpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dirty = small_table(20);
    let source = ModelSource {
        pipeline: Pipeline::new(GrimpConfig {
            checkpoint_dir: None,
            ..quick_config(5, &dir)
        })
        .unwrap(),
        train: dirty,
        checkpoint_dir: dir.clone(),
    };
    match Server::bind(
        ServeConfig::default(),
        source,
        ShutdownFlag::new(),
        Box::new(grimp_obs::NullSink),
    ) {
        Err(GrimpError::Checkpoint { .. }) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("bind must fail without a checkpoint"),
    }
}

#[test]
fn drain_finishes_queued_work_before_exiting() {
    let (source, dirty, dir) = fitted_source("drain", 5);
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let running = Running::start("drain", cfg, source);
    let csv = to_csv_string(&dirty);

    // Launch a few concurrent imputes and immediately request shutdown:
    // accepted requests must still be answered during the drain.
    let addr = running.addr.clone();
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let csv = csv.clone();
            thread::spawn(move || client::impute(&addr, &csv))
        })
        .collect();
    thread::sleep(Duration::from_millis(50));
    let (report, _) = running.stop();
    assert!(report.clean, "drain must complete");
    for c in clients {
        if let Ok(res) = c.join().unwrap() {
            assert!(
                res.status == 200 || res.status == 503,
                "drained request got {}",
                res.status
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_server_drains_promptly_on_loopback_and_wildcard_binds() {
    // Nothing ever connects, so only the waker's self-connect brings the
    // accept loop out of `accept`; on a wildcard bind it dials loopback.
    for (label, addr) in [("loopback", "127.0.0.1:0"), ("wildcard", "0.0.0.0:0")] {
        let name = format!("idle-{label}");
        let (source, _dirty, dir) = fitted_source(&name, 5);
        let cfg = ServeConfig {
            addr: addr.to_string(),
            reload_poll: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        let running = Running::start(&name, cfg, source);
        // The helpers are up, so the accept loop is waiting in `accept`.
        running.await_reload_poll();
        let (report, trace) = running.stop_within(Duration::from_secs(2));
        assert!(report.clean, "{label}");
        assert_eq!((report.served, report.shed), (0, 0), "{label}");
        let replay = grimp_obs::read_jsonl(&trace).unwrap();
        assert!(
            !replay.events.iter().any(|e| e.name == names::REQUEST),
            "{label}: the wake is not a request"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_wake_connection_is_never_served_or_counted() {
    let (source, dirty, dir) = fitted_source("wake", 5);
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let running = Running::start("wake", cfg, source);

    let health = client::request(&running.addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    let res = client::impute(&running.addr, &to_csv_string(&dirty)).unwrap();
    assert_eq!(res.status, 200, "{:?}", String::from_utf8_lossy(&res.body));
    let stats = client::request(&running.addr, "GET", "/stats", b"").unwrap();
    let body = String::from_utf8(stats.body).unwrap();
    assert!(body.contains("\"client_gone\":0"), "{body}");

    // Three requests, all 2xx. A queued wake connection would be a fourth
    // request span, answered `400 empty connection` or, if its write
    // failed, counted `client_gone` (outcome 0).
    let (report, trace) = running.stop_within(Duration::from_secs(2));
    assert!(report.clean);
    assert_eq!((report.served, report.shed), (3, 0));
    let replay = grimp_obs::read_jsonl(&trace).unwrap();
    let spans = replay
        .events
        .iter()
        .filter(|e| e.kind == EventKind::SpanExit && e.name == names::REQUEST)
        .count();
    assert_eq!(spans, 3, "one request span per request sent");
    let outcomes: Vec<f64> = replay
        .events
        .iter()
        .filter(|e| e.name == names::REQUEST_OUTCOME)
        .map(|e| e.value)
        .collect();
    assert_eq!(outcomes, [200.0; 3]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn post_append_grows_the_served_table_and_swaps_the_generation() {
    let (source, dirty, dir) = fitted_source("append", 5);
    let cfg = ServeConfig {
        reload_poll: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let running = Running::start("append", cfg, source);

    // Mismatched header: rejected before any model work.
    let bad = client::request(&running.addr, "POST", "/append", b"x,y\n1,2\n").unwrap();
    assert_eq!(bad.status, 400, "{:?}", String::from_utf8_lossy(&bad.body));

    // Two appends of two rows in the served schema, one hole each, no new
    // values. Each swaps in the model its fine-tune returned, and that
    // model answers an /impute of its grown table with the append's body.
    let mut served = dirty.clone();
    for (k, delta) in ["a,b\na1,\n,b2\n", "a,b\n,b0\na2,\n"]
        .into_iter()
        .enumerate()
    {
        let res = client::request(&running.addr, "POST", "/append", delta.as_bytes()).unwrap();
        assert_eq!(res.status, 200, "{:?}", String::from_utf8_lossy(&res.body));
        let imputed = read_csv_str(std::str::from_utf8(&res.body).unwrap()).unwrap();
        let rows = grimp::table_to_wal_rows(&read_csv_str(delta).unwrap());
        served = grimp::grow_table(&served, &rows).unwrap().0;
        assert_eq!(imputed.n_rows(), dirty.n_rows() + 2 * (k + 1));
        assert_eq!(imputed.n_missing(), 0, "the appended holes are filled");

        let body = to_csv_string(&served);
        assert_eq!(
            read_csv_str(&body).unwrap(),
            served,
            "the grown table survives the CSV round trip, so /impute sees the training table"
        );
        let again = client::impute(&running.addr, &body).unwrap();
        assert_eq!(
            again.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&again.body)
        );
        assert_eq!(
            again.body, res.body,
            "append {k}: /impute of the grown table"
        );
    }

    // The served generation moved once per append, and nothing reloaded.
    let stats = client::request(&running.addr, "GET", "/stats", b"").unwrap();
    let body = String::from_utf8(stats.body).unwrap();
    assert!(body.contains("\"appends\":2"), "{body}");
    assert!(body.contains("\"reloads\":0"), "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");

    // The first poll comes 20–25 ms after start; the requests above can
    // finish sooner than that.
    running.await_reload_poll();
    let (report, trace) = running.stop();
    assert!(report.clean);
    assert_eq!((report.appends, report.reloads), (2, 0));
    assert_eq!(
        restores(&trace),
        1,
        "only the bind builds a model by restore"
    );
    assert!(
        dir.join(grimp::WAL_APPLIED_FILE).exists(),
        "the append rotated its WAL"
    );
    let replay = grimp_obs::read_jsonl(&trace).unwrap();
    assert!(replay
        .events
        .iter()
        .any(|e| e.name == grimp_obs::names::APPEND));
    // Satellite: the watcher's jittered polls are visible in the trace.
    assert!(replay
        .events
        .iter()
        .any(|e| e.name == grimp_obs::names::RELOAD_POLL));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `fit` spans in a server trace: one per model restore.
fn restores(trace: &str) -> usize {
    let replay = grimp_obs::read_jsonl(trace).unwrap();
    replay
        .events
        .iter()
        .filter(|e| e.kind == EventKind::SpanExit && e.name == names::FIT)
        .count()
}

/// Poll `GET /readyz` until its body contains `needle`.
fn await_readyz(addr: &str, needle: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let ready = client::request(addr, "GET", "/readyz", b"").unwrap();
        let body = String::from_utf8(ready.body).unwrap();
        if body.contains(needle) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "readyz never showed {needle}: {body}"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_panicking_handler_gets_500_and_the_shared_model_keeps_serving() {
    let (source, dirty, dir) = fitted_source("panic", 5);
    let cfg = ServeConfig {
        panic_route: true,
        workers: 2,
        ..ServeConfig::default()
    };
    let running = Running::start("panic", cfg, source);

    // The injected panic answers *that* request with a 500 instead of
    // killing the worker thread or the server.
    let res = client::request(&running.addr, "POST", "/panic", b"").unwrap();
    assert_eq!(res.status, 500, "{:?}", String::from_utf8_lossy(&res.body));

    // Service continues on the same model: the panic dropped only the
    // request's scratch, so nothing is restored again.
    let res = client::impute(&running.addr, &to_csv_string(&dirty)).unwrap();
    assert_eq!(res.status, 200, "{:?}", String::from_utf8_lossy(&res.body));

    let stats = client::request(&running.addr, "GET", "/stats", b"").unwrap();
    let stats_body = String::from_utf8(stats.body).unwrap();
    assert!(stats_body.contains("\"panics\":1"), "{stats_body}");

    let (report, trace) = running.stop();
    assert!(report.clean, "a panic must not wedge the drain");
    assert_eq!(report.panics, 1);
    let replay = grimp_obs::read_jsonl(&trace).unwrap();
    assert!(replay.events.iter().any(|e| e.name == names::WORKER_PANIC));
    assert_eq!(restores(&trace), 1, "only the bind restores a model");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn four_workers_share_one_restored_model() {
    let (source, dirty, dir) = fitted_source("shared", 5);
    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let running = Running::start("shared", cfg, source);

    // Four clients send 16 imputes at once, four of each body: the
    // training table and three unseen ones.
    let mut bodies = vec![to_csv_string(&dirty)];
    for seed in 1..4 {
        let mut unseen = small_table(12 + 3 * seed as usize);
        inject_mcar(&mut unseen, 0.2, &mut StdRng::seed_from_u64(seed));
        bodies.push(to_csv_string(&unseen));
    }
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let (addr, bodies) = (running.addr.clone(), bodies.clone());
            thread::spawn(move || {
                (0..4)
                    .map(|k| {
                        let res = client::impute(&addr, &bodies[(c + k) % 4]).unwrap();
                        assert_eq!(res.status, 200, "{:?}", String::from_utf8_lossy(&res.body));
                        ((c + k) % 4, res.body)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut answers: Vec<Option<Vec<u8>>> = vec![None; 4];
    for client in clients {
        for (b, answer) in client.join().unwrap() {
            let first = answers[b].get_or_insert_with(|| answer.clone());
            assert_eq!(*first, answer, "one body got two different answers");
        }
    }

    let (report, trace) = running.stop();
    assert!(report.clean);
    assert_eq!(report.served, 16);
    assert_eq!(restores(&trace), 1, "4 workers and 16 imputes, one restore");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_rotation_then_a_panic_keeps_serving_the_last_good_generation() {
    let (source, dirty, dir) = fitted_source("badrotation", 5);
    let cfg = ServeConfig {
        panic_route: true,
        workers: 1,
        reload_poll: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let running = Running::start("badrotation", cfg, source);
    let body = to_csv_string(&dirty);
    let good = client::impute(&running.addr, &body).unwrap();
    assert_eq!(good.status, 200);

    // A trainer rotates in CRC-valid checkpoints of a differently shaped
    // model: none of them restores against the served pipeline.
    let mut narrow = quick_config(5, &dir);
    narrow.gnn.hidden = 4;
    Pipeline::new(narrow).unwrap().fit(&dirty).unwrap();
    let ready = await_readyz(&running.addr, "\"failed_reload_generation\":1");
    assert!(ready.contains("\"generation\":0"), "{ready}");

    // A panic on the only worker loses nothing: staleness, not downtime.
    let res = client::request(&running.addr, "POST", "/panic", b"").unwrap();
    assert_eq!(res.status, 500);
    for _ in 0..3 {
        let res = client::impute(&running.addr, &body).unwrap();
        assert_eq!(res.status, 200, "{:?}", String::from_utf8_lossy(&res.body));
        assert_eq!(res.body, good.body, "the last good generation answers");
    }
    let ready = client::request(&running.addr, "GET", "/readyz", b"").unwrap();
    let ready = String::from_utf8(ready.body).unwrap();
    assert!(ready.contains("\"failed_reload_generation\":1"), "{ready}");

    let (report, _) = running.stop();
    assert!(report.clean);
    assert_eq!((report.reloads, report.panics), (0, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panic_holding_the_append_gate_does_not_wedge_append_or_readyz() {
    let (source, dirty, dir) = fitted_source("gatepoison", 5);
    let cfg = ServeConfig {
        panic_route: true,
        workers: 2,
        ..ServeConfig::default()
    };
    let running = Running::start("gatepoison", cfg, source);

    // Panic while the handler HOLDS the append gate: the unwind poisons
    // the mutex. That request is a 500 like any caught panic…
    let res = client::request(&running.addr, "POST", "/panic", b"append-gate").unwrap();
    assert_eq!(res.status, 500, "{:?}", String::from_utf8_lossy(&res.body));

    // …but the poisoning must not read as "append in progress" forever:
    // readiness recovers, and the next append takes the gate and runs.
    let ready = client::request(&running.addr, "GET", "/readyz", b"").unwrap();
    assert_eq!(
        ready.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&ready.body)
    );
    let body = String::from_utf8(ready.body).unwrap();
    assert!(body.contains("\"append_in_progress\":false"), "{body}");

    let appended = client::request_with_headers(
        &running.addr,
        "POST",
        "/append",
        &[("Idempotency-Key", "after-poison")],
        b"a,b\na1,\n",
    )
    .unwrap();
    assert_eq!(
        appended.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&appended.body)
    );
    let grown = read_csv_str(std::str::from_utf8(&appended.body).unwrap()).unwrap();
    assert_eq!(grown.n_rows(), dirty.n_rows() + 1);

    let (report, _) = running.stop();
    assert!(report.clean);
    assert_eq!(report.appends, 1, "the append ran despite the poisoning");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readyz_reports_generation_and_pending_wal() {
    let (source, _dirty, dir) = fitted_source("readyz", 5);
    let running = Running::start("readyz", ServeConfig::default(), source);

    let res = client::request(&running.addr, "GET", "/readyz", b"").unwrap();
    assert_eq!(res.status, 200);
    let body = String::from_utf8(res.body).unwrap();
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"generation\":0"), "{body}");
    assert!(body.contains("\"pending_wal\":false"), "{body}");
    assert!(body.contains("\"failed_reload_generation\":null"), "{body}");

    // A pending append log left by a crash is visible to orchestrators
    // (informational: readiness itself keys on drain/append state).
    std::fs::write(dir.join(grimp::WAL_FILE), b"GRIMPWAL").unwrap();
    let res = client::request(&running.addr, "GET", "/readyz", b"").unwrap();
    let body = String::from_utf8(res.body).unwrap();
    assert!(body.contains("\"pending_wal\":true"), "{body}");
    std::fs::remove_file(dir.join(grimp::WAL_FILE)).unwrap();

    let (report, _) = running.stop();
    assert!(report.clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keyed_append_replays_from_the_journal_not_the_model() {
    let (source, dirty, dir) = fitted_source("idem", 5);
    let running = Running::start("idem", ServeConfig::default(), source);
    let delta = b"a,b\na1,\n,b2\n";
    let headers: &[(&str, &str)] = &[("Idempotency-Key", "append-42")];

    // Invalid keys are rejected before anything is journaled.
    let bad = client::request_with_headers(
        &running.addr,
        "POST",
        "/append",
        &[("Idempotency-Key", "has space")],
        delta,
    )
    .unwrap();
    assert_eq!(bad.status, 400, "{:?}", String::from_utf8_lossy(&bad.body));

    let first =
        client::request_with_headers(&running.addr, "POST", "/append", headers, delta).unwrap();
    assert_eq!(
        first.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&first.body)
    );
    let grown = read_csv_str(std::str::from_utf8(&first.body).unwrap()).unwrap();
    assert_eq!(grown.n_rows(), dirty.n_rows() + 2);

    // Same key, same body: answered byte-for-byte from the journal,
    // flagged as a replay, and the model is not touched again.
    let second =
        client::request_with_headers(&running.addr, "POST", "/append", headers, delta).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("Idempotency-Replay"), Some("true"));
    assert_eq!(second.body, first.body, "recorded response replays");

    // Same key, different body: a client bug, refused loudly.
    let conflict =
        client::request_with_headers(&running.addr, "POST", "/append", headers, b"a,b\na2,\n")
            .unwrap();
    assert_eq!(conflict.status, 422);

    let (report, trace) = running.stop();
    assert!(report.clean);
    assert_eq!(report.appends, 1, "the replay applied nothing");
    let replay = grimp_obs::read_jsonl(&trace).unwrap();
    assert!(replay
        .events
        .iter()
        .any(|e| e.name == grimp_obs::names::IDEM_REPLAY));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dictionary_growing_append_is_refused_before_any_model_work() {
    let (source, dirty, dir) = fitted_source("dictgrow", 5);
    let running = Running::start("dictgrow", ServeConfig::default(), source);

    // "zebra" is not in column a's dictionary: appending it would force a
    // full refit, whose checkpoint a respawned server (which restores
    // against the base table) could never start from. Refused up front —
    // nothing journaled, nothing rotated, no generation bump.
    let refused = client::request_with_headers(
        &running.addr,
        "POST",
        "/append",
        &[("Idempotency-Key", "grow-1")],
        b"a,b\nzebra,b0\n",
    )
    .unwrap();
    assert_eq!(
        refused.status,
        409,
        "{:?}",
        String::from_utf8_lossy(&refused.body)
    );
    assert!(
        String::from_utf8_lossy(&refused.body).contains("grimp append"),
        "the rejection points at the offline flow"
    );
    assert!(
        !dir.join("grimp.idem").exists(),
        "a refused append must not journal its key"
    );

    // The same key is free to retry with a recoverable delta: the 409
    // happened before the idempotency intake, so this is a first use.
    let ok = client::request_with_headers(
        &running.addr,
        "POST",
        "/append",
        &[("Idempotency-Key", "grow-1")],
        b"a,b\na1,b0\n",
    )
    .unwrap();
    assert_eq!(ok.status, 200, "{:?}", String::from_utf8_lossy(&ok.body));
    let grown = read_csv_str(std::str::from_utf8(&ok.body).unwrap()).unwrap();
    assert_eq!(grown.n_rows(), dirty.n_rows() + 1);

    let (report, _) = running.stop();
    assert!(report.clean);
    assert_eq!(report.appends, 1, "only the recoverable delta applied");
    let _ = std::fs::remove_dir_all(&dir);
}
