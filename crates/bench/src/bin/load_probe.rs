//! Serving-throughput probe: fits a small model, then for 1, 2 and 4
//! worker threads binds an in-process `grimp serve` [`Server`] on a
//! loopback port and drives it with concurrent CSV impute requests over
//! real sockets. Writes `BENCH_serve.json` in the working directory with
//! each run's throughput (requests/sec, imputed rows/sec) and latency
//! percentiles (p50/p99).
//!
//! Deterministic load shape (fixed table, fixed request count, fixed
//! client fan-out); wall-clock numbers vary with the machine, the
//! contract checks (every response 200, nothing shed, clean drain, one
//! model restore per server whatever its worker count) do not. Whether
//! more workers buy throughput depends on the cores the host grants, so
//! the probe prints `available_parallelism` beside the numbers and claims
//! nothing.
//!
//! ```bash
//! cargo run --release -p grimp-bench --bin load_probe
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grimp::{CheckpointPolicy, GrimpConfig, GrimpConfigBuilder, Pipeline, ShutdownFlag, TaskKind};
use grimp_graph::FeatureSource;
use grimp_obs::{names, Event, EventKind, EventSink};
use grimp_serve::{client, ModelSource, ServeConfig, Server};
use grimp_table::{ColumnKind, Schema, Table};

/// Requests fired at the server, split across [`CLIENTS`] threads.
const REQUESTS: usize = 60;
/// Concurrent client threads.
const CLIENTS: usize = 3;
/// Server worker counts, one run each; every worker shares the served
/// model.
const WORKERS: [usize; 3] = [1, 2, 4];
/// Rows per request body; a fifth arrive missing and must be imputed.
const BATCH_ROWS: usize = 40;

/// The deterministic training table: mixed categorical/numerical columns.
fn train_table(rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("site", ColumnKind::Categorical),
        ("status", ColumnKind::Categorical),
        ("load", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..rows {
        let site = format!("s{}", i % 7);
        let status = format!("st{}", i % 3);
        let load = format!("{:.2}", ((i * 13) % 97) as f64 / 9.7);
        t.push_str_row(&[Some(&site), Some(&status), Some(&load)]);
    }
    t
}

/// One request body: `BATCH_ROWS` rows with every fifth cell missing.
fn request_csv() -> String {
    let mut csv = String::from("site,status,load\n");
    for i in 0..BATCH_ROWS {
        let site = if i % 5 == 0 {
            String::new()
        } else {
            format!("s{}", i % 7)
        };
        let load = if i % 5 == 3 {
            String::new()
        } else {
            format!("{:.2}", ((i * 13) % 97) as f64 / 9.7)
        };
        let _ = writeln!(csv, "{site},st{},{load}", i % 3);
    }
    csv
}

fn probe_config(ckpt: Option<&std::path::Path>) -> GrimpConfig {
    let mut b = GrimpConfigBuilder::from_config(GrimpConfig::fast())
        .seed(11)
        .max_epochs(6)
        .patience(6);
    if let Some(dir) = ckpt {
        b = b.checkpointing(CheckpointPolicy {
            dir: Some(dir.to_path_buf()),
            ..Default::default()
        });
    }
    let mut cfg = b.build().expect("probe config is valid");
    cfg.task_kind = TaskKind::Attention;
    cfg.features = FeatureSource::FastText;
    cfg
}

/// The percentile (0..=100) of a sorted latency slice, in milliseconds.
fn percentile_ms(sorted: &[Duration], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Counts the model restores (`fit` spans) a server traces.
struct RestoreCounter(Arc<AtomicU64>);

impl EventSink for RestoreCounter {
    fn record(&mut self, event: Event) {
        if event.kind == EventKind::SpanExit && event.name == names::FIT {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// One load run against a server with `workers` worker threads.
struct Run {
    workers: usize,
    total_seconds: f64,
    p50: f64,
    p99: f64,
    served: u64,
    restores: u64,
}

fn run(workers: usize, train: &Table, ckpt_dir: &std::path::Path, body: &str) -> Run {
    let cfg = ServeConfig {
        workers,
        queue_depth: REQUESTS, // nothing sheds: this probe measures latency
        request_deadline: Some(Duration::from_secs(60)),
        ..Default::default()
    };
    let source = ModelSource {
        pipeline: Pipeline::new(probe_config(None)).expect("serving pipeline builds"),
        train: train.clone(),
        checkpoint_dir: ckpt_dir.to_path_buf(),
    };
    let restores = Arc::new(AtomicU64::new(0));
    let sink = Box::new(RestoreCounter(Arc::clone(&restores)));
    let flag = ShutdownFlag::new();
    let server = Server::bind(cfg, source, flag.clone(), sink)
        .expect("server binds and restores the checkpoint");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run());

    // Warm-up: one request per worker.
    for _ in 0..workers {
        let resp = client::impute(&addr, body).expect("warm-up request");
        assert_eq!(resp.status, 200, "warm-up must impute");
    }

    let start = Instant::now();
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let addr = addr.clone();
        let body = body.to_string();
        // REQUESTS is a multiple of CLIENTS, so the split is exact.
        let n = REQUESTS / CLIENTS;
        clients.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(n);
            for _ in 0..n {
                let t0 = Instant::now();
                let resp = client::impute(&addr, &body).expect("impute request");
                latencies.push(t0.elapsed());
                assert_eq!(resp.status, 200, "every probe request imputes");
                let out = String::from_utf8(resp.body).expect("CSV response is UTF-8");
                let imputed = grimp_table::csv::read_csv_str(&out).expect("response parses");
                assert_eq!(imputed.n_missing(), 0, "response is fully imputed");
            }
            latencies
        }));
    }
    let mut latencies: Vec<Duration> = Vec::with_capacity(REQUESTS);
    for c in clients {
        latencies.extend(c.join().expect("client thread finishes"));
    }
    let total_seconds = start.elapsed().as_secs_f64();

    flag.request();
    let report = handle
        .join()
        .expect("server thread finishes")
        .expect("server ran to a drain report");
    assert!(report.clean, "probe load drains clean");
    assert_eq!(report.shed, 0, "queue was sized to shed nothing");
    assert_eq!(report.panics, 0, "probe load panics no handler");
    let restores = restores.load(Ordering::SeqCst);
    assert_eq!(
        restores, 1,
        "{workers} workers must share one restored model, not restore {restores}"
    );

    latencies.sort();
    Run {
        workers,
        total_seconds,
        p50: percentile_ms(&latencies, 50.0),
        p99: percentile_ms(&latencies, 99.0),
        served: report.served,
        restores,
    }
}

fn main() {
    let train = train_table(120);
    let ckpt_dir = std::env::temp_dir().join(format!("grimp-load-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let fit_start = Instant::now();
    Pipeline::new(probe_config(Some(&ckpt_dir)))
        .expect("probe config builds a pipeline")
        .fit(&train)
        .expect("probe fit succeeds");
    let fit_seconds = fit_start.elapsed().as_secs_f64();

    let body = request_csv();
    let runs: Vec<Run> = WORKERS
        .iter()
        .map(|&workers| run(workers, &train, &ckpt_dir, &body))
        .collect();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"requests\": {REQUESTS},\n  \"client_threads\": {CLIENTS},\n  \
         \"batch_rows\": {BATCH_ROWS},\n  \"available_parallelism\": {cores},\n  \
         \"fit_seconds\": {},\n  \"runs\": [\n",
        json_f64(fit_seconds),
    );
    println!(
        "load   : {REQUESTS} requests x {BATCH_ROWS} rows from {CLIENTS} clients \
         per run; available_parallelism {cores}"
    );
    for (i, r) in runs.iter().enumerate() {
        let requests_per_sec = REQUESTS as f64 / r.total_seconds;
        let rows_per_sec = (REQUESTS * BATCH_ROWS) as f64 / r.total_seconds;
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"total_seconds\": {}, \"requests_per_sec\": {}, \
             \"rows_per_sec\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"served\": {}, \
             \"shed\": 0, \"panics\": 0, \"model_restores\": {}}}{}",
            r.workers,
            json_f64(r.total_seconds),
            json_f64(requests_per_sec),
            json_f64(rows_per_sec),
            json_f64(r.p50),
            json_f64(r.p99),
            r.served,
            r.restores,
            if i + 1 < runs.len() { "," } else { "" },
        );
        println!(
            "workers {}: {requests_per_sec:.1} req/s, {rows_per_sec:.0} rows/s, \
             p50 {:.1}ms, p99 {:.1}ms, {} model restore, drained clean \
             (served {} incl. warm-up, shed 0)",
            r.workers, r.p50, r.p99, r.restores, r.served
        );
    }
    json.push_str("  ],\n  \"respawns\": 0,\n  \"clean_drain\": true\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
}
