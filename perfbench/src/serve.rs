//! serve_impute and serve_append: clients of an in-process `grimp serve`
//! with its default 2 workers, restored from a checkpoint fitted on the
//! first 2000 rows of the Adult dirty table. Load comes from one open-loop
//! generator: 2 threads share one schedule of due times, so at most 2
//! connections are open and a stall delays the requests due after it.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use grimp::checkpoint::{TrainCheckpoint, CHECKPOINT_FILE};
use grimp::{GrimpConfig, GrimpError, Pipeline, ShutdownFlag, TrainReport, LOCK_FILE};
use grimp_obs::{names, Event, EventKind, EventSink, MemorySink, NullSink};
use grimp_serve::{client, DrainReport, ModelSource, ServeConfig, Server};
use grimp_table::csv::{read_csv_str, to_csv_bytes};
use grimp_table::{check_imputation_contract, Normalizer, Table};

use crate::fit::full_config;
use crate::input::{self, Body, ServeInputs, DELTA_ROWS, SERVED_ROWS};
use crate::layers;
use crate::report::{median, peak_rss_mb, quantile, time_ms, train_metrics, RunResult, Spans};
use crate::{Args, SETUPS};

/// Offered `/impute` rate of the open-loop phase, well below the 150–170
/// req/s closed-loop goodput of 2 workers.
const RATE: f64 = 30.0;
/// Generator threads, and so the most connections ever open at once.
const CONNECTIONS: usize = 2;
/// serve_append sends one delta every this many seconds, 4 per 40 s run.
/// The first fine-tunes 8 epochs, each rotating a checkpoint that the
/// reload poll swaps in and both workers rebuild from, so 10–13 % of
/// imputes stall and p99 falls inside the stall, not on its edge.
const APPEND_EVERY_S: f64 = 10.0;
/// Sequential warm-up imputes after bind: every worker restores its replica.
const WARMUP_REQUESTS: usize = 4;
/// Length of the closed-loop goodput phase of serve_impute's traced run.
const GOODPUT_SECONDS: f64 = 3.0;
/// Latency limit of a goodput answer.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// The traced run records the server's events in alternate windows of
/// this length; the latency gap between the two is the tracing overhead.
const TRACE_WINDOW_S: f64 = 1.0;
/// Traced requests replayed layer by layer.
const REPLAYED_REQUESTS: usize = 64;

pub struct ServeWorkload {
    pub appends: bool,
}

/// Server events the traced run keeps, with the instant each arrived.
type Records = Arc<Mutex<Vec<(Instant, Event)>>>;

/// The sink handed to `Server::bind` in the traced run: keeps the request
/// span and queue-wait metric the server already emits, while `on`.
struct RecordingSink {
    on: Arc<AtomicBool>,
    records: Records,
}

impl EventSink for RecordingSink {
    fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn record(&mut self, event: Event) {
        let keep = matches!(
            (event.kind, event.name),
            (EventKind::SpanExit, names::REQUEST) | (EventKind::Metric, names::QUEUE_WAIT)
        );
        if keep {
            let now = Instant::now();
            self.records
                .lock()
                .expect("no recorder panics while holding the lock")
                .push((now, event));
        }
    }
}

struct Running {
    addr: String,
    flag: ShutdownFlag,
    thread: thread::JoinHandle<Result<DrainReport, GrimpError>>,
}

impl Running {
    fn stop(self) -> Result<DrainReport, String> {
        self.flag.request();
        let report = self
            .thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("the server failed: {e}"))?;
        if !report.clean || report.panics > 0 || report.shed > 0 {
            return Err(format!("unclean drain: {report:?}"));
        }
        Ok(report)
    }
}

fn bind(cfg: &GrimpConfig, served: &Table, dir: &Path, sink: Box<dyn EventSink + Send>) -> Running {
    let source = ModelSource {
        pipeline: Pipeline::new(cfg.clone()).expect("the serving config is valid"),
        train: served.clone(),
        checkpoint_dir: dir.to_path_buf(),
    };
    let flag = ShutdownFlag::new();
    let server = Server::bind(ServeConfig::default(), source, flag.clone(), sink)
        .expect("the server binds and restores the checkpoint");
    let addr = server.local_addr().expect("a bound address").to_string();
    Running {
        addr,
        flag,
        thread: thread::spawn(move || server.run()),
    }
}

/// Check one `/impute` answer against its body: 200, every cell filled,
/// observed cells untouched. Returns the answer aligned with the body.
fn check_impute(body: &Body, status: u16, answer: &[u8]) -> Result<Table, String> {
    if status != 200 {
        return Err(format!(
            "/impute answered {status}: {}",
            String::from_utf8_lossy(answer).trim()
        ));
    }
    let text = std::str::from_utf8(answer).map_err(|_| "answer is not UTF-8".to_string())?;
    let table = read_csv_str(text).map_err(|e| format!("answer does not parse: {e}"))?;
    let aligned = input::align(&body.table, &table).ok_or("answer does not match its request")?;
    check_imputation_contract(&body.table, &aligned)?;
    Ok(aligned)
}

/// Check one `/append` answer: 200, and the imputed grown table is exactly
/// the served rows plus every delta sent so far, observed cells untouched.
fn check_append(
    inputs: &ServeInputs,
    upto: usize,
    status: u16,
    answer: &[u8],
) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "/append answered {status}: {}",
            String::from_utf8_lossy(answer).trim()
        ));
    }
    let mut expected = inputs.served_csv.clone();
    for d in &inputs.deltas[..=upto] {
        expected.push_str(d.csv.split_once('\n').map_or("", |(_, rows)| rows));
    }
    let expected = read_csv_str(&expected).map_err(|e| e.to_string())?;
    let want_rows = SERVED_ROWS + (upto + 1) * DELTA_ROWS;
    let text = std::str::from_utf8(answer).map_err(|_| "answer is not UTF-8".to_string())?;
    let table = read_csv_str(text).map_err(|e| format!("append answer does not parse: {e}"))?;
    if expected.n_rows() != want_rows || table.n_rows() != want_rows {
        return Err(format!(
            "served table has {} rows, not {want_rows}",
            table.n_rows()
        ));
    }
    let aligned = input::align(&expected, &table).ok_or("append answer does not match")?;
    check_imputation_contract(&expected, &aligned)
}

/// What a request carries: an impute body (cycled), a delta, or a probe.
#[derive(Clone, Copy)]
enum Item {
    Impute(usize),
    Append(usize),
    Probe(usize),
}

impl Item {
    fn request(self, inputs: &ServeInputs) -> (&'static str, &Body) {
        match self {
            Item::Impute(k) => ("/impute", &inputs.requests[k % inputs.requests.len()]),
            Item::Append(j) => ("/append", &inputs.deltas[j]),
            Item::Probe(p) => ("/impute", &inputs.probes[p]),
        }
    }
}

/// One request sent to the server.
struct Sent {
    item: Item,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    answer: Vec<u8>,
}

impl Sent {
    /// Check the answer; an impute or probe answer comes back aligned with
    /// its body.
    fn check(&self, inputs: &ServeInputs) -> Result<Option<Table>, String> {
        match self.item {
            Item::Append(j) => check_append(inputs, j, self.status, &self.answer).map(|()| None),
            item => check_impute(item.request(inputs).1, self.status, &self.answer).map(Some),
        }
    }

    fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
}

/// Send one request now; a connection that fails reads as status 0.
fn send(addr: &str, inputs: &ServeInputs, item: Item, due: Instant) -> Sent {
    let (path, body) = item.request(inputs);
    let sent = Instant::now();
    let resp = client::request(addr, "POST", path, body.csv.as_bytes());
    let done = Instant::now();
    let (status, answer) = resp.map_or((0, Vec::new()), |r| (r.status, r.body));
    Sent {
        item,
        due,
        sent,
        done,
        status,
        answer,
    }
}

/// Send `plan` (offsets from `t0`, in due order) from [`CONNECTIONS`]
/// threads sharing one cursor, until the plan or `stop` runs out;
/// `on_send` runs just before each send.
fn generate(
    addr: &str,
    inputs: &ServeInputs,
    t0: Instant,
    plan: &[(f64, Item)],
    stop: Option<Instant>,
    on_send: &(dyn Fn(f64) + Sync),
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let log = Mutex::new(Vec::with_capacity(plan.len()));
    thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(offset, item)) = plan.get(i) else {
                    break;
                };
                let due = t0 + Duration::from_secs_f64(offset);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                if stop.is_some_and(|stop| Instant::now() >= stop) {
                    break;
                }
                on_send(offset);
                let sent = send(addr, inputs, item, due);
                log.lock()
                    .expect("no sender panics holding the lock")
                    .push(sent);
            });
        }
    });
    let mut log = log.into_inner().expect("every sender joined");
    log.sort_by_key(|s| s.sent);
    log
}

/// Copy the regular files of a checkpoint directory, lock excluded.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create the replay checkpoint directory");
    for entry in std::fs::read_dir(from).expect("read the checkpoint directory") {
        let entry = entry.expect("a directory entry");
        let name = entry.file_name();
        if entry.path().is_file() && name != LOCK_FILE {
            std::fs::copy(entry.path(), to.join(name)).expect("copy a checkpoint file");
        }
    }
}

fn restore(cfg: &GrimpConfig, table: &Table, dir: &Path) -> grimp::FittedModel {
    let ck = TrainCheckpoint::load(&dir.join(CHECKPOINT_FILE)).expect("the checkpoint loads");
    Pipeline::new(cfg.clone())
        .expect("the serving config is valid")
        .restore(table, &ck)
        .expect("the checkpoint restores")
}

pub fn run(w: &ServeWorkload, args: &Args, work: &Path, out: &mut RunResult) {
    let cfg = full_config();
    let n_deltas = if w.appends {
        ((args.seconds / APPEND_EVERY_S).floor() as usize).max(1)
    } else {
        0
    };
    let n_requests = (RATE * args.seconds).ceil() as usize;
    let ckpt = work.join("ckpt");
    let replay_ckpt = work.join("ckpt-replay");
    let tracing = Arc::new(AtomicBool::new(false));
    let records: Records = Arc::default();
    let check = |out: &mut RunResult, s: &Sent, inputs: &ServeInputs| match s.check(inputs) {
        Ok(answer) => {
            out.op(Ok(()));
            answer
        }
        Err(e) => {
            out.op(Err(e));
            None
        }
    };

    // Set-up: generate the inputs, fit the served model (writing its
    // checkpoint), bind, and warm up; the last set-up's server is timed.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let inst = input::adult(args.seed);
        let inputs = input::serve_inputs(&inst, args.seed, n_requests, n_deltas);
        let _ = std::fs::remove_dir_all(&ckpt);
        let fit_cfg = GrimpConfig {
            checkpoint_dir: Some(ckpt.clone()),
            ..cfg.clone()
        };
        let last = k + 1 == SETUPS;
        // The traced run keeps the served fit's events for its graph counts.
        let mut fit_events = MemorySink::new();
        let fit_sink: &mut dyn EventSink = if args.trace && last {
            &mut fit_events
        } else {
            &mut NullSink
        };
        let report = Pipeline::new(fit_cfg)
            .expect("the serving config is valid")
            .fit_traced(&inputs.served, fit_sink)
            .expect("the served model fits")
            .report()
            .clone();
        let graph = layers::graph_counts(fit_events.events());
        let sink: Box<dyn EventSink + Send> = if args.trace && last {
            Box::new(RecordingSink {
                on: Arc::clone(&tracing),
                records: Arc::clone(&records),
            })
        } else {
            Box::new(NullSink)
        };
        let server = bind(&cfg, &inputs.served, &ckpt, sink);
        let warm: Vec<Sent> = (0..WARMUP_REQUESTS)
            .map(|k| send(&server.addr, &inputs, Item::Impute(k), Instant::now()))
            .collect();
        for s in &warm {
            check(out, s, &inputs);
        }
        setups.push(t.elapsed().as_secs_f64());
        eprintln!(
            "set-up: {:.3} s, peak RSS {:.0} MB",
            t.elapsed().as_secs_f64(),
            peak_rss_mb()
        );
        if last {
            ready = Some((inst, inputs, (report, graph), server, warm));
        } else {
            out.op(server.stop().map(|_| ()));
        }
    }
    out.set("setup_s", median(&setups));
    let (inst, inputs, served_fit, server, mut log) = ready.expect("at least one set-up");
    if args.trace && w.appends {
        copy_dir(&ckpt, &replay_ckpt);
    }

    // The timed phase: imputes at RATE, deltas every APPEND_EVERY_S.
    let mut plan: Vec<(f64, Item)> = (0..n_requests)
        .map(|k| (k as f64 / RATE, Item::Impute(k)))
        .chain((0..n_deltas).map(|j| ((j as f64 + 0.5) * APPEND_EVERY_S, Item::Append(j))))
        .collect();
    plan.sort_by(|a, b| a.0.total_cmp(&b.0));
    let trace = args.trace;
    let on_send = |offset: f64| {
        if trace {
            let window = (offset / TRACE_WINDOW_S).floor() as u64;
            tracing.store(window % 2 == 1, Ordering::Relaxed);
        }
    };
    let t0 = Instant::now() + Duration::from_millis(20);
    let timed = generate(&server.addr, &inputs, t0, &plan, None, &on_send);
    tracing.store(false, Ordering::Relaxed);

    let mut scorer = input::Scorer::new(&inst);
    let mut latencies = Vec::new();
    let mut appends_ms = Vec::new();
    for s in &timed {
        let answer = check(out, s, &inputs);
        match s.item {
            Item::Append(_) => appends_ms.push((s.done - s.sent).as_secs_f64() * 1e3),
            item => {
                if answer.is_some() {
                    latencies.push(s.latency_ms());
                }
                if let (Some(answer), false) = (answer, w.appends) {
                    scorer.add(item.request(&inputs).1, &answer);
                }
            }
        }
    }
    out.set("latency_ms", median(&latencies));
    eprintln!("timed phase: peak RSS {:.0} MB", peak_rss_mb());

    // The traced run of serve_impute adds a closed loop on the same 2
    // connections: every request is due at once, so each thread sends as
    // soon as its previous answer is back.
    if trace && !w.appends {
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(GOODPUT_SECONDS);
        let closed: Vec<(f64, Item)> = (0..(GOODPUT_SECONDS * 1000.0) as usize)
            .map(|k| (0.0, Item::Impute(k)))
            .collect();
        let sent = generate(&server.addr, &inputs, start, &closed, Some(stop), &|_| {});
        let mut good = 0usize;
        for s in &sent {
            let ok = check(out, s, &inputs).is_some();
            good += usize::from(ok && (s.done - s.sent).as_secs_f64() * 1e3 <= LATENCY_LIMIT_MS);
        }
        out.set("serve.goodput_rps", good as f64 / GOODPUT_SECONDS);
        log.extend(sent);
    }

    // Quality: every open-loop answer on serve_impute; on serve_append the
    // fixed probe set, sent once the last append has swapped in.
    if w.appends {
        for p in 0..inputs.probes.len() {
            let s = send(&server.addr, &inputs, Item::Probe(p), Instant::now());
            if let Some(answer) = check(out, &s, &inputs) {
                scorer.add(&inputs.probes[p], &answer);
            }
            log.push(s);
        }
    }
    let (accuracy, rmse) = scorer.score(&inst);
    out.set("accuracy", accuracy);
    out.set("rmse", rmse);

    let drained = server.stop();
    if let Ok(report) = &drained {
        if report.appends != n_deltas as u64 {
            out.problem(format!(
                "{} appends applied, {n_deltas} sent",
                report.appends
            ));
        }
    }
    out.op(drained.map(|_| ()));
    out.set("peak_rss_mb", peak_rss_mb());

    if trace {
        let stalls = stall_windows(&timed);
        let imputes: Vec<&Sent> = timed
            .iter()
            .filter(|s| matches!(s.item, Item::Impute(_)))
            .collect();
        let stalled = imputes
            .iter()
            .filter(|s| stalls.iter().any(|&(a, b)| s.due < b && s.done > a))
            .count();
        out.set(
            "serve.stalled_share",
            stalled as f64 / imputes.len().max(1) as f64,
        );
        out.set("serve.impute_p99_ms", quantile(&latencies, 0.99));
        out.set("serve.impute_samples", latencies.len() as f64);
        let lags: Vec<f64> = timed
            .iter()
            .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
            .collect();
        out.set("serve.generator_lag_ms", quantile(&lags, 0.99));
        if w.appends {
            out.set("serve.append_p50_ms", median(&appends_ms));
        }
        let window_latencies = |on: bool| -> Vec<f64> {
            imputes
                .iter()
                .filter(|s| {
                    let offset = s.due.saturating_duration_since(t0).as_secs_f64();
                    ((offset / TRACE_WINDOW_S).floor() as u64 % 2 == 1) == on
                })
                .map(|s| s.latency_ms())
                .collect()
        };
        out.set(
            "obs.trace_overhead_pct",
            100.0 * (median(&window_latencies(true)) / median(&window_latencies(false)) - 1.0),
        );

        // Every request the last server accepted, in send order: the
        // server numbers requests in accept order.
        log.extend(timed);
        log.sort_by_key(|s| s.sent);
        let records = std::mem::take(&mut *records.lock().expect("the server has stopped"));
        let (spans, table) = trace_layers(
            &cfg,
            &inputs,
            &served_fit,
            (&ckpt, &replay_ckpt),
            &log,
            &records,
            out,
        );
        crate::write_trace(args, &spans, &table);
    }
}

/// Intervals in which an impute counts as stalled: each append from its
/// send until the second impute sent after it completes, which covers the
/// fine-tune, the generation swap, and both workers' replica rebuilds.
fn stall_windows(sent: &[Sent]) -> Vec<(Instant, Instant)> {
    sent.iter()
        .filter(|s| matches!(s.item, Item::Append(_)))
        .map(|a| {
            let settled = sent
                .iter()
                .filter(|s| matches!(s.item, Item::Impute(_)) && s.sent >= a.done)
                .nth(CONNECTIONS - 1)
                .map_or(a.done, |s| s.done);
            (a.sent, settled.max(a.done))
        })
        .collect()
}

/// Per-layer metrics of the served model and of traced requests, and the
/// span tree of the replayed ones.
/// `fit` is the served fit's report and graph counters, `log` every request
/// the traced server accepted, in send order, and `dirs` the served
/// checkpoint directory and its pre-append copy.
fn trace_layers(
    cfg: &GrimpConfig,
    inputs: &ServeInputs,
    (fit, graph): &(TrainReport, (f64, f64)),
    (ckpt, replay_ckpt): (&Path, &Path),
    log: &[Sent],
    records: &[(Instant, Event)],
    out: &mut RunResult,
) -> (Spans, String) {
    // The served model: its fit report, graph and kernel shapes.
    train_metrics(std::slice::from_ref(fit), fit.seconds, out);
    let fg = layers::checked_fit_graph(cfg, &inputs.served, *graph, out);
    layers::tensor_kernels(cfg, &fg.graph, &inputs.served, out);

    // Appends replayed through `Pipeline::append` on a copy of the
    // checkpoint directory as it was before the first append.
    let mut served = inputs.served.clone();
    if !inputs.deltas.is_empty() {
        let pipeline = Pipeline::new(GrimpConfig {
            checkpoint_dir: Some(replay_ckpt.to_path_buf()),
            ..cfg.clone()
        })
        .expect("the append config is valid");
        let (mut ms, mut epochs, mut bytes) = (Vec::new(), 0usize, 0usize);
        for d in &inputs.deltas {
            let rows = grimp::table_to_wal_rows(&d.table);
            let t = Instant::now();
            match pipeline.append(&served, &rows) {
                Ok(o) => {
                    ms.push(t.elapsed().as_secs_f64() * 1e3);
                    eprintln!(
                        "replayed append: {} rows, path {}, {} epochs, drift {:?}, refit scheduled {}",
                        o.appended_rows,
                        o.path.label(),
                        o.report.epochs_run,
                        o.report.drift,
                        o.report.refit_scheduled
                    );
                    epochs += o.report.epochs_run;
                    bytes = o.report.checkpoint_bytes;
                    served = o.table;
                }
                Err(e) => out.problem(format!("replayed append failed: {e}")),
            }
        }
        out.set("core.append_ms", median(&ms));
        out.set("core.append.finetune_epochs", epochs as f64);
        out.set("core.checkpoint_bytes", bytes as f64);
    }

    // The served model as the last generation left it.
    out.set(
        "core.restore_ms",
        time_ms(3, || {
            std::hint::black_box(restore(cfg, &served, ckpt));
        }),
    );
    let mut model = restore(cfg, &served, ckpt);
    let normalizer = Normalizer::fit(&served);
    let ft_seed = layers::fit_graph(cfg, &served).ft_seed;

    // Server-side request spans and queue waits, by request id.
    let mut request_span: Vec<Option<(Instant, Instant)>> = vec![None; log.len()];
    let mut queue_wait: Vec<Option<f64>> = vec![None; log.len()];
    for (at, e) in records {
        let id = e.index as usize;
        if id >= log.len() {
            continue;
        }
        match e.kind {
            EventKind::SpanExit => {
                let start = at
                    .checked_sub(Duration::from_secs_f64(e.value))
                    .unwrap_or(*at);
                request_span[id] = Some((start, *at));
            }
            _ => queue_wait[id] = Some(e.value),
        }
    }

    let mut spans = Spans::new(log.first().map_or_else(Instant::now, |s| s.sent));
    let (mut waits, mut served_ms, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    let mut replay = Vec::new();
    for (id, (span, q)) in request_span.iter().zip(&queue_wait).enumerate() {
        let (Some((start, end)), Some(q)) = (*span, *q) else {
            continue;
        };
        // Two threads can connect in the other order than they stamped
        // their send times, so request `id` is matched to whichever send
        // next to position `id` holds its accept-to-answer interval.
        let accepted = start
            .checked_sub(Duration::from_secs_f64(q))
            .unwrap_or(start);
        let Some(s) = log[id.saturating_sub(1)..(id + 2).min(log.len())]
            .iter()
            .find(|s| s.sent <= accepted && end <= s.done)
        else {
            continue;
        };
        let Item::Impute(_) = s.item else { continue };
        let rtt = (s.done - s.sent).as_secs_f64();
        let req = (end - start).as_secs_f64();
        waits.push(q * 1e3);
        served_ms.push(req * 1e3);
        transport.push((rtt - q - req) * 1e3);
        if replay.len() < REPLAYED_REQUESTS {
            replay.push((id, s, start, end, q));
        }
    }
    out.set("serve.queue_wait_ms", median(&waits));
    out.set("serve.request_ms", median(&served_ms));
    out.set("serve.transport_ms", median(&transport));

    // Replay each sampled request's body through the layers inside the
    // request span, and lay the replayed calls out as its children.
    let mut roots = Vec::new();
    let mut parse_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut impute_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut ft_ms = Vec::new();
    let mut fwd_ms = Vec::new();
    for (id, s, start, end, q) in replay {
        let body = s.item.request(inputs).1;
        let parse = time_ms(1, || {
            std::hint::black_box(read_csv_str(&body.csv).expect("the body parses"));
        });
        let mut answer = None;
        let impute = time_ms(1, || answer = Some(model.impute(&body.table)));
        let answer = match answer.expect("imputed above") {
            Ok(a) => a,
            Err(e) => {
                out.problem(format!("replayed impute failed: {e}"));
                continue;
            }
        };
        let write = time_ms(1, || {
            std::hint::black_box(to_csv_bytes(&answer));
        });
        let l = layers::request_layers(cfg, &normalizer, &body.table, ft_seed);
        parse_ms.push(parse);
        write_ms.push(write);
        impute_ms.push(impute);
        build_ms.push(l.graph_build_ms);
        ft_ms.push(l.fasttext_ms);
        fwd_ms.push(l.forward_ms);

        let unit = id as u64;
        let root = spans.push("impute_request", "bench", unit, s.sent, s.done, None);
        let accepted = start
            .checked_sub(Duration::from_secs_f64(q))
            .unwrap_or(start);
        spans.push("queue_wait", "serve", unit, accepted, start, Some(root));
        let request = spans.push("request", "serve", unit, start, end, Some(root));
        // Replayed durations, scaled down if together they overrun the
        // request span they are laid out in.
        let span_ms = (end - start).as_secs_f64() * 1e3;
        let scale = (span_ms / (parse + impute + write)).min(1.0);
        let at = |t: Instant, ms: f64| t + Duration::from_secs_f64(ms * scale * 1e-3);
        let mut t = start;
        spans.push("csv_parse", "table", unit, t, at(t, parse), Some(request));
        t = at(t, parse);
        let imp = spans.push("impute", "core", unit, t, at(t, impute), Some(request));
        let inner = (l.graph_build_ms + l.fasttext_ms + l.forward_ms).max(impute);
        let inner_scale = impute / inner;
        let mut u = t;
        for (name, layer, ms) in [
            ("graph_build", "graph", l.graph_build_ms),
            ("fasttext", "graph", l.fasttext_ms),
            ("forward", "gnn", l.forward_ms),
        ] {
            let next = at(u, ms * inner_scale);
            spans.push(name, layer, unit, u, next, Some(imp));
            u = next;
        }
        t = at(t, impute);
        spans.push("csv_write", "table", unit, t, at(t, write), Some(request));
        roots.push(root);
    }
    out.set("table.csv_parse_ms", median(&parse_ms));
    out.set("table.csv_write_ms", median(&write_ms));
    out.set("core.impute_ms", median(&impute_ms));
    out.set("graph.build_ms", median(&build_ms));
    out.set("graph.fasttext_ms", median(&ft_ms));
    out.set("gnn.forward_ms", median(&fwd_ms));
    let report = spans.report_layers(&roots, out);
    (spans, report)
}
