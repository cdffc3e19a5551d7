//! Hot-path benchmark probe: times GRIMP `fit_impute` on a 250-row Mammogram
//! instance and writes `BENCH_hotpath.json` in the working directory.
//!
//! Also measures the observability layer: the default (`NullSink`) path must
//! stay within 2% of the previously recorded fast time — instrumentation is
//! free when no sink is attached — and a fully traced (`MemorySink`) rep is
//! timed and cross-checked against `TrainReport::from_events`.
//!
//! Fully deterministic: fixed dataset seed, fixed corruption seed, fixed
//! model seed, early stopping disabled so every mode runs the same epochs.
//!
//! ```bash
//! cargo run --release -p grimp-bench --bin hotpath_probe
//! ```

use std::fmt::Write as _;
use std::fs;

use grimp::{BackendKind, Grimp, GrimpConfig, Pipeline, ShutdownFlag, TaskKind, TrainReport};
use grimp_bench::{corrupt, prepare, Profile};
use grimp_datasets::DatasetId;
use grimp_gnn::GnnConfig;
use grimp_graph::FeatureSource;
use grimp_obs::{json, MemorySink};
use grimp_table::{inject_mcar, ColumnKind, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 250;
const RATE: f64 = 0.2;
const REPS: usize = 5;
const EPOCHS: usize = 60;
/// The larger synthetic table for the serial-vs-parallel comparison: wide
/// enough that kernel time dominates, short-epoch so the probe stays fast.
const LARGE_ROWS: usize = 1000;
const LARGE_EPOCHS: usize = 12;
const LARGE_REPS: usize = 3;

/// First `n` rows of a table, dictionaries re-interned to stay minimal.
fn head(table: &Table, n: usize) -> Table {
    let schema: Schema = table.schema().clone();
    let mut out = Table::empty(schema);
    for i in 0..n.min(table.n_rows()) {
        let row: Vec<Value> = (0..table.n_columns())
            .map(|j| match table.get(i, j) {
                Value::Cat(_) => Value::Cat(out.intern(j, &table.display(i, j))),
                v => v,
            })
            .collect();
        out.push_value_row(&row);
    }
    out
}

/// A deterministic mixed-kind table with `rows` rows: three categorical
/// columns of varied cardinality plus two numericals.
fn large_synthetic(rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("site", ColumnKind::Categorical),
        ("device", ColumnKind::Categorical),
        ("status", ColumnKind::Categorical),
        ("load", ColumnKind::Numerical),
        ("temp", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..rows {
        let site = format!("s{}", i % 23);
        let device = format!("d{}", (i * 7 + i / 11) % 31);
        let status = format!("st{}", i % 5);
        let load = format!("{:.2}", ((i * 13) % 97) as f64 / 9.7);
        let temp = format!("{:.2}", 15.0 + ((i * 29) % 53) as f64 / 5.3);
        t.push_str_row(&[
            Some(&site),
            Some(&device),
            Some(&status),
            Some(&load),
            Some(&temp),
        ]);
    }
    t
}

fn probe_config() -> GrimpConfig {
    GrimpConfig {
        features: FeatureSource::FastText,
        feature_dim: 32,
        gnn: GnnConfig {
            layers: 2,
            hidden: 32,
            ..Default::default()
        },
        merge_hidden: 64,
        embed_dim: 32,
        task_kind: TaskKind::Attention,
        max_epochs: EPOCHS,
        patience: EPOCHS, // never early-stop: every mode runs identical epochs
        lr: 2e-2,
        seed: 7,
        ..GrimpConfig::paper()
    }
}

#[derive(Clone)]
struct ModeResult {
    seconds: f64,
    forward_s: f64,
    backward_s: f64,
    optim_s: f64,
    epochs_run: usize,
    first_epoch_allocs: u64,
    allocs_after_epoch1: u64,
    grad_norm_final: f64,
    grad_norm_max: f64,
    clip_activations: usize,
    anomalies_detected: usize,
    recoveries: usize,
    checkpoint_bytes: usize,
}

fn mode_result(report: &TrainReport) -> ModeResult {
    let allocs = report.epoch_allocs();
    let norms = report.grad_norms();
    ModeResult {
        seconds: report.seconds,
        forward_s: report.forward_s,
        backward_s: report.backward_s,
        optim_s: report.optim_s,
        epochs_run: report.epochs_run,
        first_epoch_allocs: allocs.first().copied().unwrap_or(0),
        allocs_after_epoch1: allocs.iter().skip(1).sum(),
        grad_norm_final: norms.last().copied().unwrap_or(0.0),
        grad_norm_max: norms.iter().copied().fold(0.0, f64::max),
        clip_activations: report.clip_activations,
        anomalies_detected: report.anomalies_detected(),
        recoveries: report.recoveries,
        checkpoint_bytes: report.checkpoint_bytes,
    }
}

/// The probe config with every governance feature armed but never firing:
/// an unreachable deadline, an unreachable memory budget, and an installed
/// (never requested) shutdown flag. Measures what governed *checks* cost
/// on the hot path when no limit is hit — the common production case.
fn governed_config() -> GrimpConfig {
    let mut cfg = probe_config();
    cfg.deadline_secs = Some(1e9);
    cfg.memory_budget_mb = Some(1 << 20);
    cfg.shutdown = Some(ShutdownFlag::new());
    cfg
}

fn run_config(dirty: &Table, cfg: &GrimpConfig) -> ModeResult {
    run_config_n(dirty, cfg, REPS)
}

fn run_config_n(dirty: &Table, cfg: &GrimpConfig, reps: usize) -> ModeResult {
    let mut best: Option<ModeResult> = None;
    for _ in 0..reps {
        let mut model = Grimp::new(cfg.clone());
        let _ = model.fit_impute(dirty);
        let report = model.last_report().expect("fit_impute sets a report");
        assert!(!report.deadline_hit && !report.interrupted && report.downscales.is_empty());
        let result = mode_result(report);
        if best.as_ref().is_none_or(|b| result.seconds < b.seconds) {
            best = Some(result);
        }
    }
    best.expect("at least one rep")
}

/// One fit + impute; returns per-epoch loss bits and the imputed cells for
/// bit-identity comparison across backends.
fn run_once_for_bits(dirty: &Table, cfg: GrimpConfig) -> (Vec<u32>, Vec<u32>, Vec<String>) {
    let mut model = Grimp::new(cfg);
    let imputed = model.fit_impute(dirty);
    let report = model.last_report().expect("fit_impute sets a report");
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
    let mut cells = Vec::with_capacity(imputed.n_rows() * imputed.n_columns());
    for i in 0..imputed.n_rows() {
        for j in 0..imputed.n_columns() {
            cells.push(imputed.display(i, j));
        }
    }
    (
        bits(report.train_losses()),
        bits(report.val_losses()),
        cells,
    )
}

/// The parallel backend's core contract: its run must be **bit-identical**
/// to the serial one — same per-epoch losses, same imputed table. Holds on
/// any machine and any thread count; this is what makes the recorded
/// speedup a pure win rather than a numerical trade.
fn assert_backend_parity(dirty: &Table, label: &str, serial: GrimpConfig, parallel: GrimpConfig) {
    let s = run_once_for_bits(dirty, serial);
    let p = run_once_for_bits(dirty, parallel);
    assert_eq!(s.0, p.0, "{label}: train losses diverged across backends");
    assert_eq!(s.1, p.1, "{label}: val losses diverged across backends");
    assert_eq!(s.2, p.2, "{label}: imputed cells diverged across backends");
}

/// Best-of-REPS fully traced run (every event recorded in a `MemorySink`),
/// cross-checked against the event-stream replay. Returns the mode result
/// plus the event count of one run.
fn run_traced(dirty: &Table) -> (ModeResult, usize) {
    let pipeline = Pipeline::new(probe_config()).expect("probe config is valid");
    let mut best: Option<ModeResult> = None;
    let mut events = 0usize;
    for _ in 0..REPS {
        let mut sink = MemorySink::new();
        let fitted = pipeline
            .fit_traced(dirty, &mut sink)
            .expect("probe table has columns");
        let report = fitted.report();
        let replayed = TrainReport::from_events(sink.events());
        assert_eq!(
            replayed.train_losses(),
            report.train_losses(),
            "event-stream replay diverged from the live report"
        );
        assert_eq!(replayed.epochs_run, report.epochs_run);
        events = sink.len();
        let result = mode_result(report);
        if best.as_ref().is_none_or(|b| result.seconds < b.seconds) {
            best = Some(result);
        }
    }
    (best.expect("at least one rep"), events)
}

/// Allowed wall-clock excess over the recorded baseline: 2% relative, with
/// an absolute floor of 0.15 ms/epoch. The instrumentation + per-column
/// guard work under test costs microseconds per epoch, so any genuine
/// regression (anything that rescans data inside the epoch loop) clears
/// both bounds by orders of magnitude; the floor only absorbs cross-process
/// scheduler/cache noise on an otherwise-loaded machine.
fn overhead_budget(baseline_seconds: f64, epochs: usize) -> f64 {
    (0.02 * baseline_seconds).max(1.5e-4 * epochs as f64)
}

/// `fast.seconds` from a previously written BENCH_hotpath.json, if any.
fn previous_fast_seconds() -> Option<f64> {
    let text = fs::read_to_string("BENCH_hotpath.json").ok()?;
    json::parse(&text)
        .ok()?
        .get("fast")?
        .get("seconds")?
        .as_f64()
}

/// A JSON number literal for `v` — `null` when non-finite, because a
/// diverged run's NaN loss or inf gradient norm must still produce a file
/// any strict JSON parser (e.g. Python's) accepts.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn mode_json(out: &mut String, label: &str, r: &ModeResult) {
    let _ = write!(
        out,
        "  \"{label}\": {{\n    \"seconds\": {},\n    \"forward_s\": {},\n    \
         \"backward_s\": {},\n    \"optim_s\": {},\n    \"epochs_run\": {},\n    \
         \"first_epoch_allocs\": {},\n    \"allocs_after_epoch1\": {},\n    \
         \"grad_norm_final\": {},\n    \"grad_norm_max\": {},\n    \
         \"clip_activations\": {},\n    \"anomalies_detected\": {},\n    \
         \"recoveries\": {},\n    \"checkpoint_bytes\": {}\n  }}",
        json_f64(r.seconds),
        json_f64(r.forward_s),
        json_f64(r.backward_s),
        json_f64(r.optim_s),
        r.epochs_run,
        r.first_epoch_allocs,
        r.allocs_after_epoch1,
        json_f64(r.grad_norm_final),
        json_f64(r.grad_norm_max),
        r.clip_activations,
        r.anomalies_detected,
        r.recoveries,
        r.checkpoint_bytes
    );
}

/// `--threads N` from argv; defaults to the machine's core count.
fn threads_arg() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            let raw = args.next().unwrap_or_default();
            return raw
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| panic!("--threads {raw}: expected a positive integer"));
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let threads = threads_arg();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prepared = prepare(DatasetId::Mammogram, Profile::Standard, 0);
    let clean = head(&prepared.clean, ROWS);
    let capped = grimp_bench::Prepared { clean, ..prepared };
    let instance = corrupt(&capped, RATE, 1);

    let baseline_fast_seconds = previous_fast_seconds();
    let mut fast = run_config(&instance.dirty, &probe_config());
    // The overhead budget compares against a baseline recorded by a
    // previous process, so transient machine load shows up as phantom
    // overhead. Best-of-REPS noise runs ±3% on a busy box; when the first
    // batch lands over budget, re-measure up to twice and keep the minimum
    // — a real regression stays over budget on every retry.
    if let Some(b) = baseline_fast_seconds {
        for _ in 0..2 {
            if fast.seconds - b < overhead_budget(b, fast.epochs_run) {
                break;
            }
            let retry = run_config(&instance.dirty, &probe_config());
            if retry.seconds < fast.seconds {
                fast = retry;
            }
        }
    }
    let (traced, trace_events) = run_traced(&instance.dirty);
    // Governed mode (deadline + budget + shutdown flag armed, never firing)
    // is compared against the fast run measured in this same process, with
    // the same noise-retry policy as the cross-process baseline check.
    let mut governed = run_config(&instance.dirty, &governed_config());
    for _ in 0..2 {
        if governed.seconds - fast.seconds < overhead_budget(fast.seconds, fast.epochs_run) {
            break;
        }
        let retry = run_config(&instance.dirty, &governed_config());
        if retry.seconds < governed.seconds {
            governed = retry;
        }
    }
    // Parallel kernel backend: timed on Mammogram-250 and on the larger
    // synthetic table, with bit-identity to serial asserted on both.
    let mut par_cfg = probe_config();
    par_cfg.backend = BackendKind::Parallel { threads };
    let parallel = run_config(&instance.dirty, &par_cfg);
    assert_backend_parity(
        &instance.dirty,
        "mammogram-250",
        probe_config(),
        par_cfg.clone(),
    );

    let mut large_dirty = large_synthetic(LARGE_ROWS);
    inject_mcar(&mut large_dirty, RATE, &mut StdRng::seed_from_u64(2));
    let large_config = |backend: BackendKind| {
        let mut cfg = probe_config();
        cfg.max_epochs = LARGE_EPOCHS;
        cfg.patience = LARGE_EPOCHS;
        cfg.backend = backend;
        cfg
    };
    let large_serial = run_config_n(&large_dirty, &large_config(BackendKind::Serial), LARGE_REPS);
    let large_parallel = run_config_n(
        &large_dirty,
        &large_config(BackendKind::Parallel { threads }),
        LARGE_REPS,
    );
    assert_backend_parity(
        &large_dirty,
        "large-synthetic",
        large_config(BackendKind::Serial),
        large_config(BackendKind::Parallel { threads }),
    );

    let parallel_speedup = large_serial.seconds / large_parallel.seconds;
    let null_sink_overhead = baseline_fast_seconds.map(|b| (fast.seconds - b) / b);
    let trace_overhead = (traced.seconds - fast.seconds) / fast.seconds;
    let governance_overhead = (governed.seconds - fast.seconds) / fast.seconds;

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"dataset\": \"mammogram\",\n  \"rows\": {ROWS},\n  \
         \"corruption_rate\": {RATE},\n  \"reps\": {REPS},\n  \
         \"config\": {{\"feature_dim\": 32, \"gnn_hidden\": 32, \"gnn_layers\": 2, \
         \"merge_hidden\": 64, \"embed_dim\": 32, \"max_epochs\": {EPOCHS}, \
         \"lr\": 0.02, \"seed\": 7}},\n"
    );
    mode_json(&mut json, "fast", &fast);
    json.push_str(",\n");
    mode_json(&mut json, "traced", &traced);
    json.push_str(",\n");
    mode_json(&mut json, "governed", &governed);
    json.push_str(",\n");
    mode_json(&mut json, "parallel", &parallel);
    json.push_str(",\n");
    mode_json(&mut json, "large_serial", &large_serial);
    json.push_str(",\n");
    mode_json(&mut json, "large_parallel", &large_parallel);
    let _ = write!(json, ",\n  \"cores\": {cores}");
    let _ = write!(json, ",\n  \"threads\": {threads}");
    let _ = write!(json, ",\n  \"large_rows\": {LARGE_ROWS}");
    let _ = write!(json, ",\n  \"large_epochs\": {LARGE_EPOCHS}");
    let _ = write!(
        json,
        ",\n  \"parallel_speedup\": {}",
        json_f64(parallel_speedup)
    );
    json.push_str(",\n  \"parallel_bit_identical\": true");
    let _ = write!(json, ",\n  \"trace_events\": {trace_events}");
    let _ = write!(json, ",\n  \"trace_overhead\": {trace_overhead:.4}");
    let _ = write!(
        json,
        ",\n  \"governance_overhead\": {governance_overhead:.4}"
    );
    match baseline_fast_seconds {
        Some(b) => {
            let _ = write!(json, ",\n  \"baseline_fast_seconds\": {b:.6}");
            let _ = write!(
                json,
                ",\n  \"null_sink_overhead\": {:.4}",
                null_sink_overhead.unwrap_or(0.0)
            );
        }
        None => {
            json.push_str(",\n  \"baseline_fast_seconds\": null");
            json.push_str(",\n  \"null_sink_overhead\": null");
        }
    }
    json.push_str("\n}\n");
    fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");

    println!(
        "fast   : {:.3}s (fwd {:.3} bwd {:.3} opt {:.3}), allocs after epoch 1: {}",
        fast.seconds, fast.forward_s, fast.backward_s, fast.optim_s, fast.allocs_after_epoch1
    );
    println!(
        "traced : {:.3}s with {} events recorded ({:+.1}% vs null sink)",
        traced.seconds,
        trace_events,
        100.0 * trace_overhead
    );
    if let (Some(b), Some(overhead)) = (baseline_fast_seconds, null_sink_overhead) {
        println!(
            "nullsink overhead vs recorded baseline {b:.3}s: {:+.2}%",
            100.0 * overhead
        );
        let budget = overhead_budget(b, fast.epochs_run);
        assert!(
            fast.seconds - b < budget,
            "NullSink instrumentation + per-column divergence guard overhead \
             {:.2}% exceeds the budget of {budget:.3}s (baseline {b:.3}s, \
             now {:.3}s)",
            100.0 * overhead,
            fast.seconds
        );
    }
    println!(
        "governed: {:.3}s with deadline + budget + shutdown flag armed ({:+.1}% vs fast)",
        governed.seconds,
        100.0 * governance_overhead
    );
    let governance_budget = overhead_budget(fast.seconds, fast.epochs_run);
    assert!(
        governed.seconds - fast.seconds < governance_budget,
        "resource-governance checks cost {:.2}% — over the {governance_budget:.3}s \
         budget (fast {:.3}s, governed {:.3}s)",
        100.0 * governance_overhead,
        fast.seconds,
        governed.seconds
    );
    println!(
        "guards : grad norm final {:.3} / max {:.3}, {} clips, {} anomalies, {} recoveries",
        fast.grad_norm_final,
        fast.grad_norm_max,
        fast.clip_activations,
        fast.anomalies_detected,
        fast.recoveries
    );
    println!(
        "parallel: {:.3}s on mammogram with {threads} thread(s) ({cores} core(s)), \
         bit-identical to serial",
        parallel.seconds
    );
    println!(
        "large  : serial {:.3}s vs parallel {:.3}s over {} rows x {} epochs \
         ({parallel_speedup:.2}x), bit-identical",
        large_serial.seconds, large_parallel.seconds, LARGE_ROWS, LARGE_EPOCHS
    );
    // The 0-allocs-after-epoch-1 invariant must survive the backend swap:
    // the thread pool and its reduction scratch are allocated once at pool
    // creation, never per epoch.
    for (label, r) in [
        ("fast", &fast),
        ("parallel", &parallel),
        ("large_serial", &large_serial),
        ("large_parallel", &large_parallel),
    ] {
        assert_eq!(
            r.allocs_after_epoch1, 0,
            "{label}: workspace allocations after epoch 1 must stay at zero"
        );
    }
    // The end-to-end speedup gate only means something with real cores to
    // spread over; on narrow boxes the parity asserts above still ran.
    if cores >= 4 && threads >= 2 {
        assert!(
            parallel_speedup > 1.0,
            "parallel backend must beat serial end-to-end on {cores} cores \
             (serial {:.3}s, parallel {:.3}s)",
            large_serial.seconds,
            large_parallel.seconds
        );
    } else {
        println!(
            "speedup gate skipped: {cores} core(s) available, {threads} thread(s) requested \
             (needs >= 4 cores and >= 2 threads)"
        );
    }
}
