//! Subcommand implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp::{
    BackendKind, CheckpointPolicy, ErrorCategory, GrimpConfig, GrimpConfigBuilder, GrimpError,
    Pipeline, ResourceLimits, SamplerConfig, TaskKind,
};
use grimp_baselines::{
    AimNetConfig, AimNetLike, DataWigConfig, DataWigLike, EmbdiMc, EmbdiMcConfig, Gain, GainConfig,
    KnnImputer, MeanMode, Mice, MiceConfig, Mida, MidaConfig, MissForest, MissForestConfig,
    TurlConfig, TurlSub,
};
use grimp_datasets::{generate, generate_large, DatasetId};
use grimp_graph::FeatureSource;
use grimp_metrics::{dataset_stats, evaluate};
use grimp_obs::{
    EventKind, EventSink, FanoutSink, IoFaultKind, IoFaultPlan, JsonlSink, MemorySink, NullSink,
    RealFs,
};
use grimp_table::csv::{read_csv, to_csv_bytes, write_csv};
use grimp_table::{inject_mcar, inject_mnar, CorruptionLog, Imputer, InjectedCell, Table, Value};

use crate::args::{ArgError, Args};

/// Any CLI failure: a single-line user-facing message plus its
/// [`ErrorCategory`], which fixes the process exit code (config = 2,
/// data = 3, io = 4, internal = 5).
#[derive(Debug)]
pub struct CliError {
    message: String,
    category: ErrorCategory,
    exit_override: Option<i32>,
}

impl CliError {
    /// A configuration/usage error (exit code 2).
    pub fn config(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            category: ErrorCategory::Config,
            exit_override: None,
        }
    }

    /// A malformed-input-data error (exit code 3).
    pub fn data(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            category: ErrorCategory::Data,
            exit_override: None,
        }
    }

    /// A filesystem/IO error (exit code 4).
    pub fn io(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            category: ErrorCategory::Io,
            exit_override: None,
        }
    }

    /// The supervisor's crash-loop breaker tripped (exit code
    /// [`crate::supervise::EXIT_CRASH_LOOP`]): the serving child kept dying
    /// faster than the restart budget allows, so respawning it again would
    /// only loop. Internal by category, but with a distinct exit code so
    /// orchestrators can tell "stop restarting me" from a one-off crash.
    pub fn crash_loop(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            category: ErrorCategory::Internal,
            exit_override: Some(crate::supervise::EXIT_CRASH_LOOP),
        }
    }

    /// The process exit code mandated by this error's category (or the
    /// explicit override carried by breaker-style errors).
    pub fn exit_code(&self) -> i32 {
        self.exit_override
            .unwrap_or_else(|| self.category.exit_code())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::config(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::io(e.to_string())
    }
}

impl From<GrimpError> for CliError {
    fn from(e: GrimpError) -> Self {
        CliError {
            message: e.to_string(),
            category: e.category(),
            exit_override: None,
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
grimp — relational data imputation with graph neural networks

USAGE:
    grimp <command> [args]

COMMANDS:
    impute   <dirty.csv>  [--algo NAME] [--seed N] [--paper] [-o out.csv]
             [--checkpoint-dir DIR] [--resume] [--trace-out FILE]
             [--metrics] [--deadline SECS] [--memory-budget-mb N]
             [--threads N] [--batch-rows N] [--fanout N]
             impute every missing cell; algorithms: grimp (default),
             grimp-e, grimp-linear, missforest, aimnet, turl, embdi-mc,
             datawig, mice, mida, gain, knn, meanmode
             --checkpoint-dir writes a training checkpoint there every
             epoch (grimp variants only); --resume continues from it
             after an interrupted run; the directory is locked while a
             run owns it (a second concurrent run exits 7)
             --trace-out streams the structured training/imputation
             event trace as JSON Lines to FILE (grimp variants only);
             --metrics prints a per-phase timing and loss summary
             --deadline stops training cleanly at the wall-clock budget
             and imputes from whatever epochs completed (exit code 6);
             --memory-budget-mb estimates the model footprint up front
             and downscales deterministically (value-node cap, then
             hidden dims, then sampled mini-batches) instead of OOM-ing
             --threads N runs the hot kernels on the parallel backend
             with N threads (grimp variants only); results are
             bit-identical to the default serial backend, so
             checkpoints and traces carry across backends
             --batch-rows N trains on neighbor-sampled mini-batches of
             N rows per task per epoch instead of the full table, and
             --fanout N caps sampled neighbors per node (default 8) —
             peak memory then scales with the batch, not the table
             (grimp variants only; defaults: full-batch training;
             --batch-rows alone implies the default fanout); sampling
             is deterministic per (seed, epoch); combining it with
             --resume is rejected
             when --memory-budget-mb cannot admit a table even at the
             smallest cap and hidden dims, the run degrades to sampled
             training automatically instead of rejecting the table
             a first Ctrl-C checkpoints, imputes from the current state,
             and exits 130; a second Ctrl-C aborts immediately
             GRIMP_FAULT_FS=kind[:times[:from_op]] injects deterministic
             faults (enospc|perm|torn|transient) into checkpoint-path IO
             for testing; the run degrades instead of failing
             --append-from rows.csv appends those rows to the input table
             instead of refitting it from scratch (see `grimp append`)
    append   <base.csv> --rows rows.csv --checkpoint-dir DIR
             [--algo grimp|grimp-e|grimp-linear] [--seed N] [--paper]
             [--finetune-epochs N] [--drift-band R] [-o out.csv]
             [--threads N] [--deadline SECS] [--memory-budget-mb N]
             [--trace-out FILE] [--metrics]
             append rows to an already-fitted table and impute the grown
             table: the rows are made durable in a write-ahead log
             (DIR/grimp.wal) before any model work, then the base
             checkpoint is warm-started for --finetune-epochs more
             epochs (default 8) on the delta only — or fully refitted
             when the rows introduce new categorical values or no usable
             checkpoint generation exists
             a crash, Ctrl-C, or --deadline at any point leaves the log
             pending; re-running the same append (or with no --rows
             change) replays it and converges bit-identically to the
             uninterrupted run, then rotates the log to
             DIR/grimp.wal.applied
             a pending log holding different rows than requested is a
             conflict (exit 3): re-run with the original rows or delete
             DIR/grimp.wal to abandon that delta
             after the fine-tune, a validation-loss regression beyond
             --drift-band (default 0.25, relative to the base model's
             best) prints a refit recommendation and records it in the
             trace (drift metric, refit_scheduled counter)
    corrupt  <clean.csv>  [--rate R] [--mechanism mcar|mnar] [--seed N]
             [-o out.csv] [--truth truth.csv]
             inject missing values; --truth records the blanked cells
    evaluate --clean c.csv --dirty d.csv --imputed i.csv
             categorical accuracy + normalized RMSE over the blanked cells
    stats    <table.csv>
             rows, columns, distinct values, missingness, S/K/F+/N+ metrics
    generate <AD|AU|CO|CR|FL|IM|MM|TA|TH|TT|XL> [--seed N] [-o out.csv]
             emit one of the paper's synthetic evaluation datasets;
             XL is the scaling synthetic — row count set by --rows
             (default 50000), vocabulary fixed regardless of size
    serve    <train.csv> --checkpoint-dir DIR [--addr HOST:PORT]
             [--algo grimp|grimp-e|grimp-linear] [--seed N] [--paper]
             [--threads N] [--workers N] [--queue N]
             [--request-deadline SECS] [--memory-budget-mb N]
             [--read-timeout-ms N] [--drain-deadline SECS]
             [--reload-poll-ms N] [--max-body-mb N] [--trace-out FILE]
             [--fault-socket SPEC] [--supervise] [--restart-limit N]
             [--restart-window SECS] [--backoff-base-ms N]
             serve the checkpointed model over HTTP: POST /impute takes
             a CSV body and returns the imputed CSV; POST /append takes
             CSV rows, fine-tunes the checkpoint, and swaps the served
             model to the grown table (rows with new categorical values
             are refused 409 — a refit cannot be recovered across a
             restart; use grimp append offline); GET /healthz reports liveness,
             GET /readyz reports readiness (generation, pending append
             log, failed-reload memoization; 503 while draining or an
             append holds the gate), GET /stats reports counters
             POST /append honours an Idempotency-Key header (1-255
             visible ASCII chars): the outcome is journaled durably in
             DIR/grimp.idem before the served table grows, so retrying
             the same key + body after a crash or timeout returns the
             recorded response (Idempotency-Replay: true) instead of
             appending twice; the same key with a different body is
             refused with 422
             a handler panic answers that request 500 and drops only
             that request's scratch; the workers share one immutable
             model, which stays in service — panics are counted in
             /stats and the drain summary (GRIMP_FAULT_PANIC=1 enables a
             POST /panic fault route for testing this isolation)
             the model is restored once from DIR (written by a fit with
             the same --algo/--seed/--paper/--threads) and shared by all
             --workers; when a trainer rotates a new checkpoint
             generation in, the watcher restores it once and swaps it in
             (a model_reloaded trace event records the swap) — in-flight
             requests finish on the old model, and a generation that
             fails to restore is reported by /readyz while the last good
             one keeps serving
             overload never wedges the server: a full queue sheds with
             503 + Retry-After, --request-deadline bounds each request's
             wall clock (504 past it), --memory-budget-mb refuses
             requests whose estimated footprint exceeds the budget (503,
             never OOM), and --read-timeout-ms bounds slow clients (408)
             the bound address is printed on startup (use --addr with
             port 0 to pick a free port); SIGTERM drains within
             --drain-deadline and exits 0, Ctrl-C drains and exits 130
             GRIMP_FAULT_SOCKET=kind[:times[:from_conn]] (or
             --fault-socket) injects deterministic socket faults
             (torn-request|disconnect|malformed|stalled) for testing
             --supervise runs the server as a supervised child process
             (crash-only serving): the child's stdout — including the
             listening-address announcement — is echoed through, and a
             crashed child is respawned with deterministic exponential
             backoff from --backoff-base-ms (default 100, capped at 5s);
             more than --restart-limit crashes (default 5) within
             --restart-window seconds (default 30) trip the crash-loop
             breaker (exit 8) instead of looping; a child that fails
             before announcing readiness propagates its exit code
             unretried; SIGTERM/SIGINT are forwarded to the child, which
             drains as usual — a second signal SIGKILLs it and exits 143
             GRIMP_CRASHPOINT=name[@armfile] aborts the process at a
             named state-mutating boundary (idem-journal | wal-publish |
             checkpoint-rotate | applied-rotate | generation-swap) for
             crash testing; with @armfile the abort fires only once —
             whoever consumes (deletes) the file crashes, so a respawned
             child runs clean
    chaos    [--seed N]
             run the adversarial-input chaos suite: fit + impute every
             hostile table (all-missing columns, single rows, NaN/inf,
             pathological strings, 10k-distinct domains) and verify the
             never-panic/always-impute contract — serially and on the
             parallel backend (--threads 2) — check that malformed
             CSVs are rejected with typed errors, train under every
             injected IO-fault kind and under an already-expired
             deadline and verify each run still fills every cell, cross
             incremental appends with every fs-fault kind, a kill
             mid-fine-tune, a torn append log, and the parallel backend,
             then drive a live `serve` instance through the socket-fault,
             overload, admission, and worker-panic scenarios and verify
             clean drains
             --crashpoints runs the crashpoint sweep instead: for every
             registered boundary, a supervised server is aborted exactly
             there mid-append and must recover — respawn, /readyz 200,
             idempotent replay to exactly one application, a decodable
             checkpoint, a rotated log, and a clean SIGTERM drain
    help     show this text

EXIT CODES:
    0    success (including a SIGTERM-drained serve)
    2    configuration/usage error
    3    malformed input data (including a pending append log that
         conflicts with the requested rows)
    4    filesystem/IO error
    5    internal error
    6    deadline hit (success — imputation written from the epochs
         completed; append: log kept pending, re-run to finish)
    7    checkpoint directory locked by another run
    8    crash-loop breaker tripped (serve --supervise: the child kept
         crashing faster than the restart budget; not respawning)
    130  interrupted by Ctrl-C (success — imputation written from the
         current state; serve: drained then exited; append: log kept
         pending, re-run to finish)
    143  aborted by a second SIGTERM before the drain finished
";

fn load(path: &str) -> Result<Table, CliError> {
    let file = File::open(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
    // The reader reports malformed CSV (duplicate headers, ragged rows,
    // empty input) as `InvalidData`; anything else is a real IO failure.
    read_csv(BufReader::new(file)).map_err(|e| {
        let msg = format!("{path}: {e}");
        if e.kind() == std::io::ErrorKind::InvalidData {
            CliError::data(msg)
        } else {
            CliError::io(msg)
        }
    })
}

fn save(table: &Table, path: Option<&str>, out: &mut dyn Write) -> Result<(), CliError> {
    match path {
        Some(path) => {
            // Atomic: the whole CSV is rendered in memory, written to a
            // sibling temp file, and renamed into place — a crash or full
            // disk mid-write never leaves a truncated output behind.
            grimp_obs::fs::atomic_write(
                &mut RealFs,
                std::path::Path::new(path),
                &to_csv_bytes(table),
            )
            .map_err(|e| CliError::io(format!("{path}: {e}")))?;
            writeln!(out, "wrote {path}")?;
        }
        None => write_csv(table, out)?,
    }
    Ok(())
}

fn build_baseline(name: &str, seed: u64) -> Result<Box<dyn Imputer>, CliError> {
    Ok(match name {
        "missforest" => Box::new(MissForest::new(MissForestConfig {
            seed,
            ..Default::default()
        })),
        "aimnet" => Box::new(AimNetLike::new(AimNetConfig {
            seed,
            ..Default::default()
        })),
        "turl" => Box::new(TurlSub::new(TurlConfig {
            seed,
            ..Default::default()
        })),
        "embdi-mc" => Box::new(EmbdiMc::new(EmbdiMcConfig {
            seed,
            ..Default::default()
        })),
        "datawig" => Box::new(DataWigLike::new(DataWigConfig {
            seed,
            ..Default::default()
        })),
        "mice" => Box::new(Mice::new(MiceConfig {
            seed,
            ..Default::default()
        })),
        "mida" => Box::new(Mida::new(MidaConfig {
            seed,
            ..Default::default()
        })),
        "gain" => Box::new(Gain::new(GainConfig {
            seed,
            ..Default::default()
        })),
        "knn" => Box::new(KnnImputer::new(5)),
        "meanmode" => Box::new(MeanMode),
        other => {
            return Err(CliError::config(format!(
                "unknown algorithm {other:?} (see `grimp help`)"
            )))
        }
    })
}

/// Build a validated [`Pipeline`] for one of the grimp variants from the
/// CLI options, via the typed config builder.
fn build_pipeline(name: &str, seed: u64, args: &Args) -> Result<Pipeline, CliError> {
    let base = if args.flag("paper") {
        GrimpConfig::paper()
    } else {
        GrimpConfig::fast()
    };
    // Start the grouped sub-configs from the preset's values so only the
    // flags the user actually passed are overridden.
    let mut ckpt = base.checkpointing();
    let mut limits = base.limits();
    let mut builder = GrimpConfigBuilder::from_config(base).seed(seed);
    builder = match name {
        "grimp" => builder,
        "grimp-e" => builder.features(FeatureSource::Embdi),
        "grimp-linear" => builder.task_kind(TaskKind::Linear),
        other => {
            return Err(CliError::config(format!(
                "unknown algorithm {other:?} (see `grimp help`)"
            )))
        }
    };
    if let Some(dir) = args.opt("checkpoint-dir") {
        ckpt.dir = Some(std::path::PathBuf::from(dir));
    }
    ckpt.resume = args.flag("resume");
    builder = builder.checkpointing(ckpt);
    if let Some(raw) = args.opt("deadline") {
        let secs: f64 = raw
            .parse()
            .map_err(|_| CliError::config(format!("--deadline {raw}: cannot parse value")))?;
        limits.deadline_secs = Some(secs);
    }
    if let Some(raw) = args.opt("memory-budget-mb") {
        let mb: usize = raw.parse().map_err(|_| {
            CliError::config(format!("--memory-budget-mb {raw}: cannot parse value"))
        })?;
        limits.memory_budget_mb = Some(mb);
    }
    builder = builder.limits(limits);
    if args.opt("batch-rows").is_some() || args.opt("fanout").is_some() {
        let mut sampler = SamplerConfig::default();
        if let Some(raw) = args.opt("batch-rows") {
            sampler.batch_rows = raw
                .parse()
                .map_err(|_| CliError::config(format!("--batch-rows {raw}: cannot parse value")))?;
        }
        if let Some(raw) = args.opt("fanout") {
            sampler.fanout = raw
                .parse()
                .map_err(|_| CliError::config(format!("--fanout {raw}: cannot parse value")))?;
        }
        builder = builder.sampler(sampler);
    }
    if let Some(raw) = args.opt("threads") {
        let threads: usize = raw
            .parse()
            .map_err(|_| CliError::config(format!("--threads {raw}: cannot parse value")))?;
        // `--threads 1` still selects the parallel backend (pool of one);
        // the builder rejects 0 with a typed ZeroThreads error.
        builder = builder.backend(BackendKind::Parallel { threads });
    }
    if args.opt("finetune-epochs").is_some() || args.opt("drift-band").is_some() {
        let mut ft = grimp::FinetuneConfig::default();
        if let Some(raw) = args.opt("finetune-epochs") {
            ft.epochs = raw.parse().map_err(|_| {
                CliError::config(format!("--finetune-epochs {raw}: cannot parse value"))
            })?;
        }
        if let Some(raw) = args.opt("drift-band") {
            ft.drift_band = raw
                .parse()
                .map_err(|_| CliError::config(format!("--drift-band {raw}: cannot parse value")))?;
        }
        builder = builder.finetune(ft);
    }
    // The process-wide SIGINT flag: a Ctrl-C stops training at the next
    // epoch boundary and the run imputes from its current state.
    builder = builder.shutdown(crate::signal::shutdown_flag());
    // Deterministic IO faults on the checkpoint path, for testing the
    // degradation behaviour of the real binary.
    if let Ok(spec) = std::env::var("GRIMP_FAULT_FS") {
        if !spec.is_empty() {
            let plan = IoFaultPlan::parse(&spec).ok_or_else(|| {
                CliError::config(format!(
                    "GRIMP_FAULT_FS={spec:?}: expected kind[:times[:from_op]] with kind one of \
                     enospc|perm|torn|transient"
                ))
            })?;
            builder = builder.io_fault(Some(plan));
        }
    }
    let config = builder
        .build()
        .map_err(|e| CliError::config(e.to_string()))?;
    Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))
}

/// Print the `--metrics` summary derived from the recorded event stream.
fn write_metrics(sink: &MemorySink, out: &mut dyn Write) -> Result<(), CliError> {
    use grimp_obs::names;
    writeln!(out, "trace: {} events", sink.len())?;
    let phases = [
        ("graph build", names::GRAPH_BUILD),
        ("feature init", names::FEATURE_INIT),
        ("model build", names::MODEL_BUILD),
        ("batch build", names::BATCH_BUILD),
        ("forward", names::FORWARD),
        ("backward", names::BACKWARD),
        ("optimizer", names::OPTIM),
        ("checkpointing", names::CHECKPOINT_SAVE),
        ("imputation", names::IMPUTE),
    ];
    for (label, name) in phases {
        let n = sink.count_of(EventKind::SpanExit, name);
        if n > 0 {
            writeln!(out, "  {label:<14} {:>9.4}s  x{n}", sink.span_seconds(name))?;
        }
    }
    let epochs = sink.count_of(EventKind::SpanExit, names::EPOCH);
    writeln!(out, "epochs: {epochs}")?;
    let train = sink.metric_values(names::TRAIN_LOSS);
    let val = sink.metric_values(names::VAL_LOSS);
    if let (Some(t), Some(v)) = (train.last(), val.last()) {
        writeln!(out, "  final train loss {t:.4}, val loss {v:.4}")?;
    }
    let imputed: f64 = sink
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == names::IMPUTED_CELLS)
        .map(|e| e.value)
        .sum();
    writeln!(out, "imputed cells: {imputed}")?;
    Ok(())
}

/// The grimp-variant impute path: Pipeline + event sinks. Returns the
/// imputed table and the process exit code for the run — 0 normally,
/// [`crate::signal::EXIT_DEADLINE`] when `--deadline` stopped training,
/// [`crate::signal::EXIT_INTERRUPTED`] when Ctrl-C did. Either way the
/// imputation is complete.
fn impute_grimp(
    name: &str,
    seed: u64,
    args: &Args,
    table: &Table,
    out: &mut dyn Write,
) -> Result<(Table, i32), CliError> {
    let pipeline = build_pipeline(name, seed, args)?;
    let mut memory = MemorySink::new();
    // An unopenable trace file degrades the sink, not the run: imputation
    // is the contract, observability is best-effort.
    let mut jsonl = match args.opt("trace-out") {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                writeln!(
                    out,
                    "warning: cannot open trace file {path}: {e}; continuing without a trace"
                )?;
                None
            }
        },
        None => None,
    };
    let mut null = NullSink;
    let want_metrics = args.flag("metrics");
    let want_trace = jsonl.is_some();
    let mut fan = FanoutSink::new();
    if want_metrics {
        fan.add(&mut memory);
    }
    if let Some(sink) = jsonl.as_mut() {
        fan.add(sink);
    }
    let sink: &mut dyn EventSink = if want_metrics || want_trace {
        &mut fan
    } else {
        &mut null
    };
    let fitted = pipeline.fit_traced(table, sink)?;
    let imputed = fitted.impute_traced(table, sink)?;
    drop(fan);
    if let Some(sink) = jsonl {
        let path = args.opt("trace-out").unwrap_or_default();
        let written = sink.events_written();
        match sink.into_inner() {
            Ok(_) => writeln!(out, "wrote {written} trace events to {path}")?,
            Err(e) => writeln!(
                out,
                "warning: trace file {path} is incomplete: {e}; imputation unaffected"
            )?,
        }
    }
    if want_metrics {
        write_metrics(&memory, out)?;
    }
    // Surface the run's governance decisions and non-fatal IO problems.
    let report = fitted.report();
    for d in &report.downscales {
        writeln!(out, "memory budget: downscaled {d}")?;
    }
    for msg in &report.io_errors {
        writeln!(out, "warning: {msg}")?;
    }
    if report.checkpoints_disabled {
        writeln!(
            out,
            "warning: checkpointing disabled after repeated write failures; \
             training continued without checkpoints"
        )?;
    }
    let code = if report.interrupted {
        let at = report.stopped_at_epoch.unwrap_or(0);
        writeln!(
            out,
            "interrupted at epoch {at}; imputing from current state"
        )?;
        crate::signal::EXIT_INTERRUPTED
    } else if report.deadline_hit {
        let at = report.stopped_at_epoch.unwrap_or(0);
        writeln!(
            out,
            "deadline hit at epoch {at}; imputing from current state"
        )?;
        crate::signal::EXIT_DEADLINE
    } else {
        0
    };
    Ok((imputed, code))
}

fn cmd_impute(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    args.check_known(&[
        "algo",
        "seed",
        "paper",
        "o",
        "checkpoint-dir",
        "resume",
        "trace-out",
        "metrics",
        "deadline",
        "memory-budget-mb",
        "threads",
        "batch-rows",
        "fanout",
        "append-from",
        "finetune-epochs",
        "drift-band",
    ])?;
    let input = args.require_positional(0, "input CSV path")?;
    let table = load(input)?;
    let algo_name = args.opt("algo").unwrap_or("grimp");
    let seed = args.opt_parse("seed", 0u64)?;
    let is_grimp = algo_name.starts_with("grimp");
    if !is_grimp {
        if args.flag("resume") && args.opt("checkpoint-dir").is_none() {
            return Err(CliError::config("--resume requires --checkpoint-dir DIR"));
        }
        for flag in [
            "checkpoint-dir",
            "trace-out",
            "deadline",
            "memory-budget-mb",
            "threads",
            "batch-rows",
            "fanout",
            "append-from",
            "finetune-epochs",
            "drift-band",
        ] {
            if args.opt(flag).is_some() {
                return Err(CliError::config(format!(
                    "--{flag} is only supported by the grimp variants, not {algo_name:?}"
                )));
            }
        }
        if args.flag("metrics") {
            return Err(CliError::config(format!(
                "--metrics is only supported by the grimp variants, not {algo_name:?}"
            )));
        }
    }
    let display_name = if is_grimp {
        build_pipeline(algo_name, seed, args)?.name().to_string()
    } else {
        build_baseline(algo_name, seed)?.name().to_string()
    };
    writeln!(
        out,
        "{}: {} rows x {} cols, {} missing cells — imputing with {}",
        input,
        table.n_rows(),
        table.n_columns(),
        table.n_missing(),
        display_name
    )?;
    let start = std::time::Instant::now();
    let (imputed, code) = if let Some(rows_path) = args.opt("append-from") {
        if args.opt("batch-rows").is_some() || args.opt("fanout").is_some() {
            return Err(CliError::config(
                "--append-from cannot be combined with sampled training \
                 (--batch-rows/--fanout)",
            ));
        }
        append_grimp(algo_name, seed, args, &table, rows_path, out)?
    } else if is_grimp {
        impute_grimp(algo_name, seed, args, &table, out)?
    } else {
        (build_baseline(algo_name, seed)?.impute(&table), 0)
    };
    writeln!(
        out,
        "done in {:.2}s; {} cells remain missing",
        start.elapsed().as_secs_f64(),
        imputed.n_missing()
    )?;
    save(&imputed, args.opt("o"), out)?;
    Ok(code)
}

/// The append path shared by `grimp append` and `grimp impute
/// --append-from`: log the delta rows to the WAL, fine-tune or refit, and
/// write the imputed concatenated table. Returns the process exit code —
/// 0 normally, 130/6 when Ctrl-C or `--deadline` stopped the fine-tune
/// early (the WAL then stays pending so a re-run resumes it).
fn append_grimp(
    name: &str,
    seed: u64,
    args: &Args,
    base: &Table,
    rows_path: &str,
    out: &mut dyn Write,
) -> Result<(Table, i32), CliError> {
    let rows_table = load(rows_path)?;
    let names_match = rows_table.n_columns() == base.n_columns()
        && (0..base.n_columns())
            .all(|j| rows_table.schema().column(j).name == base.schema().column(j).name);
    if !names_match {
        return Err(CliError::data(format!(
            "{rows_path}: columns do not match the base table's header"
        )));
    }
    let rows = grimp::table_to_wal_rows(&rows_table);
    let pipeline = build_pipeline(name, seed, args)?;

    let mut memory = MemorySink::new();
    let mut jsonl = match args.opt("trace-out") {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                writeln!(
                    out,
                    "warning: cannot open trace file {path}: {e}; continuing without a trace"
                )?;
                None
            }
        },
        None => None,
    };
    let mut null = NullSink;
    let want_metrics = args.flag("metrics");
    let want_trace = jsonl.is_some();
    let mut fan = FanoutSink::new();
    if want_metrics {
        fan.add(&mut memory);
    }
    if let Some(sink) = jsonl.as_mut() {
        fan.add(sink);
    }
    let sink: &mut dyn EventSink = if want_metrics || want_trace {
        &mut fan
    } else {
        &mut null
    };
    let outcome = pipeline.append_traced(base, &rows, sink)?;
    drop(fan);
    if let Some(sink) = jsonl {
        let path = args.opt("trace-out").unwrap_or_default();
        let written = sink.events_written();
        match sink.into_inner() {
            Ok(_) => writeln!(out, "wrote {written} trace events to {path}")?,
            Err(e) => writeln!(
                out,
                "warning: trace file {path} is incomplete: {e}; imputation unaffected"
            )?,
        }
    }
    if want_metrics {
        write_metrics(&memory, out)?;
    }

    let mut how = outcome.path.label().to_string();
    if outcome.replayed {
        how.push_str(", replayed a pending append log");
    }
    if outcome.torn_tail {
        how.push_str(", dropped a torn tail");
    }
    writeln!(
        out,
        "appended {} row(s) via {how}; table is now {} rows",
        outcome.appended_rows,
        outcome.table.n_rows()
    )?;
    let report = &outcome.report;
    if let Some(drift) = report.drift {
        writeln!(
            out,
            "drift check: validation regressed {:.1}% vs the base model{}",
            100.0 * drift,
            if report.refit_scheduled {
                " — beyond the band, schedule a full refit"
            } else {
                " (within the band)"
            }
        )?;
    }
    for d in &report.downscales {
        writeln!(out, "memory budget: downscaled {d}")?;
    }
    for msg in &report.io_errors {
        writeln!(out, "warning: {msg}")?;
    }
    let code = if report.interrupted {
        writeln!(
            out,
            "interrupted at epoch {}; append log kept pending — re-run to finish the fine-tune",
            report.stopped_at_epoch.unwrap_or(0)
        )?;
        crate::signal::EXIT_INTERRUPTED
    } else if report.deadline_hit {
        writeln!(
            out,
            "deadline hit at epoch {}; append log kept pending — re-run to finish the fine-tune",
            report.stopped_at_epoch.unwrap_or(0)
        )?;
        crate::signal::EXIT_DEADLINE
    } else {
        0
    };
    Ok((outcome.imputed, code))
}

fn cmd_append(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    args.check_known(&[
        "rows",
        "algo",
        "seed",
        "paper",
        "o",
        "checkpoint-dir",
        "trace-out",
        "metrics",
        "deadline",
        "memory-budget-mb",
        "threads",
        "finetune-epochs",
        "drift-band",
    ])?;
    let input = args.require_positional(0, "base CSV path")?;
    let base = load(input)?;
    let rows_path = args
        .opt("rows")
        .ok_or_else(|| CliError::config("append requires --rows FILE (the rows to add)"))?;
    let algo_name = args.opt("algo").unwrap_or("grimp");
    if !algo_name.starts_with("grimp") {
        return Err(CliError::config(format!(
            "append is only supported by the grimp variants, not {algo_name:?}"
        )));
    }
    let seed = args.opt_parse("seed", 0u64)?;
    writeln!(
        out,
        "{}: {} rows x {} cols — appending rows from {}",
        input,
        base.n_rows(),
        base.n_columns(),
        rows_path
    )?;
    let start = std::time::Instant::now();
    let (imputed, code) = append_grimp(algo_name, seed, args, &base, rows_path, out)?;
    writeln!(
        out,
        "done in {:.2}s; {} cells remain missing",
        start.elapsed().as_secs_f64(),
        imputed.n_missing()
    )?;
    save(&imputed, args.opt("o"), out)?;
    Ok(code)
}

fn cmd_corrupt(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.check_known(&["rate", "mechanism", "seed", "o", "truth"])?;
    let input = args.require_positional(0, "input CSV path")?;
    let mut table = load(input)?;
    let rate = args.opt_parse("rate", 0.2f64)?;
    let seed = args.opt_parse("seed", 0u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let log = match args.opt("mechanism").unwrap_or("mcar") {
        "mcar" => inject_mcar(&mut table, rate, &mut rng),
        "mnar" => inject_mnar(&mut table, rate, &mut rng),
        other => {
            return Err(CliError::config(format!(
                "unknown mechanism {other:?} (mcar|mnar)"
            )))
        }
    };
    writeln!(
        out,
        "blanked {} cells ({:.1}% of table)",
        log.len(),
        100.0 * table.missing_fraction()
    )?;
    if let Some(truth_path) = args.opt("truth") {
        let mut w = BufWriter::new(
            File::create(truth_path).map_err(|e| CliError::io(format!("{truth_path}: {e}")))?,
        );
        writeln!(w, "row,col,value")?;
        for cell in &log.cells {
            writeln!(w, "{},{},{}", cell.row, cell.col, truth_text(&table, cell))?;
        }
        writeln!(out, "wrote ground truth to {truth_path}")?;
    }
    save(&table, args.opt("o"), out)
}

fn truth_text(table: &Table, cell: &InjectedCell) -> String {
    match cell.truth {
        Value::Cat(code) => table.dictionary(cell.col)[code as usize].clone(),
        Value::Num(v) => format!("{v}"),
        Value::Null => unreachable!("log never stores null truths"),
    }
}

fn cmd_evaluate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.check_known(&["clean", "dirty", "imputed"])?;
    let clean = load(
        args.opt("clean")
            .ok_or_else(|| CliError::config("--clean required"))?,
    )?;
    let dirty = load(
        args.opt("dirty")
            .ok_or_else(|| CliError::config("--dirty required"))?,
    )?;
    let imputed = load(
        args.opt("imputed")
            .ok_or_else(|| CliError::config("--imputed required"))?,
    )?;
    if clean.n_rows() != dirty.n_rows() || clean.n_columns() != dirty.n_columns() {
        return Err(CliError::data(
            "clean and dirty tables have different shapes",
        ));
    }
    // reconstruct the corruption log: cells missing in dirty, present in clean
    let mut log = CorruptionLog::default();
    for (i, j) in dirty.missing_cells() {
        let truth = clean.get(i, j);
        if !truth.is_null() {
            log.cells.push(InjectedCell {
                row: i,
                col: j,
                truth,
            });
        }
    }
    let result = evaluate(&clean, &imputed, &log);
    writeln!(out, "test cells: {}", log.len())?;
    match result.accuracy() {
        Some(a) => writeln!(
            out,
            "categorical accuracy: {a:.4} ({}/{})",
            result.cat_correct, result.cat_total
        )?,
        None => writeln!(out, "categorical accuracy: n/a")?,
    }
    match result.rmse() {
        Some(r) => writeln!(out, "numerical RMSE (column-std normalized): {r:.4}")?,
        None => writeln!(out, "numerical RMSE: n/a")?,
    }
    if result.left_missing > 0 {
        writeln!(
            out,
            "warning: {} cells left missing by the imputer",
            result.left_missing
        )?;
    }
    Ok(())
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.check_known(&[])?;
    let input = args.require_positional(0, "input CSV path")?;
    let table = load(input)?;
    let s = dataset_stats(&table);
    writeln!(out, "rows:              {}", s.rows)?;
    writeln!(
        out,
        "columns:           {} ({} categorical, {} numerical)",
        s.cols, s.n_cat, s.n_num
    )?;
    writeln!(out, "distinct values:   {}", s.distinct)?;
    writeln!(
        out,
        "missing cells:     {} ({:.1}%)",
        table.n_missing(),
        100.0 * table.missing_fraction()
    )?;
    writeln!(out, "S_avg (skewness):  {:.2}", s.s_avg)?;
    writeln!(out, "K_avg (kurtosis):  {:.2}", s.k_avg)?;
    writeln!(out, "F+_avg:            {:.2}", s.f_plus_avg)?;
    writeln!(out, "N+_avg:            {:.2}", s.n_plus_avg)?;
    Ok(())
}

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.check_known(&["seed", "o", "rows"])?;
    let abbr = args.require_positional(0, "dataset abbreviation")?;
    let seed = args.opt_parse("seed", 0u64)?;
    let d = if abbr.eq_ignore_ascii_case("XL") {
        let rows = args.opt_parse("rows", 50_000usize)?;
        if rows == 0 {
            return Err(CliError::config("--rows must be at least 1".to_string()));
        }
        generate_large(rows, seed)
    } else {
        if args.opt("rows").is_some() {
            return Err(CliError::config(
                "--rows only applies to the XL scaling synthetic".to_string(),
            ));
        }
        let id = DatasetId::ALL
            .into_iter()
            .find(|id| id.abbr().eq_ignore_ascii_case(abbr))
            .ok_or_else(|| {
                CliError::config(format!(
                    "unknown dataset {abbr:?} (AD AU CO CR FL IM MM TA TH TT XL)"
                ))
            })?;
        generate(id, seed)
    };
    writeln!(
        out,
        "{}: {} rows, {} columns, {} FDs",
        d.name,
        d.table.n_rows(),
        d.table.n_columns(),
        d.fds.len()
    )?;
    save(&d.table, args.opt("o"), out)
}

/// Build the pipeline whose configuration must match the fit that wrote
/// the served checkpoint. Only options that determine the model's
/// *structure* (variant, seed, paper preset, backend) are honored here —
/// serve-level flags like `--memory-budget-mb` govern admission, and must
/// never change the shapes the checkpoint was written with.
fn build_serve_pipeline(args: &Args) -> Result<Pipeline, CliError> {
    let seed = args.opt_parse("seed", 0u64)?;
    let name = args.opt("algo").unwrap_or("grimp");
    let base = if args.flag("paper") {
        GrimpConfig::paper()
    } else {
        GrimpConfig::fast()
    };
    let mut builder = GrimpConfigBuilder::from_config(base).seed(seed);
    builder = match name {
        "grimp" => builder,
        "grimp-e" => builder.features(FeatureSource::Embdi),
        "grimp-linear" => builder.task_kind(TaskKind::Linear),
        other => {
            return Err(CliError::config(format!(
                "unknown algorithm {other:?} (serve supports the grimp variants)"
            )))
        }
    };
    if let Some(raw) = args.opt("threads") {
        let threads: usize = raw
            .parse()
            .map_err(|_| CliError::config(format!("--threads {raw}: cannot parse value")))?;
        builder = builder.backend(BackendKind::Parallel { threads });
    }
    let config = builder
        .build()
        .map_err(|e| CliError::config(e.to_string()))?;
    Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))
}

/// Parse the serving bounds from the CLI flags, rejecting degenerate
/// values (`0` deadlines, `0` budgets) with typed configuration errors.
fn build_serve_config(args: &Args) -> Result<grimp_serve::ServeConfig, CliError> {
    use std::time::Duration;
    let mut cfg = grimp_serve::ServeConfig {
        addr: args.opt("addr").unwrap_or("127.0.0.1:0").to_string(),
        seed: args.opt_parse("seed", 0u64)?,
        ..Default::default()
    };
    cfg.workers = args.opt_parse("workers", 2usize)?;
    if cfg.workers == 0 {
        return Err(CliError::config("--workers must be at least 1"));
    }
    cfg.queue_depth = args.opt_parse("queue", 32usize)?;
    if let Some(raw) = args.opt("request-deadline") {
        let secs: f64 = raw.parse().map_err(|_| {
            CliError::config(format!("--request-deadline {raw}: cannot parse value"))
        })?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(CliError::config(format!(
                "--request-deadline must be finite and positive, got {raw}"
            )));
        }
        cfg.request_deadline = Some(Duration::from_secs_f64(secs));
    }
    if let Some(raw) = args.opt("memory-budget-mb") {
        let mb: u64 = raw.parse().map_err(|_| {
            CliError::config(format!("--memory-budget-mb {raw}: cannot parse value"))
        })?;
        if mb == 0 {
            return Err(CliError::config("--memory-budget-mb must be at least 1"));
        }
        cfg.memory_budget_bytes = Some(mb * 1024 * 1024);
    }
    let read_timeout_ms = args.opt_parse("read-timeout-ms", 5000u64)?;
    if read_timeout_ms == 0 {
        return Err(CliError::config("--read-timeout-ms must be at least 1"));
    }
    cfg.read_timeout = Duration::from_millis(read_timeout_ms);
    if let Some(raw) = args.opt("drain-deadline") {
        let secs: f64 = raw
            .parse()
            .map_err(|_| CliError::config(format!("--drain-deadline {raw}: cannot parse value")))?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(CliError::config(format!(
                "--drain-deadline must be finite and positive, got {raw}"
            )));
        }
        cfg.drain_deadline = Duration::from_secs_f64(secs);
    }
    cfg.reload_poll = Duration::from_millis(args.opt_parse("reload-poll-ms", 200u64)?.max(1));
    let max_body_mb = args.opt_parse("max-body-mb", 8usize)?;
    if max_body_mb == 0 {
        return Err(CliError::config("--max-body-mb must be at least 1"));
    }
    cfg.max_body_bytes = max_body_mb * 1024 * 1024;
    let fault_spec = match args.opt("fault-socket") {
        Some(spec) => Some(spec.to_string()),
        None => std::env::var(grimp_serve::FAULT_SOCKET_ENV)
            .ok()
            .filter(|s| !s.is_empty()),
    };
    if let Some(spec) = fault_spec {
        cfg.fault = Some(grimp_serve::SocketFaultPlan::parse(&spec).ok_or_else(|| {
            CliError::config(format!(
                "socket fault {spec:?}: expected kind[:times[:from_conn]] with kind one of \
                 torn-request|disconnect|malformed|stalled"
            ))
        })?);
    }
    // Fault hook, not a flag: the panic route exists only so harnesses can
    // prove panic isolation against a real process.
    cfg.panic_route =
        std::env::var(grimp_serve::FAULT_PANIC_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
    Ok(cfg)
}

fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<i32, CliError> {
    // Sampling shapes *training*; serve restores an already-fitted
    // checkpoint, so these flags can only mean a misunderstanding — reject
    // them up front instead of silently ignoring them.
    for flag in ["batch-rows", "fanout"] {
        if args.opt(flag).is_some() {
            return Err(CliError::config(format!(
                "--{flag} is a training-time option; serve restores an already-fitted checkpoint \
                 (pass it to `grimp impute` instead)"
            )));
        }
    }
    args.check_known(&[
        "algo",
        "seed",
        "paper",
        "threads",
        "checkpoint-dir",
        "addr",
        "workers",
        "queue",
        "request-deadline",
        "memory-budget-mb",
        "read-timeout-ms",
        "drain-deadline",
        "reload-poll-ms",
        "max-body-mb",
        "trace-out",
        "fault-socket",
    ])?;
    let input = args.require_positional(0, "training CSV path")?;
    let train = load(input)?;
    let ckpt_dir = args.opt("checkpoint-dir").ok_or_else(|| {
        CliError::config("serve requires --checkpoint-dir DIR (where a fit wrote its checkpoint)")
    })?;
    let pipeline = build_serve_pipeline(args)?;
    let cfg = build_serve_config(args)?;
    let workers = cfg.workers;

    // An unopenable trace file degrades the sink, not the server.
    let sink: Box<dyn EventSink + Send> = match args.opt("trace-out") {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Box::new(sink),
            Err(e) => {
                writeln!(
                    out,
                    "warning: cannot open trace file {path}: {e}; continuing without a trace"
                )?;
                Box::new(NullSink)
            }
        },
        None => Box::new(NullSink),
    };

    // SIGTERM joins SIGINT on the graceful path: stop accepting, drain,
    // exit 0 (TERM) or 130 (INT).
    crate::signal::install_sigterm();
    let source = grimp_serve::ModelSource {
        pipeline,
        train,
        checkpoint_dir: std::path::PathBuf::from(ckpt_dir),
    };
    let server = grimp_serve::Server::bind(cfg, source, crate::signal::shutdown_flag(), sink)?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::io(format!("querying bound address: {e}")))?;
    writeln!(out, "grimp serve listening on {addr} (workers={workers})")?;
    out.flush()?;

    let report = server.run()?;
    writeln!(
        out,
        "drained {}; served {}, shed {}, over-budget {}, reloads {}, appends {}, panics {}",
        if report.clean {
            "clean"
        } else {
            "with stragglers (drain deadline expired)"
        },
        report.served,
        report.shed,
        report.over_budget,
        report.reloads,
        report.appends,
        report.panics,
    )?;
    let code = if crate::signal::last_signal() == crate::signal::SIGINT {
        crate::signal::EXIT_INTERRUPTED
    } else {
        0
    };
    Ok(code)
}

/// Run the adversarial-input chaos suite against the real pipeline.
fn cmd_chaos(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.check_known(&["seed", "crashpoints"])?;
    let seed = args.opt_parse("seed", 0u64)?;
    if args.flag("crashpoints") {
        // The sweep re-execs this binary as a supervised server, so it only
        // runs under the real `grimp` CLI (never in-process from a test
        // harness, whose current_exe is the test binary).
        let failures = chaos_crashpoints(out, seed)?;
        if failures > 0 {
            return Err(CliError::data(format!(
                "{failures} crashpoint(s) violated the recovery contract"
            )));
        }
        writeln!(out, "chaos: every crashpoint recovered")?;
        return Ok(());
    }
    let config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
        .seed(seed)
        .max_epochs(6)
        .patience(6)
        .build()
        .map_err(|e| CliError::config(e.to_string()))?;
    let pipeline = Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))?;
    let mut failures = 0usize;
    for s in grimp_table::adversarial::scenarios() {
        let verdict = match pipeline.fit(&s.table) {
            Ok(fitted) => {
                let left = fitted.impute(&s.table)?.n_missing();
                let tiers: Vec<&str> = fitted.column_tiers().iter().map(|t| t.label()).collect();
                if left == 0 {
                    format!("ok (tiers: {})", tiers.join("/"))
                } else {
                    failures += 1;
                    format!("FAILED: {left} cells left missing")
                }
            }
            Err(e) => {
                failures += 1;
                format!("FAILED: fit error: {e}")
            }
        };
        writeln!(out, "chaos {:<26} {} — {}", s.name, verdict, s.detail)?;
    }
    for (name, text) in grimp_table::adversarial::malformed_csvs() {
        match grimp_table::csv::read_csv_str(text) {
            Err(e) => writeln!(out, "chaos csv:{name:<22} rejected ({e})")?,
            Ok(_) => {
                failures += 1;
                writeln!(out, "chaos csv:{name:<22} FAILED: parsed without error")?;
            }
        }
    }

    // IO-fault matrix: train with every injected fault kind poisoning the
    // checkpoint path. The run must absorb the faults (retry or degrade to
    // checkpoint-less training) and still fill every cell.
    let small = grimp_table::csv::read_csv_str(
        "city,country\nParis,France\nRome,Italy\nParis,\nRome,\nParis,France\nMadrid,Spain\nMadrid,\nRome,Italy\n",
    )
    .map_err(|e| CliError::data(e.to_string()))?;
    let chaos_dir = std::env::temp_dir().join(format!("grimp-chaos-{}-{seed}", std::process::id()));
    for kind in IoFaultKind::all() {
        let dir = chaos_dir.join(kind.label());
        std::fs::create_dir_all(&dir)?;
        let plan = match kind {
            IoFaultKind::Transient => IoFaultPlan::transient(2),
            other => IoFaultPlan::persistent(other),
        };
        let config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
            .seed(seed)
            .max_epochs(3)
            .patience(3)
            .checkpointing(CheckpointPolicy {
                dir: Some(dir.clone()),
                ..Default::default()
            })
            .io_fault(Some(plan))
            .build()
            .map_err(|e| CliError::config(e.to_string()))?;
        let pipeline = Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))?;
        let verdict = match pipeline.fit(&small) {
            Ok(fitted) => {
                let left = fitted.impute(&small)?.n_missing();
                let warnings = fitted.report().io_errors.len();
                if left == 0 {
                    format!("ok ({warnings} io warning(s))")
                } else {
                    failures += 1;
                    format!("FAILED: {left} cells left missing")
                }
            }
            Err(e) => {
                failures += 1;
                format!("FAILED: fit error: {e}")
            }
        };
        writeln!(out, "chaos io:{:<24} {verdict}", kind.label())?;
    }
    std::fs::remove_dir_all(&chaos_dir).ok();

    // Deadline scenario: an already-expired wall-clock budget must stop
    // training before the first epoch and still fill every cell from the
    // degradation ladder.
    let config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
        .seed(seed)
        .limits(ResourceLimits {
            deadline_secs: Some(1e-9),
            memory_budget_mb: None,
        })
        .build()
        .map_err(|e| CliError::config(e.to_string()))?;
    let pipeline = Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))?;
    let verdict = match pipeline.fit(&small) {
        Ok(fitted) => {
            let left = fitted.impute(&small)?.n_missing();
            let hit = fitted.report().deadline_hit;
            if left == 0 && hit {
                "ok (deadline hit, all cells filled)".to_string()
            } else {
                failures += 1;
                format!("FAILED: {left} cells left, deadline_hit={hit}")
            }
        }
        Err(e) => {
            failures += 1;
            format!("FAILED: fit error: {e}")
        }
    };
    writeln!(out, "chaos {:<27} {verdict}", "deadline:expired")?;

    // Parallel-backend crossing: the adversarial scenarios again, but on
    // the fixed-partition thread pool. Chaos inputs must not depend on a
    // backend — the contract holds for every reduction strategy.
    let config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
        .seed(seed)
        .max_epochs(3)
        .patience(3)
        .backend(BackendKind::Parallel { threads: 2 })
        .build()
        .map_err(|e| CliError::config(e.to_string()))?;
    let pipeline = Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))?;
    for s in grimp_table::adversarial::scenarios() {
        let verdict = match pipeline.fit(&s.table) {
            Ok(fitted) => {
                let left = fitted.impute(&s.table)?.n_missing();
                if left == 0 {
                    "ok".to_string()
                } else {
                    failures += 1;
                    format!("FAILED: {left} cells left missing")
                }
            }
            Err(e) => {
                failures += 1;
                format!("FAILED: fit error: {e}")
            }
        };
        writeln!(out, "chaos par2:{:<21} {verdict}", s.name)?;
    }

    // Sampled-training crossing: the adversarial scenarios once more with
    // neighbor-sampled mini-batches. Degenerate tables (single rows,
    // all-missing columns, huge domains) must survive sampling too.
    let config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
        .seed(seed)
        .max_epochs(3)
        .patience(3)
        .sampler(SamplerConfig {
            batch_rows: 4,
            fanout: 2,
        })
        .build()
        .map_err(|e| CliError::config(e.to_string()))?;
    let pipeline = Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))?;
    for s in grimp_table::adversarial::scenarios() {
        let verdict = match pipeline.fit(&s.table) {
            Ok(fitted) => {
                let left = fitted.impute(&s.table)?.n_missing();
                if left == 0 {
                    "ok".to_string()
                } else {
                    failures += 1;
                    format!("FAILED: {left} cells left missing")
                }
            }
            Err(e) => {
                failures += 1;
                format!("FAILED: fit error: {e}")
            }
        };
        writeln!(out, "chaos smpl:{:<21} {verdict}", s.name)?;
    }

    failures += chaos_append(out, &small, seed)?;
    failures += chaos_serve(out, &small, seed)?;

    if failures > 0 {
        return Err(CliError::data(format!(
            "{failures} chaos scenario(s) violated the never-panic/always-impute contract"
        )));
    }
    writeln!(out, "chaos: all scenarios upheld the contract")?;
    Ok(())
}

/// Incremental-append chaos: interleave fit → append → crash/replay while
/// every injected fs-fault kind poisons the checkpoint directory, then
/// cross the interleaving onto the two-thread parallel backend. The
/// contract: an append either completes with every cell filled or fails
/// with a typed error — never a panic, never a half-applied table — and a
/// pending or torn log always replays to a full imputation.
fn chaos_append(out: &mut dyn Write, small: &Table, seed: u64) -> Result<usize, CliError> {
    use grimp::{FinetuneConfig, ShutdownFlag, WAL_APPLIED_FILE, WAL_FILE};
    use std::path::Path;

    let mut failures = 0usize;
    let root =
        std::env::temp_dir().join(format!("grimp-chaos-append-{}-{seed}", std::process::id()));

    // Two delta rows in the base schema, one hole each, no new dictionary
    // values — the fine-tune path.
    let delta = grimp_table::csv::read_csv_str("city,country\nParis,\n,Italy\n")
        .map_err(|e| CliError::data(e.to_string()))?;
    let rows = grimp::table_to_wal_rows(&delta);

    let build = |dir: &Path,
                 fault: Option<IoFaultPlan>,
                 backend: Option<BackendKind>,
                 shutdown: Option<ShutdownFlag>|
     -> Result<Pipeline, CliError> {
        let mut builder = GrimpConfigBuilder::from_config(GrimpConfig::fast())
            .seed(seed)
            .max_epochs(3)
            .patience(3)
            .checkpointing(CheckpointPolicy {
                dir: Some(dir.to_path_buf()),
                every: 1,
                ..Default::default()
            })
            .finetune(FinetuneConfig {
                epochs: 2,
                drift_band: 0.25,
            })
            .io_fault(fault);
        if let Some(backend) = backend {
            builder = builder.backend(backend);
        }
        if let Some(flag) = shutdown {
            builder = builder.shutdown(flag);
        }
        let config = builder
            .build()
            .map_err(|e| CliError::config(e.to_string()))?;
        Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))
    };

    // Fault matrix: fit clean, then append under the poisoned fs. The
    // append must absorb the fault (io warnings) or refuse with a typed
    // error that leaves the log replayable on a healthy fs.
    for kind in IoFaultKind::all() {
        let dir = root.join(format!("io-{}", kind.label()));
        std::fs::create_dir_all(&dir)?;
        build(&dir, None, None, None)?
            .fit(small)
            .map_err(|e| CliError::data(format!("chaos append base fit: {e}")))?;
        let plan = match kind {
            IoFaultKind::Transient => IoFaultPlan::transient(2),
            other => IoFaultPlan::persistent(other),
        };
        let verdict = match build(&dir, Some(plan), None, None)?.append(small, &rows) {
            Ok(outcome) if outcome.imputed.n_missing() == 0 => format!(
                "ok via {} ({} io warning(s))",
                outcome.path.label(),
                outcome.report.io_errors.len()
            ),
            Ok(outcome) => {
                failures += 1;
                format!("FAILED: {} cells left missing", outcome.imputed.n_missing())
            }
            Err(e) if e.category() == ErrorCategory::Internal => {
                failures += 1;
                format!("FAILED: internal error: {e}")
            }
            Err(e) => {
                // A typed refusal is within contract as long as replaying
                // the same append on a healthy fs converges.
                match build(&dir, None, None, None)?.append(small, &rows) {
                    Ok(outcome) if outcome.imputed.n_missing() == 0 => {
                        format!("ok (typed {:?} error, replay recovered)", e.category())
                    }
                    Ok(outcome) => {
                        failures += 1;
                        format!(
                            "FAILED: replay left {} cells missing",
                            outcome.imputed.n_missing()
                        )
                    }
                    Err(replay_err) => {
                        failures += 1;
                        format!("FAILED: replay error: {replay_err}")
                    }
                }
            }
        };
        writeln!(out, "chaos app:{:<23} {verdict}", kind.label())?;
    }

    // Kill mid-fine-tune: a pre-requested shutdown flag stops the append
    // at the first epoch boundary. The log must stay pending, and a rerun
    // of the identical append must finish, fill every cell, and rotate.
    {
        let dir = root.join("killed");
        std::fs::create_dir_all(&dir)?;
        build(&dir, None, None, None)?
            .fit(small)
            .map_err(|e| CliError::data(format!("chaos append base fit: {e}")))?;
        let flag = ShutdownFlag::new();
        flag.request();
        let verdict = match build(&dir, None, None, Some(flag))?.append(small, &rows) {
            Ok(first) if first.report.interrupted && dir.join(WAL_FILE).exists() => {
                match build(&dir, None, None, None)?.append(small, &rows) {
                    Ok(second)
                        if second.imputed.n_missing() == 0
                            && !dir.join(WAL_FILE).exists()
                            && dir.join(WAL_APPLIED_FILE).exists() =>
                    {
                        format!("ok (pending log resumed via {})", second.path.label())
                    }
                    Ok(second) => {
                        failures += 1;
                        format!(
                            "FAILED: rerun left {} cells missing or the log unrotated",
                            second.imputed.n_missing()
                        )
                    }
                    Err(e) => {
                        failures += 1;
                        format!("FAILED: rerun error: {e}")
                    }
                }
            }
            Ok(_) => {
                failures += 1;
                "FAILED: interrupted append rotated its log early".to_string()
            }
            Err(e) => {
                failures += 1;
                format!("FAILED: interrupted append error: {e}")
            }
        };
        writeln!(out, "chaos app:{:<23} {verdict}", "kill-mid-finetune")?;
    }

    // Torn log: complete an append, un-rotate the applied segment back to
    // pending, truncate its tail mid-record, and append again. The intact
    // prefix is a prefix of the request, so the log is rewritten whole and
    // the replay must still fill everything.
    {
        let dir = root.join("torn");
        std::fs::create_dir_all(&dir)?;
        build(&dir, None, None, None)?
            .fit(small)
            .map_err(|e| CliError::data(format!("chaos append base fit: {e}")))?;
        let pipeline = build(&dir, None, None, None)?;
        let verdict = match pipeline.append(small, &rows) {
            Ok(_) => {
                std::fs::rename(dir.join(WAL_APPLIED_FILE), dir.join(WAL_FILE))?;
                let whole = std::fs::read(dir.join(WAL_FILE))?;
                std::fs::write(dir.join(WAL_FILE), &whole[..whole.len() - 5])?;
                match pipeline.append(small, &rows) {
                    Ok(outcome) if outcome.imputed.n_missing() == 0 && outcome.torn_tail => {
                        "ok (torn tail dropped, replay converged)".to_string()
                    }
                    Ok(outcome) => {
                        failures += 1;
                        format!(
                            "FAILED: {} cells missing, torn_tail={}",
                            outcome.imputed.n_missing(),
                            outcome.torn_tail
                        )
                    }
                    Err(e) => {
                        failures += 1;
                        format!("FAILED: torn replay error: {e}")
                    }
                }
            }
            Err(e) => {
                failures += 1;
                format!("FAILED: initial append error: {e}")
            }
        };
        writeln!(out, "chaos app:{:<23} {verdict}", "torn-log-replay")?;
    }

    // Parallel-backend interleaving: fit on two threads, append, impute
    // the grown table mid-stream, then append a second delta that grows
    // the dictionary and must take the refit path.
    {
        let dir = root.join("par2");
        std::fs::create_dir_all(&dir)?;
        let backend = BackendKind::Parallel { threads: 2 };
        build(&dir, None, Some(backend), None)?
            .fit(small)
            .map_err(|e| CliError::data(format!("chaos append base fit: {e}")))?;
        let pipeline = build(&dir, None, Some(backend), None)?;
        let verdict = (|| -> Result<String, String> {
            let first = pipeline.append(small, &rows).map_err(|e| e.to_string())?;
            let model = first.model;
            let mid = model.impute(&first.table).map_err(|e| e.to_string())?;
            if mid.n_missing() != 0 {
                return Err(format!("{} cells missing mid-stream", mid.n_missing()));
            }
            let growth = grimp_table::csv::read_csv_str("city,country\nBerlin,\n")
                .map_err(|e| e.to_string())?;
            let second = pipeline
                .append(&first.table, &grimp::table_to_wal_rows(&growth))
                .map_err(|e| e.to_string())?;
            if second.imputed.n_missing() != 0 {
                return Err(format!(
                    "{} cells missing after refit",
                    second.imputed.n_missing()
                ));
            }
            if second.path.label() != "refit" {
                return Err(format!(
                    "dictionary growth took {} instead of refit",
                    second.path.label()
                ));
            }
            Ok(format!(
                "ok ({} then {})",
                first.path.label(),
                second.path.label()
            ))
        })();
        let verdict = match verdict {
            Ok(line) => line,
            Err(why) => {
                failures += 1;
                format!("FAILED: {why}")
            }
        };
        writeln!(out, "chaos app:{:<23} {verdict}", "par2-interleaved")?;
    }

    std::fs::remove_dir_all(&root).ok();
    Ok(failures)
}

/// Live-server chaos: fit a model, then bind a real [`grimp_serve::Server`]
/// per scenario and prove the injected socket faults, over-budget
/// requests, and full-queue sheds each get their contracted status while
/// the server survives to answer a healthy follow-up and drain clean.
/// Returns the number of violated scenarios.
fn chaos_serve(out: &mut dyn Write, small: &Table, seed: u64) -> Result<usize, CliError> {
    use grimp_serve::{client, ServeConfig, SocketFaultKind, SocketFaultPlan};
    use std::time::Duration;

    let serve_dir =
        std::env::temp_dir().join(format!("grimp-chaos-serve-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&serve_dir)?;
    let fit_config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
        .seed(seed)
        .max_epochs(3)
        .patience(3)
        .checkpointing(CheckpointPolicy {
            dir: Some(serve_dir.clone()),
            ..Default::default()
        })
        .build()
        .map_err(|e| CliError::config(e.to_string()))?;
    Pipeline::new(fit_config)
        .map_err(|e| CliError::config(e.to_string()))?
        .fit(small)?;

    // The serving pipeline carries the same structure but no checkpoint
    // directory of its own — the server restores from the rotated file.
    let serving = || -> Result<Pipeline, CliError> {
        let config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
            .seed(seed)
            .build()
            .map_err(|e| CliError::config(e.to_string()))?;
        Pipeline::new(config).map_err(|e| CliError::config(e.to_string()))
    };
    // Large enough that the head arrives in the first socket read but the
    // body needs more — which is exactly when the read faults fire.
    let big_csv = {
        let mut csv = String::from("city,country\n");
        while csv.len() <= 8 * 1024 {
            csv.push_str("Paris,France\nRome,\n");
        }
        csv
    };
    let base_cfg = ServeConfig {
        workers: 1,
        queue_depth: 4,
        read_timeout: Duration::from_millis(200),
        reload_poll: Duration::from_millis(50),
        drain_deadline: Duration::from_secs(5),
        ..Default::default()
    };
    let mut failures = 0usize;

    // One live server per fault kind: connection 0 is sabotaged, then the
    // same server must answer a clean health check and drain.
    for kind in SocketFaultKind::all() {
        let cfg = ServeConfig {
            fault: Some(SocketFaultPlan {
                kind,
                from_conn: 0,
                times: 1,
            }),
            ..base_cfg.clone()
        };
        let verdict = run_serve_scenario(cfg, small, &serve_dir, serving()?, |addr| {
            let faulted = client::impute(addr, &big_csv);
            let survived = match kind {
                // The server drops a torn connection without a response.
                SocketFaultKind::TornRequest => faulted.is_err(),
                // A stalled body hits the read timeout: 408.
                SocketFaultKind::StalledBody => matches!(&faulted, Ok(r) if r.status == 408),
                // Corrupted bytes fail to parse: 400.
                SocketFaultKind::MalformedPayload => matches!(&faulted, Ok(r) if r.status == 400),
                // The client reset mid-response; whatever it read back (or
                // failed to) is its own problem — only survival matters.
                SocketFaultKind::DisconnectMidResponse => true,
            };
            if !survived {
                return Err(format!("unexpected outcome {faulted:?}"));
            }
            match client::request(addr, "GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => Ok(()),
                other => Err(format!("health check after fault: {other:?}")),
            }
        });
        if verdict_line(out, &format!("serve:{}", kind.label()), verdict)? {
            failures += 1;
        }
    }

    // Memory admission: a 1-byte budget refuses everything with 503 and a
    // Retry-After hint, and never kills the server.
    let cfg = ServeConfig {
        memory_budget_bytes: Some(1),
        ..base_cfg.clone()
    };
    let verdict = run_serve_scenario(
        cfg,
        small,
        &serve_dir,
        serving()?,
        |addr| match client::impute(addr, "city,country\nParis,\n") {
            Ok(r) if r.status == 503 && r.header("Retry-After").is_some() => Ok(()),
            other => Err(format!("expected 503 + Retry-After, got {other:?}")),
        },
    );
    if verdict_line(out, "serve:over-budget", verdict)? {
        failures += 1;
    }

    // Panic isolation: an injected handler panic answers that request 500,
    // drops only that request's scratch, and leaves the server healthy —
    // the very next request imputes from the same shared model.
    let cfg = ServeConfig {
        panic_route: true,
        ..base_cfg.clone()
    };
    let verdict = run_serve_scenario(cfg, small, &serve_dir, serving()?, |addr| {
        match client::request(addr, "POST", "/panic", b"") {
            Ok(r) if r.status == 500 => {}
            other => return Err(format!("expected 500 from injected panic, got {other:?}")),
        }
        match client::impute(addr, "city,country\nParis,\n") {
            Ok(r) if r.status == 200 => {}
            other => return Err(format!("impute after panic: {other:?}")),
        }
        match client::request(addr, "GET", "/stats", b"") {
            Ok(r) if r.status == 200 => {
                let body = String::from_utf8_lossy(&r.body).to_string();
                if body.contains("\"panics\":0") {
                    return Err(format!("stats did not count the panic: {body}"));
                }
                Ok(())
            }
            other => Err(format!("stats after panic: {other:?}")),
        }
    });
    if verdict_line(out, "serve:worker-panic", verdict)? {
        failures += 1;
    }

    // Load shedding: a zero-depth queue sheds every request with 503
    // instead of queueing unboundedly.
    let cfg = ServeConfig {
        queue_depth: 0,
        ..base_cfg
    };
    let verdict = run_serve_scenario(
        cfg,
        small,
        &serve_dir,
        serving()?,
        |addr| match client::impute(addr, "city,country\nParis,\n") {
            Ok(r) if r.status == 503 => Ok(()),
            other => Err(format!("expected 503 shed, got {other:?}")),
        },
    );
    if verdict_line(out, "serve:shed", verdict)? {
        failures += 1;
    }

    std::fs::remove_dir_all(&serve_dir).ok();
    Ok(failures)
}

/// Crashpoint sweep: for every registered state-mutating boundary
/// ([`grimp_obs::crashpoint::ALL`]), arm a one-shot abort at that boundary
/// inside a *supervised* child server, drive a keyed `/append` into the
/// crash, and prove recovery end to end: the supervisor respawns the
/// server, `/readyz` returns 200, replaying the same `Idempotency-Key`
/// converges to exactly one application of the rows (no doubling, no
/// loss), the checkpoint on disk decodes, the append log is rotated, and
/// a SIGTERM still drains the whole tree onto exit 0. Runs the real
/// binary over real sockets with a real `abort(2)` at the boundary.
fn chaos_crashpoints(out: &mut dyn Write, seed: u64) -> Result<usize, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::io(format!("resolving the grimp binary: {e}")))?;
    let mut failures = 0usize;
    for point in grimp_obs::crashpoint::ALL {
        let verdict = run_crashpoint_scenario(&exe, point, seed);
        if verdict_line(out, &format!("cp:{point}"), verdict)? {
            failures += 1;
        }
    }
    Ok(failures)
}

/// One armed crash + recovery proof; see [`chaos_crashpoints`].
fn run_crashpoint_scenario(exe: &std::path::Path, point: &str, seed: u64) -> Result<(), String> {
    use grimp::checkpoint::{TrainCheckpoint, CHECKPOINT_FILE};
    use grimp::{WAL_APPLIED_FILE, WAL_FILE};
    use grimp_serve::client;
    use std::io::BufRead;
    use std::time::{Duration, Instant};

    let csv = "city,country\nParis,France\nRome,Italy\nParis,\nRome,\nParis,France\nMadrid,Spain\nMadrid,\nRome,Italy\n";
    // The delta reuses dictionary values the base table already has, so
    // the fine-tuned checkpoint a killed append leaves behind still
    // restores against the base table when the server respawns.
    let delta = "city,country\nParis,\n,Italy\n";
    let want_rows = 8 + 2;

    let root = std::env::temp_dir().join(format!("grimp-chaos-cp-{}-{point}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
    let train_csv = root.join("train.csv");
    std::fs::write(&train_csv, csv).map_err(|e| e.to_string())?;
    let ckpt_dir = root.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| e.to_string())?;
    let table = grimp_table::csv::read_csv_str(csv).map_err(|e| e.to_string())?;
    let config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
        .seed(seed)
        .max_epochs(3)
        .patience(3)
        .checkpointing(CheckpointPolicy {
            dir: Some(ckpt_dir.clone()),
            ..Default::default()
        })
        .build()
        .map_err(|e| e.to_string())?;
    Pipeline::new(config)
        .map_err(|e| e.to_string())?
        .fit(&table)
        .map_err(|e| format!("base fit: {e}"))?;

    // The arm file makes the abort one-shot: the armed process consumes it
    // at the boundary, so the respawned child (same env) runs clean.
    let arm = root.join("arm");
    std::fs::write(&arm, b"armed").map_err(|e| e.to_string())?;

    let mut child = std::process::Command::new(exe)
        .arg("serve")
        .arg(&train_csv)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .args(["--reload-poll-ms", "50", "--seed", &seed.to_string()])
        .args([
            "--supervise",
            "--restart-limit",
            "3",
            "--backoff-base-ms",
            "50",
        ])
        .env(
            grimp_obs::crashpoint::CRASHPOINT_ENV,
            format!("{point}@{}", arm.display()),
        )
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning supervised serve: {e}"))?;

    // One reader thread surfaces every `grimp serve listening on …`
    // announcement (initial and respawn) and keeps the full log for
    // failure diagnostics.
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        let mut log = String::new();
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            if let Some(rest) = line.strip_prefix("grimp serve listening on ") {
                if let Some(addr) = rest.split_whitespace().next() {
                    let _ = tx.send(addr.to_string());
                }
            }
            log.push_str(&line);
            line.clear();
        }
        log
    });

    let verdict = (|| -> Result<(), String> {
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "no readiness announcement".to_string())?;
        // Drive the keyed append into the armed abort. The connection dies
        // without a response — the client error is expected; the recovery
        // assertions below are the contract.
        let key = format!("cp-{point}");
        let _ = client::request_with_headers(
            &addr,
            "POST",
            "/append",
            &[("Idempotency-Key", &key)],
            delta.as_bytes(),
        );
        let addr2 = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "no respawn announcement after the crash".to_string())?;
        if arm.exists() {
            return Err("crashpoint never fired (arm file not consumed)".into());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client::request(&addr2, "GET", "/readyz", b"") {
                Ok(r) if r.status == 200 => break,
                _ if Instant::now() >= deadline => {
                    return Err("respawned server never reported /readyz 200".into())
                }
                _ => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        // The idempotent replay: same key, same body. Exactly-once either
        // via the journal's recorded response or via WAL reconciliation.
        let replay = client::request_with_headers(
            &addr2,
            "POST",
            "/append",
            &[("Idempotency-Key", &key)],
            delta.as_bytes(),
        )
        .map_err(|e| format!("replayed append: {e}"))?;
        if replay.status != 200 {
            return Err(format!(
                "replayed append: status {} body {:?}",
                replay.status,
                String::from_utf8_lossy(&replay.body)
            ));
        }
        let grown = grimp_table::csv::read_csv_str(
            std::str::from_utf8(&replay.body).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("replay body: {e}"))?;
        if grown.n_rows() != want_rows {
            return Err(format!(
                "rows doubled or lost: {} != {want_rows}",
                grown.n_rows()
            ));
        }
        if grown.n_missing() != 0 {
            return Err(format!(
                "{} cells left missing after recovery",
                grown.n_missing()
            ));
        }
        // On-disk invariants: a decodable checkpoint, no pending log.
        TrainCheckpoint::load(&ckpt_dir.join(CHECKPOINT_FILE))
            .map_err(|e| format!("checkpoint does not decode after recovery: {e}"))?;
        if ckpt_dir.join(WAL_FILE).exists() {
            return Err("append log still pending after a completed replay".into());
        }
        if !ckpt_dir.join(WAL_APPLIED_FILE).exists() {
            return Err("applied append log missing after recovery".into());
        }
        Ok(())
    })();

    // Drain the whole tree: the supervisor forwards the TERM to its child,
    // waits out the drain, and exits 0.
    crate::signal::send_signal(child.id() as i32, crate::signal::SIGTERM);
    let status = child.wait().map_err(|e| e.to_string())?;
    let log = reader.join().unwrap_or_default();
    let _ = std::fs::remove_dir_all(&root);
    verdict.map_err(|why| format!("{why}\n--- supervisor log ---\n{log}"))?;
    if status.code() != Some(0) {
        return Err(format!(
            "supervisor exited {:?} after SIGTERM, wanted 0\n--- supervisor log ---\n{log}",
            status.code()
        ));
    }
    Ok(())
}

/// Bind a server on a free port, run `drive` against it, then drain.
/// `Err` from `drive`, a panicked server thread, or a dirty drain all
/// come back as a failure message.
fn run_serve_scenario(
    cfg: grimp_serve::ServeConfig,
    train: &Table,
    checkpoint_dir: &std::path::Path,
    pipeline: Pipeline,
    drive: impl FnOnce(&str) -> Result<(), String>,
) -> Result<(), String> {
    use grimp_serve::{ModelSource, Server};

    let source = ModelSource {
        pipeline,
        train: train.clone(),
        checkpoint_dir: checkpoint_dir.to_path_buf(),
    };
    let flag = grimp::ShutdownFlag::new();
    let server = Server::bind(cfg, source, flag.clone(), Box::new(NullSink))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let handle = std::thread::spawn(move || server.run());
    let driven = drive(&addr);
    flag.request();
    let report = match handle.join() {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(format!("server run: {e}")),
        Err(_) => return Err("server thread panicked".to_string()),
    };
    driven?;
    if !report.clean {
        return Err("drain deadline expired with stragglers".to_string());
    }
    Ok(())
}

/// Print one `chaos <label> …` verdict; returns whether it failed.
fn verdict_line(
    out: &mut dyn Write,
    label: &str,
    verdict: Result<(), String>,
) -> Result<bool, CliError> {
    match verdict {
        Ok(()) => {
            writeln!(out, "chaos {label:<26} ok")?;
            Ok(false)
        }
        Err(why) => {
            writeln!(out, "chaos {label:<26} FAILED: {why}")?;
            Ok(true)
        }
    }
}

/// Dispatch one CLI invocation; returns the process exit code.
///
/// Success prints to `out` and returns 0 — or 6 when `--deadline` stopped
/// training early, or 130 when Ctrl-C did (both with a complete
/// imputation). Any failure prints a single `error: …` line to `err` and
/// returns the exit code of its [`ErrorCategory`]: 2 config, 3 data, 4 io,
/// 5 internal, 7 checkpoint directory locked — or 8 when the supervisor's
/// crash-loop breaker trips.
pub fn run(argv: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let Some(command) = argv.first().map(String::as_str) else {
        let _ = write!(out, "{USAGE}");
        return ErrorCategory::Config.exit_code();
    };
    let rest = &argv[1..];
    let parse = |flags: &[&str]| Args::parse(rest, flags);
    let result: Result<i32, CliError> = (|| match command {
        "impute" => cmd_impute(&parse(&["paper", "resume", "metrics"])?, out),
        "append" => cmd_append(&parse(&["paper", "metrics"])?, out),
        "corrupt" => cmd_corrupt(&parse(&[])?, out).map(|()| 0),
        "evaluate" => cmd_evaluate(&parse(&[])?, out).map(|()| 0),
        "stats" => cmd_stats(&parse(&[])?, out).map(|()| 0),
        "generate" => cmd_generate(&parse(&[])?, out).map(|()| 0),
        "chaos" => cmd_chaos(&parse(&["crashpoints"])?, out).map(|()| 0),
        "serve" if rest.iter().any(|a| a == "--supervise") => {
            crate::supervise::cmd_supervise(rest, out)
        }
        "serve" => cmd_serve(&parse(&["paper"])?, out),
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}")?;
            Ok(0)
        }
        other => Err(CliError::config(format!(
            "unknown command {other:?} (see `grimp help`)"
        ))),
    })();
    match result {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            e.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> (i32, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(&argv, &mut out, &mut err);
        out.extend_from_slice(&err);
        (code, String::from_utf8(out).unwrap())
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("grimp-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_str(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn no_args_prints_usage_with_error_code() {
        let (code, out) = run_str(&[]);
        assert_eq!(code, 2);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        let (code, out) = run_str(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn generate_corrupt_impute_evaluate_pipeline() {
        let dir = tmpdir();
        let clean = dir.join("clean.csv");
        let dirty = dir.join("dirty.csv");
        let imputed = dir.join("imputed.csv");

        let (code, out) = run_str(&[
            "generate",
            "MM",
            "--seed",
            "1",
            "-o",
            clean.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Mammogram"));

        let (code, out) = run_str(&[
            "corrupt",
            clean.to_str().unwrap(),
            "--rate",
            "0.1",
            "-o",
            dirty.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("blanked"));

        let (code, out) = run_str(&[
            "impute",
            dirty.to_str().unwrap(),
            "--algo",
            "knn",
            "-o",
            imputed.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("KNN"));

        let (code, out) = run_str(&[
            "evaluate",
            "--clean",
            clean.to_str().unwrap(),
            "--dirty",
            dirty.to_str().unwrap(),
            "--imputed",
            imputed.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("categorical accuracy"), "{out}");
    }

    #[test]
    fn stats_reports_table_shape() {
        let dir = tmpdir();
        let clean = dir.join("stats.csv");
        run_str(&["generate", "TT", "-o", clean.to_str().unwrap()]);
        let (code, out) = run_str(&["stats", clean.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.contains("rows:              958"), "{out}");
        assert!(out.contains("distinct values:   5"), "{out}");
    }

    #[test]
    fn generate_xl_scales_rows_and_gates_the_rows_flag() {
        let dir = tmpdir();
        let clean = dir.join("xl.csv");
        let (code, out) = run_str(&[
            "generate",
            "XL",
            "--rows",
            "500",
            "-o",
            clean.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("500 rows, 5 columns"), "{out}");
        let written = std::fs::read_to_string(&clean).unwrap();
        assert_eq!(written.lines().count(), 501, "header + 500 rows");
        let (code, out) = run_str(&["generate", "TT", "--rows", "500"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("only applies to the XL"), "{out}");
        let (code, out) = run_str(&["generate", "XL", "--rows", "0"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--rows must be at least 1"), "{out}");
    }

    #[test]
    fn unknown_algorithm_is_rejected() {
        let dir = tmpdir();
        let clean = dir.join("algo.csv");
        run_str(&["generate", "MM", "-o", clean.to_str().unwrap()]);
        let (code, out) = run_str(&["impute", clean.to_str().unwrap(), "--algo", "nope"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown algorithm"));
    }

    #[test]
    fn mnar_mechanism_is_available() {
        let dir = tmpdir();
        let clean = dir.join("mnar-clean.csv");
        let dirty = dir.join("mnar-dirty.csv");
        run_str(&["generate", "TT", "-o", clean.to_str().unwrap()]);
        let (code, out) = run_str(&[
            "corrupt",
            clean.to_str().unwrap(),
            "--mechanism",
            "mnar",
            "--rate",
            "0.2",
            "-o",
            dirty.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn chaos_suite_passes_end_to_end() {
        let (code, out) = run_str(&["chaos", "--seed", "1"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("all scenarios upheld the contract"), "{out}");
        assert!(!out.contains("FAILED"), "{out}");
    }

    #[test]
    fn missing_files_produce_clean_errors() {
        let (code, out) = run_str(&["stats", "/nonexistent/nope.csv"]);
        assert_eq!(code, 4);
        assert!(out.contains("error:"));
    }

    #[test]
    fn impute_writes_a_checkpoint_and_resumes_from_it() {
        let dir = tmpdir();
        let dirty = dir.join("ckpt-dirty.csv");
        let ckpt_dir = dir.join("ckpt");
        std::fs::write(
            &dirty,
            "city,country\nParis,France\nRome,Italy\nParis,\nRome,\nParis,France\nRome,Italy\n",
        )
        .unwrap();

        let (code, out) = run_str(&[
            "impute",
            dirty.to_str().unwrap(),
            "--algo",
            "grimp",
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let ckpt_file = ckpt_dir.join(grimp::CHECKPOINT_FILE);
        assert!(ckpt_file.exists(), "no checkpoint at {ckpt_file:?}");

        // a second run may resume from the finished checkpoint and must
        // still impute every cell
        let (code, out) = run_str(&[
            "impute",
            dirty.to_str().unwrap(),
            "--algo",
            "grimp",
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--resume",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 cells remain missing"), "{out}");
    }

    #[test]
    fn resume_without_checkpoint_dir_is_rejected() {
        let dir = tmpdir();
        let dirty = dir.join("resume-only.csv");
        std::fs::write(&dirty, "a,b\nx,1\ny,\n").unwrap();
        let (code, out) = run_str(&["impute", dirty.to_str().unwrap(), "--resume"]);
        assert_eq!(code, 2);
        assert!(out.contains("--resume requires --checkpoint-dir"), "{out}");
    }

    #[test]
    fn impute_streams_a_parseable_jsonl_trace_and_metrics_summary() {
        let dir = tmpdir();
        let dirty = dir.join("trace-dirty.csv");
        let trace = dir.join("trace.jsonl");
        std::fs::write(
            &dirty,
            "city,country\nParis,France\nRome,Italy\nParis,\nRome,\nParis,France\nRome,Italy\n",
        )
        .unwrap();

        let (code, out) = run_str(&[
            "impute",
            dirty.to_str().unwrap(),
            "--algo",
            "grimp",
            "--seed",
            "3",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("trace events to"), "{out}");
        assert!(out.contains("epochs:"), "{out}");
        assert!(out.contains("imputed cells:"), "{out}");

        let text = std::fs::read_to_string(&trace).unwrap();
        let mut saw_epoch = false;
        for line in text.lines() {
            let v = grimp_obs::json::parse(line).expect("trace line parses");
            if v.get("name").and_then(grimp_obs::json::Json::as_str) == Some("epoch") {
                saw_epoch = true;
            }
        }
        assert!(saw_epoch, "trace has no epoch events");
    }

    #[test]
    fn trace_out_is_rejected_for_non_grimp_algorithms() {
        let dir = tmpdir();
        let dirty = dir.join("trace-knn.csv");
        std::fs::write(&dirty, "a,b\nx,1\ny,\n").unwrap();
        let (code, out) = run_str(&[
            "impute",
            dirty.to_str().unwrap(),
            "--algo",
            "knn",
            "--trace-out",
            "/tmp/never.jsonl",
        ]);
        assert_eq!(code, 2);
        assert!(
            out.contains("--trace-out is only supported by the grimp variants"),
            "{out}"
        );
    }

    #[test]
    fn threads_flag_selects_the_parallel_backend() {
        let dir = tmpdir();
        let dirty = dir.join("threads-dirty.csv");
        std::fs::write(
            &dirty,
            "city,country\nParis,France\nRome,Italy\nParis,\nRome,\nParis,France\nRome,Italy\n",
        )
        .unwrap();
        let (code, out) = run_str(&[
            "impute",
            dirty.to_str().unwrap(),
            "--algo",
            "grimp",
            "--seed",
            "3",
            "--threads",
            "2",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 cells remain missing"), "{out}");
    }

    #[test]
    fn zero_or_garbage_threads_are_rejected() {
        let dir = tmpdir();
        let dirty = dir.join("threads-bad.csv");
        std::fs::write(&dirty, "a,b\nx,1\ny,\n").unwrap();
        let (code, out) = run_str(&["impute", dirty.to_str().unwrap(), "--threads", "0"]);
        assert_eq!(code, 2);
        assert!(out.contains("--threads must be at least 1"), "{out}");
        let (code, out) = run_str(&["impute", dirty.to_str().unwrap(), "--threads", "many"]);
        assert_eq!(code, 2);
        assert!(out.contains("--threads many: cannot parse value"), "{out}");
    }

    #[test]
    fn threads_is_rejected_for_non_grimp_algorithms() {
        let dir = tmpdir();
        let dirty = dir.join("threads-knn.csv");
        std::fs::write(&dirty, "a,b\nx,1\ny,\n").unwrap();
        let (code, out) = run_str(&[
            "impute",
            dirty.to_str().unwrap(),
            "--algo",
            "knn",
            "--threads",
            "2",
        ]);
        assert_eq!(code, 2);
        assert!(
            out.contains("--threads is only supported by the grimp variants"),
            "{out}"
        );
    }

    #[test]
    fn checkpoint_dir_is_rejected_for_non_grimp_algorithms() {
        let dir = tmpdir();
        let dirty = dir.join("ckpt-knn.csv");
        std::fs::write(&dirty, "a,b\nx,1\ny,\n").unwrap();
        let (code, out) = run_str(&[
            "impute",
            dirty.to_str().unwrap(),
            "--algo",
            "knn",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 2);
        assert!(
            out.contains("only supported by the grimp variants"),
            "{out}"
        );
    }
}
