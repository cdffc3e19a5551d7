//! fit_full and fit_sampled: the offline fit-and-impute a `grimp impute`
//! user runs on a dirty table. Each run times a fixed number of
//! `Pipeline::fit` + `FittedModel::impute` units and sets up [`SETUPS`]
//! times (input generation plus a warm-up fit), before the first unit and
//! then spread evenly among them, so every timed unit follows a warm-up.
//!
//! `latency_ms` is the fastest unit. A unit is serial and deterministic, so
//! interference from a shared host only ever adds time, and it comes in
//! waves of tens of seconds or longer that slow every unit inside them.

use std::time::Instant;

use grimp::{GrimpConfig, Pipeline, SamplerConfig, TaskKind};
use grimp_gnn::GnnConfig;
use grimp_graph::FeatureSource;
use grimp_obs::MemorySink;
use grimp_table::csv::{read_csv_str, to_csv_bytes};
use grimp_table::{check_imputation_contract, Table};

use crate::input::{self, Instance};
use crate::layers;
use crate::report::{median, peak_rss_mb, quantile, time_ms, train_metrics, RunResult, Spans};
use crate::{Args, SETUPS};

/// Seed of the model (weights, validation split, features); the workload
/// seed only drives the inputs.
const MODEL_SEED: u64 = 7;
/// Epochs of every fit; early stopping is off so each fit runs all of them.
const EPOCHS_FULL: usize = 8;
const EPOCHS_SAMPLED: usize = 3;

/// `GrimpConfig::fast()` GRIMP-FT at a fixed epoch count on the default
/// serial backend: the fit_full model, and the served model.
pub fn full_config() -> GrimpConfig {
    GrimpConfig {
        max_epochs: EPOCHS_FULL,
        patience: EPOCHS_FULL,
        seed: MODEL_SEED,
        ..GrimpConfig::fast()
    }
}

/// The scaling probe's small model (16-dim features, one 16-wide GNN
/// layer, linear tasks) trained on neighbor-sampled mini-batches.
pub fn sampled_config() -> GrimpConfig {
    GrimpConfig {
        features: FeatureSource::FastText,
        feature_dim: 16,
        gnn: GnnConfig {
            layers: 1,
            hidden: 16,
            ..Default::default()
        },
        merge_hidden: 32,
        embed_dim: 16,
        task_kind: TaskKind::Linear,
        max_epochs: EPOCHS_SAMPLED,
        patience: EPOCHS_SAMPLED,
        max_train_samples_per_task: None,
        sampler: Some(SamplerConfig {
            batch_rows: 4096,
            fanout: 8,
        }),
        seed: MODEL_SEED,
        ..GrimpConfig::fast()
    }
}

pub struct FitWorkload {
    pub config: GrimpConfig,
    pub input: fn(u64) -> Instance,
    /// Expected seconds per unit, used only to turn `--seconds` into a
    /// fixed unit count.
    pub nominal_unit_s: f64,
}

/// What one fit + impute unit produced.
struct Unit {
    seconds: f64,
    imputed: Table,
    report: grimp::TrainReport,
    root: Option<usize>,
    /// `graph_nodes`/`graph_edges` counters of a traced fit.
    graph: Option<(f64, f64)>,
}

fn check(dirty: &Table, imputed: &Table) -> Result<(), String> {
    check_imputation_contract(dirty, imputed)?;
    match imputed.n_missing() {
        0 => Ok(()),
        n => Err(format!("{n} cells left missing")),
    }
}

/// One timed unit; with `spans`, fit and impute stream their events into
/// memory and are folded under a root span for the unit.
fn unit(
    pipeline: &Pipeline,
    dirty: &Table,
    id: u64,
    spans: Option<&mut Spans>,
) -> Result<Unit, String> {
    let err = |e: grimp::GrimpError| e.to_string();
    let Some(spans) = spans else {
        let t = Instant::now();
        let mut fitted = pipeline.fit(dirty).map_err(err)?;
        let imputed = fitted.impute(dirty).map_err(err)?;
        let seconds = t.elapsed().as_secs_f64();
        return Ok(Unit {
            seconds,
            imputed,
            report: fitted.report().clone(),
            root: None,
            graph: None,
        });
    };
    let (mut fit_sink, mut impute_sink) = (MemorySink::new(), MemorySink::new());
    let t = Instant::now();
    let mut fitted = pipeline.fit_traced(dirty, &mut fit_sink).map_err(err)?;
    let t_impute = Instant::now();
    let imputed = fitted.impute_traced(dirty, &mut impute_sink).map_err(err)?;
    let end = Instant::now();
    let graph = Some(layers::graph_counts(fit_sink.events()));
    let root = spans.push("fit_impute", "bench", id, t, end, None);
    spans.fold_events(fit_sink.events(), t, id, root);
    spans.fold_events(impute_sink.events(), t_impute, id, root);
    Ok(Unit {
        seconds: (end - t).as_secs_f64(),
        imputed,
        report: fitted.report().clone(),
        root: Some(root),
        graph,
    })
}

pub fn run(w: &FitWorkload, args: &Args, out: &mut RunResult) {
    let pipeline = Pipeline::new(w.config.clone()).expect("the workload config is valid");

    // A fixed unit count per `--seconds`, so every run times the same
    // units; the traced run needs one of each kind.
    let n_units =
        ((args.seconds / w.nominal_unit_s).round() as usize).max(1 + usize::from(args.trace));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inst = None;
    let mut spans = Spans::new(Instant::now());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut roots = Vec::new();
    let mut reports = Vec::new();
    let mut graph = None;
    let mut first: Option<(f64, f64)> = None;
    for u in 0..n_units {
        // Set-up k runs before unit k * n_units / SETUPS, so the set-ups
        // spread over the run and their median does not hang on the
        // host's speed in its first seconds.
        for _ in (0..SETUPS).filter(|k| k * n_units / SETUPS == u) {
            let t = Instant::now();
            let i = (w.input)(args.seed);
            let warm = unit(&pipeline, &i.dirty, 0, None);
            setups.push(t.elapsed().as_secs_f64());
            eprintln!("set-up: {:.3} s", t.elapsed().as_secs_f64());
            out.op(warm.and_then(|u| check(&i.dirty, &u.imputed)));
            inst = Some(i);
        }
        let inst = inst.as_ref().expect("a set-up precedes the first unit");
        // The traced run alternates untraced and traced units; the gap
        // between the two medians is the tracing overhead.
        let trace_this = args.trace && u % 2 == 1;
        let result = unit(
            &pipeline,
            &inst.dirty,
            u as u64 + 1,
            trace_this.then_some(&mut spans),
        );
        let result = result.and_then(|r| check(&inst.dirty, &r.imputed).map(|()| r));
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                out.op(Err(e));
                continue;
            }
        };
        out.op(Ok(()));
        eprintln!(
            "unit {u}: {:.1} ms{}",
            r.seconds * 1e3,
            if trace_this { " (traced)" } else { "" }
        );
        let q = input::quality(&inst.clean, &r.imputed, &inst.log);
        match first {
            None => first = Some(q),
            Some(f) if f.0.to_bits() != q.0.to_bits() || f.1.to_bits() != q.1.to_bits() => {
                out.problem(format!(
                    "unit {u} imputed differently from unit 0: {q:?} vs {f:?}"
                ));
            }
            Some(_) => {}
        }
        if trace_this {
            traced.push(r.seconds);
            roots.extend(r.root);
            reports.push(r.report);
            graph = graph.or(r.graph);
        } else {
            plain.push(r.seconds);
        }
    }
    let inst = inst.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    let (accuracy, rmse) = first.unwrap_or((f64::NAN, f64::NAN));
    out.set("accuracy", accuracy);
    out.set("rmse", rmse);
    let all: Vec<f64> = plain.iter().chain(&traced).copied().collect();
    out.set("latency_ms", quantile(&all, 0.0) * 1e3);
    out.set("peak_rss_mb", peak_rss_mb());
    if args.trace {
        let table = trace_layers(w, &inst, &mut spans, &roots, &reports, graph, out);
        out.set(
            "obs.trace_overhead_pct",
            100.0 * (median(&traced) / median(&plain) - 1.0),
        );
        crate::write_trace(args, &spans, &table);
    }
}

/// Median over the traced units of one span's total seconds per unit.
fn span_ms(spans: &Spans, roots: &[usize], name: &str) -> f64 {
    let per_unit: Vec<f64> = roots
        .iter()
        .map(|&root| {
            spans
                .spans
                .iter()
                .filter(|s| s.name == name && s.unit == spans.spans[root].unit)
                .map(|s| (s.end - s.start).as_secs_f64())
                .sum::<f64>()
        })
        .collect();
    median(&per_unit) * 1e3
}

/// Per-layer metrics of the traced units plus replays; returns the layer
/// self-time table.
fn trace_layers(
    w: &FitWorkload,
    inst: &Instance,
    spans: &mut Spans,
    roots: &[usize],
    reports: &[grimp::TrainReport],
    graph: Option<(f64, f64)>,
    out: &mut RunResult,
) -> String {
    let cfg = &w.config;
    out.set(
        "table.csv_parse_ms",
        time_ms(3, || {
            std::hint::black_box(read_csv_str(&inst.csv).expect("the CSV parses"));
        }),
    );
    out.set(
        "table.csv_write_ms",
        time_ms(3, || {
            std::hint::black_box(to_csv_bytes(&inst.dirty));
        }),
    );
    out.set("graph.build_ms", span_ms(spans, roots, "graph_build"));
    out.set("graph.fasttext_ms", span_ms(spans, roots, "feature_init"));
    out.set("core.impute_ms", span_ms(spans, roots, "impute"));

    let counts = graph.unwrap_or((f64::NAN, f64::NAN));
    let fg = layers::checked_fit_graph(cfg, &inst.dirty, counts, out);
    let sample_ms = layers::sample_epoch_ms(cfg, &fg.graph);
    out.set("graph.sample_epoch_ms", sample_ms);
    out.set(
        "gnn.forward_ms",
        layers::gnn_forward_ms(cfg, &fg.graph, fg.ft_seed),
    );
    layers::tensor_kernels(cfg, &fg.graph, &inst.dirty, out);

    // Sampling runs inside each epoch span of a sampled fit; a replayed
    // sample_epoch child moves that share from core to graph.
    if sample_ms > 0.0 {
        let epochs: Vec<usize> = (0..spans.spans.len())
            .filter(|&i| spans.spans[i].name == "epoch")
            .collect();
        for id in epochs {
            let (unit, start, end) = (
                spans.spans[id].unit,
                spans.spans[id].start,
                spans.spans[id].end,
            );
            let sampled = start + std::time::Duration::from_secs_f64(sample_ms * 1e-3);
            spans.push(
                "sample_epoch",
                "graph",
                unit,
                start,
                sampled.min(end),
                Some(id),
            );
        }
    }
    let unit_s = median(
        &roots
            .iter()
            .map(|&r| (spans.spans[r].end - spans.spans[r].start).as_secs_f64())
            .collect::<Vec<f64>>(),
    );
    train_metrics(reports, unit_s, out);
    spans.report_layers(roots, out)
}
