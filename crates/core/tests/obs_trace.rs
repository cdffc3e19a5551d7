//! End-to-end observability contracts: a traced run is deterministic,
//! replayable from JSONL, and its event stream reproduces the
//! `TrainReport` aggregates bit-for-bit.

use grimp::{GrimpConfig, Pipeline, SamplerConfig, TrainReport};
use grimp_obs::{json, names, Event, EventKind, JsonlSink, MemorySink};
use grimp_table::{inject_mcar, ColumnKind, Schema, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn functional_table(n: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..n {
        let a = format!("a{}", i % 4);
        let b = format!("b{}", i % 4);
        let x = format!("{}", (i % 4) as f64 * 10.0);
        t.push_str_row(&[Some(&a), Some(&b), Some(&x)]);
    }
    t
}

fn dirty_table(n: usize, seed: u64) -> Table {
    let mut dirty = functional_table(n);
    inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(seed));
    dirty
}

fn quick_config() -> GrimpConfig {
    GrimpConfig {
        feature_dim: 16,
        gnn: grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 16,
            ..Default::default()
        },
        merge_hidden: 32,
        embed_dim: 16,
        max_epochs: 12,
        patience: 12,
        lr: 2e-2,
        seed: 7,
        ..GrimpConfig::paper()
    }
}

/// Fit + impute with a memory sink, returning (live report, events).
fn traced_run(seed_table: &Table) -> (TrainReport, Vec<Event>) {
    let mut sink = MemorySink::new();
    let pipeline = Pipeline::new(quick_config()).expect("validated");
    let fitted = pipeline
        .fit_traced(seed_table, &mut sink)
        .expect("table has columns");
    let _ = fitted.impute_traced(seed_table, &mut sink);
    (fitted.report().clone(), sink.events().to_vec())
}

#[test]
fn identical_seeded_runs_emit_identical_event_streams() {
    let dirty = dirty_table(60, 1);
    let (_, a) = traced_run(&dirty);
    let (_, b) = traced_run(&dirty);
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len(), "event counts differ between runs");
    for (ea, eb) in a.iter().zip(&b) {
        assert_eq!((ea.kind, ea.name, ea.index), (eb.kind, eb.name, eb.index));
        // Payload values are deterministic for everything except span
        // durations (wall-clock noise).
        if ea.kind != EventKind::SpanExit {
            assert_eq!(
                ea.value.to_bits(),
                eb.value.to_bits(),
                "{:?} {} value differs",
                ea.kind,
                ea.name
            );
        }
    }
}

#[test]
fn report_from_events_matches_the_live_report_bit_for_bit() {
    let dirty = dirty_table(60, 2);
    let (live, events) = traced_run(&dirty);
    let replayed = TrainReport::from_events(&events);

    assert_eq!(replayed.epochs_run, live.epochs_run);
    assert_eq!(replayed.train_losses(), live.train_losses());
    assert_eq!(replayed.val_losses(), live.val_losses());
    assert_eq!(replayed.grad_norms(), live.grad_norms());
    assert_eq!(replayed.epoch_allocs(), live.epoch_allocs());
    assert_eq!(replayed.seconds.to_bits(), live.seconds.to_bits());
    assert_eq!(replayed.forward_s.to_bits(), live.forward_s.to_bits());
    assert_eq!(replayed.backward_s.to_bits(), live.backward_s.to_bits());
    assert_eq!(replayed.optim_s.to_bits(), live.optim_s.to_bits());
    assert_eq!(replayed.n_weights, live.n_weights);
    assert_eq!(replayed.clip_activations, live.clip_activations);
    assert_eq!(replayed.anomalies.len(), live.anomalies.len());
    assert_eq!(replayed.recoveries, live.recoveries);
    assert_eq!(replayed.checkpoint_bytes, live.checkpoint_bytes);
    assert_eq!(replayed.early_stopped, live.early_stopped);
    assert_eq!(replayed.degraded_to_baseline, live.degraded_to_baseline);
    assert_eq!(replayed.resumed_from_epoch, live.resumed_from_epoch);
    assert_eq!(replayed.io_errors.len(), live.io_errors.len());
    assert_eq!(replayed.column_tiers, live.column_tiers);
    // Per-epoch phase times line up with the run totals.
    let fwd: f64 = replayed.epochs.iter().map(|e| e.forward_s).sum();
    assert!(fwd <= replayed.forward_s + 1e-12);
}

#[test]
fn the_trace_covers_every_pipeline_phase() {
    let dirty = dirty_table(60, 3);
    let (report, events) = traced_run(&dirty);
    let count = |kind: EventKind, name: &str| {
        events
            .iter()
            .filter(|e| e.kind == kind && e.name == name)
            .count()
    };
    assert_eq!(count(EventKind::SpanExit, names::FIT), 1);
    assert_eq!(count(EventKind::SpanExit, names::GRAPH_BUILD), 1);
    assert_eq!(count(EventKind::SpanExit, names::FEATURE_INIT), 1);
    assert_eq!(count(EventKind::SpanExit, names::MODEL_BUILD), 1);
    assert_eq!(count(EventKind::SpanExit, names::BATCH_BUILD), 1);
    assert_eq!(count(EventKind::SpanExit, names::IMPUTE), 1);
    assert_eq!(count(EventKind::SpanExit, names::EPOCH), report.epochs_run);
    assert_eq!(
        count(EventKind::SpanExit, names::FORWARD),
        report.epochs_run
    );
    assert_eq!(
        count(EventKind::SpanExit, names::BACKWARD),
        report.epochs_run
    );
    // 3 tasks × epochs per-task losses
    assert_eq!(
        count(EventKind::Metric, names::TASK_LOSS),
        3 * report.epochs_run
    );
    assert_eq!(
        count(EventKind::Counter, names::TAPE_BACKWARD_NODES),
        report.epochs_run
    );
    assert!(count(EventKind::Counter, names::GRAPH_NODES) >= 1);
    assert!(count(EventKind::Counter, names::N_WEIGHTS) == 1);
    assert!(count(EventKind::SpanExit, names::CHECKPOINT_SAVE) >= 1);
    assert!(count(EventKind::Counter, names::IMPUTED_CELLS) >= 1);
    // The optimized hot path allocates only in epoch 1.
    let allocs = report.epoch_allocs();
    assert!(
        allocs.iter().skip(1).all(|&a| a == 0),
        "allocations after warm-up: {allocs:?}"
    );
}

#[test]
fn each_fit_stage_runs_once_directly_inside_the_fit_span() {
    let dirty = dirty_table(60, 5);
    let (_, events) = traced_run(&dirty);
    // Rebuild the span tree: every span's parent is the innermost open one.
    let mut open: Vec<&str> = Vec::new();
    let mut parent_of: Vec<(&str, Option<&str>)> = Vec::new();
    for e in &events {
        match e.kind {
            EventKind::SpanEnter => {
                parent_of.push((e.name, open.last().copied()));
                open.push(e.name);
            }
            EventKind::SpanExit => {
                open.pop();
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    let stages = [names::ADMIT, names::BUILD, names::TRAIN, names::FINALIZE];
    let seen: Vec<&str> = parent_of
        .iter()
        .filter(|(name, _)| stages.contains(name))
        .map(|(name, parent)| {
            assert_eq!(*parent, Some(names::FIT), "{name} must nest in fit");
            *name
        })
        .collect();
    assert_eq!(seen, stages, "each stage once, in order");
    // The existing phases sit inside their stage.
    let parent = |name: &str| {
        parent_of
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, p)| *p)
    };
    assert_eq!(parent(names::MODEL_BUILD), Some(names::BUILD));
    assert_eq!(parent(names::BATCH_BUILD), Some(names::BUILD));
    assert_eq!(parent(names::EPOCH), Some(names::TRAIN));
    let last_save = parent_of
        .iter()
        .rev()
        .find(|(n, _)| *n == names::CHECKPOINT_SAVE)
        .and_then(|(_, p)| *p);
    assert_eq!(last_save, Some(names::FINALIZE), "the final checkpoint");
}

#[test]
fn jsonl_trace_round_trips_through_the_hand_rolled_parser() {
    let dirty = dirty_table(50, 4);
    let path = std::env::temp_dir().join("grimp-obs-trace-test.jsonl");
    let _ = std::fs::remove_file(&path);
    {
        let mut sink = JsonlSink::create(&path).expect("create trace file");
        let pipeline = Pipeline::new(quick_config()).expect("validated");
        let fitted = pipeline
            .fit_traced(&dirty, &mut sink)
            .expect("table has columns");
        let _ = fitted.impute_traced(&dirty, &mut sink);
    }
    let text = std::fs::read_to_string(&path).expect("trace written");
    let mut kinds = std::collections::HashSet::new();
    let mut names_seen = std::collections::HashSet::new();
    let mut lines = 0usize;
    for line in text.lines() {
        let v = json::parse(line).expect("every line is valid JSON");
        let kind = v.get("kind").and_then(|k| k.as_str()).expect("kind field");
        assert!(EventKind::from_label(kind).is_some(), "unknown kind {kind}");
        kinds.insert(kind.to_string());
        names_seen.insert(
            v.get("name")
                .and_then(|n| n.as_str())
                .expect("name field")
                .to_string(),
        );
        assert!(v.get("t").and_then(|t| t.as_u64()).is_some(), "t field");
        assert!(v.get("i").and_then(|i| i.as_u64()).is_some(), "i field");
        lines += 1;
    }
    assert!(lines > 50, "expected a real trace, got {lines} lines");
    assert_eq!(kinds.len(), 4, "all four event kinds appear: {kinds:?}");
    for required in [
        names::GRAPH_BUILD,
        names::FEATURE_INIT,
        names::EPOCH,
        names::TASK_LOSS,
        names::TRAIN_LOSS,
        names::CHECKPOINT_SAVE,
        names::IMPUTE,
        names::IMPUTED_CELLS,
    ] {
        assert!(names_seen.contains(required), "missing {required}");
    }
    std::fs::remove_file(&path).ok();
}

/// The GNN's last layer and the merge run over the cell-node rows the task
/// heads read, not over every node: a sampled fit emits `gnn_rows` once per
/// epoch, equal to the cell-node count plus at most 3 rows that align the
/// range's start to the GEMM k-block — the same count at two table sizes,
/// since both tables hold the same 12 values — and the impute once more.
#[test]
fn gnn_rows_counts_the_cell_nodes_at_every_table_size() {
    let mut per_size = Vec::new();
    for rows in [203, 2003] {
        let dirty = dirty_table(rows, 3);
        let cfg = GrimpConfig {
            max_epochs: 3,
            sampler: Some(SamplerConfig {
                batch_rows: 64,
                fanout: 4,
            }),
            ..quick_config()
        };
        let mut sink = MemorySink::new();
        let fitted = Pipeline::new(cfg)
            .expect("validated")
            .fit_traced(&dirty, &mut sink)
            .expect("table has columns");
        let _ = fitted.impute_traced(&dirty, &mut sink);
        let counters = |name: &str| -> Vec<(u64, f64)> {
            sink.events()
                .iter()
                .filter(|e| e.kind == EventKind::Counter && e.name == name)
                .map(|e| (e.index, e.value))
                .collect()
        };
        let nodes = counters(names::GRAPH_NODES)[0].1 as usize;
        let cells = nodes - rows;
        let gnn_rows = counters(names::GNN_ROWS);
        let epochs = fitted.report().epochs_run;
        assert_eq!(epochs, 3, "{rows} rows");
        // one per epoch, then one for the impute (index 0)
        let indices: Vec<u64> = gnn_rows.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, [0, 1, 2, 0], "{rows} rows");
        for &(_, value) in &gnn_rows {
            let value = value as usize;
            assert!(
                (cells..=cells + 3).contains(&value),
                "{rows} rows: {value} computed rows for {cells} cell nodes"
            );
        }
        per_size.push(gnn_rows[0].1);
    }
    assert_eq!(
        per_size[0], per_size[1],
        "rows computed grew with the table"
    );
}

/// The graph build makes one value text per distinct dictionary code and
/// numerical bit pattern, never one per cell: `graph_keys` stays within the
/// table's distinct values and does not grow with its rows (both tables
/// hold the same 12 values).
#[test]
fn graph_keys_stay_within_the_distinct_values() {
    let mut per_size = Vec::new();
    for rows in [203, 2003] {
        let dirty = dirty_table(rows, 3);
        let cfg = GrimpConfig {
            max_epochs: 1,
            ..quick_config()
        };
        let mut sink = MemorySink::new();
        Pipeline::new(cfg)
            .expect("validated")
            .fit_traced(&dirty, &mut sink)
            .expect("table has columns");
        let keys: Vec<f64> = sink
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == names::GRAPH_KEYS)
            .map(|e| e.value)
            .collect();
        assert_eq!(keys.len(), 1, "{rows} rows: one graph build");
        let distinct: usize = (0..dirty.n_columns())
            .map(|j| dirty.column(j).n_distinct())
            .sum();
        assert!(
            keys[0] as usize <= distinct,
            "{rows} rows: {} keys for {distinct} distinct values",
            keys[0]
        );
        per_size.push(keys[0]);
    }
    assert_eq!(per_size[0], per_size[1], "keys made grew with the table");
}
