//! Scaling benchmark probe: trains GRIMP with neighbor-sampled mini-batches
//! on the large synthetic table at 5k / 50k / 250k rows, records throughput
//! (rows/sec) and the estimated peak footprint of the sampled vs full-graph
//! path at each size, and writes `BENCH_scaling.json` in the working
//! directory.
//!
//! At every size it also records `gnn_rows`, the node rows the GNN's last
//! layer and the merge computed per epoch (a trace counter), and asserts
//! it stays within the cell-node count plus the 3 rows that align the
//! range's start — a deterministic gate that those stages do not grow with
//! the row count. It records `graph_keys`, the value texts the graph build
//! made (a trace counter), and asserts it is at most the table's distinct
//! values — a gate that the build formats per value, not per cell. Wall
//! time is reported, not gated beyond a 4× collapse.
//!
//! The probe also proves the governor's third downscale rung end-to-end: the
//! 250k-row table is fitted under a memory budget the full-graph path cannot
//! admit (its estimated footprint exceeds the budget even at the dimension
//! floor), and the run must complete by degrading to sampled training — the
//! report's downscale ladder must end on the `sample` rung.
//!
//! Fully deterministic: fixed dataset seed, fixed corruption seed, fixed
//! model seed, early stopping disabled.
//!
//! ```bash
//! cargo run --release -p grimp-bench --bin scaling_probe
//! ```

use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

use grimp::{
    estimate_footprint, table_to_wal_rows, BackendKind, DownscaleRung, FinetuneConfig, GrimpConfig,
    Pipeline, SamplerConfig, TaskKind,
};
use grimp_datasets::generate_large;
use grimp_gnn::GnnConfig;
use grimp_graph::FeatureSource;
use grimp_obs::{names, EventKind, MemorySink};
use grimp_table::{inject_mcar, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 3] = [5_000, 50_000, 250_000];
const RATE: f64 = 0.05;
const EPOCHS: usize = 3;
/// Budget for the governed 250k-row run: far below the full-graph footprint
/// (which stays over budget even after the cap and dimension rungs bottom
/// out) yet comfortably above the sampled one, so admission *must* take the
/// sampling rung to proceed.
const BUDGET_MB: usize = 256;

fn probe_config() -> GrimpConfig {
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
        max_epochs: EPOCHS,
        patience: EPOCHS, // never early-stop: every size runs the same epochs
        // No per-task sample cap: the full-graph path must genuinely scale
        // with the table so the sampled-vs-full footprint gap is real.
        max_train_samples_per_task: None,
        seed: 7,
        backend: BackendKind::Parallel {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        ..GrimpConfig::fast()
    }
}

fn dirty_large(rows: usize) -> Table {
    let mut table = generate_large(rows, 0).table;
    inject_mcar(&mut table, RATE, &mut StdRng::seed_from_u64(1));
    table
}

struct SizeResult {
    rows: usize,
    seconds: f64,
    rows_per_sec: f64,
    epochs_run: usize,
    sampled_footprint_mb: f64,
    full_footprint_mb: f64,
    allocs_after_epoch1: u64,
    missing_filled: usize,
    cell_nodes: usize,
    /// Largest per-epoch `gnn_rows` counter of the fit.
    gnn_rows: usize,
    /// The graph build's `graph_keys` counter.
    graph_keys: usize,
    /// Distinct dictionary codes plus distinct numerical bit patterns.
    distinct_values: usize,
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn run_size(rows: usize) -> SizeResult {
    let dirty = dirty_large(rows);
    let mut cfg = probe_config();
    let full_footprint = estimate_footprint(&dirty, &cfg).total_bytes();
    cfg.sampler = Some(SamplerConfig {
        batch_rows: 4096,
        fanout: 8,
    });
    let sampled_footprint = estimate_footprint(&dirty, &cfg).total_bytes();
    let missing = dirty.n_missing();
    let distinct_values = (0..dirty.n_columns())
        .map(|j| dirty.column(j).n_distinct())
        .sum();

    let pipeline = Pipeline::new(cfg).expect("probe config is valid");
    let start = Instant::now();
    let mut sink = MemorySink::new();
    let fitted = pipeline.fit_traced(&dirty, &mut sink).expect("fits");
    let imputed = fitted
        .impute_traced(&dirty, &mut sink)
        .expect("training table");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        imputed.n_missing(),
        0,
        "{rows} rows: missing cells survived"
    );
    let report = fitted.report();
    assert_eq!(report.sampler_batch_rows, Some(4096.min(rows)));
    let allocs_after_epoch1: u64 = report.epoch_allocs().iter().skip(1).sum();
    let counters = |name: &'static str| {
        sink.events()
            .iter()
            .filter(move |e| e.kind == EventKind::Counter && e.name == name)
            .map(|e| e.value as usize)
    };
    let graph_nodes = counters(names::GRAPH_NODES)
        .next()
        .expect("the fit reports its graph size");
    let gnn_rows = counters(names::GNN_ROWS)
        .max()
        .expect("every epoch reports its GNN rows");
    let graph_keys = counters(names::GRAPH_KEYS)
        .next()
        .expect("the fit reports its graph keys");

    SizeResult {
        rows,
        seconds,
        rows_per_sec: rows as f64 / seconds,
        epochs_run: report.epochs_run,
        sampled_footprint_mb: mb(sampled_footprint),
        full_footprint_mb: mb(full_footprint),
        allocs_after_epoch1,
        missing_filled: missing,
        cell_nodes: graph_nodes - rows,
        gnn_rows,
        graph_keys,
        distinct_values,
    }
}

struct GovernedResult {
    seconds: f64,
    ladder: Vec<String>,
    batch_rows: usize,
    full_floor_over_budget: bool,
}

/// Fit the largest table under `BUDGET_MB` with *no* sampler configured:
/// admission has to walk the downscale ladder and land on the sampling rung,
/// or the run would be rejected — the full-graph activation footprint stays
/// over budget even at the ladder's cap and dimension floors.
fn run_governed(rows: usize) -> GovernedResult {
    let dirty = dirty_large(rows);
    let mut cfg = probe_config();
    cfg.memory_budget_mb = Some(BUDGET_MB);

    // The full-graph path truly cannot admit this table: even with the cap
    // and dimension rungs bottomed out, the footprint exceeds the budget.
    let mut floor = cfg.clone();
    floor.graph.max_cells_per_column = Some(16);
    floor.gnn.hidden = 4;
    floor.merge_hidden = 4;
    floor.embed_dim = 4;
    let floor_bytes = estimate_footprint(&dirty, &floor).total_bytes();
    let budget_bytes = BUDGET_MB as u64 * 1024 * 1024;
    let full_floor_over_budget = floor_bytes > budget_bytes;
    assert!(
        full_floor_over_budget,
        "probe premise broken: full-graph floor footprint {:.0} MB fits the \
         {BUDGET_MB} MB budget, so the sampling rung is not required",
        mb(floor_bytes)
    );

    let pipeline = Pipeline::new(cfg).expect("probe config is valid");
    let start = Instant::now();
    let fitted = pipeline.fit(&dirty).expect("fits");
    let imputed = fitted.impute(&dirty).expect("training table");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        imputed.n_missing(),
        0,
        "governed run: missing cells survived"
    );
    let report = fitted.report();
    assert!(
        report
            .downscales
            .iter()
            .any(|d| d.rung == DownscaleRung::Sample),
        "governed run must take the sampling rung, got ladder {:?}",
        report.downscales
    );
    let batch_rows = report
        .sampler_batch_rows
        .expect("sampled training reports its batch size");
    GovernedResult {
        seconds,
        ladder: report.downscales.iter().map(|d| d.to_string()).collect(),
        batch_rows,
        full_floor_over_budget,
    }
}

struct AppendResult {
    base_rows: usize,
    base_fit_seconds: f64,
    appended_rows: usize,
    finetune_seconds: f64,
    rows_per_sec: f64,
    finetune_epochs: usize,
    path: String,
}

const APPEND_BASE_ROWS: usize = 20_000;
const APPEND_DELTA_ROWS: usize = 64;

/// Append throughput: fit a base model once, then measure the warm-start
/// fine-tune path for a small delta. The delta reuses rows from the base
/// table so no dictionary grows and the append must stay on the fine-tune
/// path — the whole point of incremental imputation is that this is far
/// cheaper than the base fit.
fn run_append() -> AppendResult {
    let dirty = dirty_large(APPEND_BASE_ROWS);
    let dir = std::env::temp_dir().join(format!("grimp-scaling-append-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("append probe dir");

    let mut cfg = probe_config();
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.finetune = FinetuneConfig {
        epochs: 2,
        drift_band: 0.25,
    };
    let pipeline = Pipeline::new(cfg).expect("append probe config");

    let fit_start = Instant::now();
    pipeline.fit(&dirty).expect("append probe base fit");
    let base_fit_seconds = fit_start.elapsed().as_secs_f64();

    let mut rows = table_to_wal_rows(&dirty);
    rows.truncate(APPEND_DELTA_ROWS);

    let start = Instant::now();
    let outcome = pipeline.append(&dirty, &rows).expect("append probe append");
    let finetune_seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        outcome.imputed.n_missing(),
        0,
        "append probe: missing cells survived"
    );
    assert_eq!(
        outcome.path.label(),
        "finetune",
        "append probe: delta with no dictionary growth must fine-tune"
    );
    let _ = fs::remove_dir_all(&dir);
    AppendResult {
        base_rows: APPEND_BASE_ROWS,
        base_fit_seconds,
        appended_rows: outcome.appended_rows,
        finetune_seconds,
        rows_per_sec: outcome.appended_rows as f64 / finetune_seconds,
        finetune_epochs: outcome.report.epochs_run,
        path: outcome.path.label().to_string(),
    }
}

fn main() {
    let mut results = Vec::new();
    for rows in SIZES {
        let r = run_size(rows);
        println!(
            "{:>7} rows: {:.2}s ({:.0} rows/sec), footprint sampled {:.1} MB vs \
             full {:.1} MB, {} missing filled, allocs after epoch 1: {}, \
             GNN rows {} for {} cell nodes, {} graph keys for {} distinct values",
            r.rows,
            r.seconds,
            r.rows_per_sec,
            r.sampled_footprint_mb,
            r.full_footprint_mb,
            r.missing_filled,
            r.allocs_after_epoch1,
            r.gnn_rows,
            r.cell_nodes,
            r.graph_keys,
            r.distinct_values
        );
        results.push(r);
    }
    // The 0-allocs-after-epoch-1 invariant holds in sampled mode at every
    // size: batch workspaces are grown once and refilled in place.
    for r in &results {
        assert_eq!(
            r.allocs_after_epoch1, 0,
            "{} rows: workspace allocations after epoch 1 must stay at zero",
            r.rows
        );
        assert_eq!(r.epochs_run, EPOCHS, "{} rows: epoch count drifted", r.rows);
        // The last GNN layer and the merge compute the cell nodes the task
        // heads read (plus at most 3 alignment rows), never every node.
        assert!(
            r.gnn_rows >= r.cell_nodes && r.gnn_rows < r.cell_nodes + 4,
            "{} rows: the last layer computed {} rows for {} cell nodes",
            r.rows,
            r.gnn_rows,
            r.cell_nodes
        );
        // The graph build makes one value text per distinct value, never
        // one per cell.
        assert!(
            r.graph_keys <= r.distinct_values,
            "{} rows: the graph build made {} keys for {} distinct values",
            r.rows,
            r.graph_keys,
            r.distinct_values
        );
    }
    // Throughput must not collapse with size: sampled training keeps the
    // per-epoch training-vector work constant, so rows/sec should *grow*
    // with the table (amortizing fixed cost); require at least no worse
    // than a 4x drop from 5k to 250k to stay robust to machine noise.
    let (small, large) = (&results[0], &results[results.len() - 1]);
    assert!(
        large.rows_per_sec > small.rows_per_sec / 4.0,
        "throughput collapsed with size: {:.0} rows/sec at {} rows vs {:.0} at {}",
        small.rows_per_sec,
        small.rows,
        large.rows_per_sec,
        large.rows
    );

    let append = run_append();
    println!(
        "append: {} rows onto {} in {:.2}s ({:.0} rows/sec, {} fine-tune epoch(s)) \
         vs {:.2}s base fit",
        append.appended_rows,
        append.base_rows,
        append.finetune_seconds,
        append.rows_per_sec,
        append.finetune_epochs,
        append.base_fit_seconds
    );
    // The warm-start path must actually be incremental: appending a small
    // delta cannot cost as much as refitting the base from scratch.
    assert!(
        append.finetune_seconds < append.base_fit_seconds,
        "append probe: fine-tune ({:.2}s) is not cheaper than the base fit ({:.2}s)",
        append.finetune_seconds,
        append.base_fit_seconds
    );

    let governed = run_governed(SIZES[SIZES.len() - 1]);
    println!(
        "governed: 250k rows under {BUDGET_MB} MB in {:.2}s via ladder [{}] \
         (batch_rows {})",
        governed.seconds,
        governed.ladder.join(", "),
        governed.batch_rows
    );

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"dataset\": \"scaling-synthetic\",\n  \"corruption_rate\": {RATE},\n  \
         \"epochs\": {EPOCHS},\n  \"config\": {{\"feature_dim\": 16, \
         \"gnn_hidden\": 16, \"gnn_layers\": 1, \"merge_hidden\": 32, \
         \"embed_dim\": 16, \"batch_rows\": 4096, \"fanout\": 8, \"seed\": 7}},\n  \
         \"sizes\": [\n"
    );
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, \"seconds\": {:.3}, \"rows_per_sec\": {:.1}, \
             \"epochs_run\": {}, \"sampled_footprint_mb\": {:.1}, \
             \"full_footprint_mb\": {:.1}, \"missing_filled\": {}, \
             \"allocs_after_epoch1\": {}, \"cell_nodes\": {}, \"gnn_rows\": {}, \
             \"graph_keys\": {}, \"distinct_values\": {}}}{}",
            r.rows,
            r.seconds,
            r.rows_per_sec,
            r.epochs_run,
            r.sampled_footprint_mb,
            r.full_footprint_mb,
            r.missing_filled,
            r.allocs_after_epoch1,
            r.cell_nodes,
            r.gnn_rows,
            r.graph_keys,
            r.distinct_values,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"append\": {{\"base_rows\": {}, \"base_fit_seconds\": {:.3}, \
         \"appended_rows\": {}, \"finetune_epochs\": {}, \
         \"finetune_seconds\": {:.3}, \"rows_per_sec\": {:.1}, \
         \"path\": \"{}\"}},",
        append.base_rows,
        append.base_fit_seconds,
        append.appended_rows,
        append.finetune_epochs,
        append.finetune_seconds,
        append.rows_per_sec,
        append.path
    );
    let ladder = governed
        .ladder
        .iter()
        .map(|d| format!("\"{d}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = write!(
        json,
        "  \"governed_250k\": {{\"budget_mb\": {BUDGET_MB}, \"seconds\": {:.3}, \
         \"batch_rows\": {}, \"full_graph_floor_over_budget\": {}, \
         \"ladder\": [{ladder}]}}\n}}\n",
        governed.seconds, governed.batch_rows, governed.full_floor_over_budget
    );
    fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
    println!("wrote BENCH_scaling.json");
}
