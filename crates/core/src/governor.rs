//! Resource governance: cooperative shutdown, memory-footprint estimation
//! with admission-time downscaling, and the checkpoint-directory lock.
//!
//! Everything here is deterministic. The footprint estimate is pure
//! arithmetic over table statistics and config dims; the downscale ladder
//! walks three fixed rungs (cap distinct-value cell nodes per attribute,
//! then halve the hidden dims, then switch to neighbor-sampled mini-batch
//! training and halve its batch) until the estimate fits the budget or the
//! floors are reached — it never errors, because a model that is *smaller*
//! than requested still fills every cell, while an OOM kill fills none.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use grimp_obs::GrimpFs;
use grimp_table::{ColumnKind, Table};

use crate::config::{GrimpConfig, TaskKind};
use crate::report::{DownscaleDecision, DownscaleRung};

/// Cooperative shutdown flag, shared between a signal handler (or watcher
/// thread) and the training loop, which checks it at every epoch boundary.
/// The counter distinguishes a first request (stop cleanly: checkpoint,
/// impute from current state) from repeated ones (the CLI aborts).
#[derive(Clone, Debug, Default)]
pub struct ShutdownFlag(Arc<AtomicU32>);

impl ShutdownFlag {
    /// A fresh, unrequested flag.
    pub fn new() -> Self {
        ShutdownFlag::default()
    }

    /// Record one shutdown request; returns the total so far (1-based).
    pub fn request(&self) -> u32 {
        self.0.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// How many shutdown requests have been recorded.
    pub fn requests(&self) -> u32 {
        self.0.load(Ordering::SeqCst)
    }

    /// Whether at least one shutdown request is pending.
    pub fn is_requested(&self) -> bool {
        self.requests() > 0
    }
}

/// Pre-allocation memory estimate of one `fit`, in bytes, split by
/// component. Derived from node/edge/parameter counts only — nothing is
/// allocated to compute it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FootprintEstimate {
    /// Graph structure: node labels, the per-cell node index, typed edge
    /// lists.
    pub graph_bytes: u64,
    /// Node feature matrix plus its persistent training copy.
    pub feature_bytes: u64,
    /// Trainable parameters × every live copy (gradients, Adam moments,
    /// rollback snapshot, best-epoch snapshot).
    pub param_bytes: u64,
    /// Tape activations: per-node GNN/merge/embedding intermediates and
    /// per-task training-vector batches, with gradient + workspace copies.
    pub activation_bytes: u64,
}

impl FootprintEstimate {
    /// Total estimated bytes.
    pub fn total_bytes(&self) -> u64 {
        self.graph_bytes + self.feature_bytes + self.param_bytes + self.activation_bytes
    }
}

/// Bytes per f32 scalar.
const F32: u64 = 4;
/// Copies of every trainable scalar that live simultaneously: value, grad,
/// two Adam moments, the last-good rollback snapshot (params + moments),
/// and the best-epoch parameter snapshot.
const PARAM_COPIES: u64 = 8;
/// Copies of every activation scalar: value, gradient, workspace slack.
const ACT_COPIES: u64 = 3;
/// Rough per-node bookkeeping (label enum and text, adjacency).
const NODE_OVERHEAD: u64 = 96;
/// Rough per-edge bookkeeping (typed pair + CSR adjacency both ways).
const EDGE_OVERHEAD: u64 = 24;
/// Per table cell: the graph's cell → node index entry (a `u32`).
const CELL_INDEX_BYTES: u64 = 4;

/// Estimate the graph + tape footprint of fitting `cfg` on `table`,
/// honouring `cfg.graph.max_cells_per_column` so the downscale ladder can
/// re-estimate as it tightens the cap. Monotone in the cap and in the
/// hidden dims, which is what the ladder relies on.
pub fn estimate_footprint(table: &Table, cfg: &GrimpConfig) -> FootprintEstimate {
    let n_rows = table.n_rows() as u64;
    let n_cols = table.n_columns();
    let cap = cfg.graph.max_cells_per_column.unwrap_or(usize::MAX);

    let mut n_cells = 0u64; // distinct-value nodes across all columns
    let mut n_edges = 0u64;
    let mut task_samples = 0u64; // training samples across all tasks
    let mut task_out = 0u64; // Σ per-task output width
    for j in 0..n_cols {
        let col = table.column(j);
        let distinct = col.n_distinct() as u64;
        let observed = (table.n_rows() - col.n_missing()) as u64;
        let kept = distinct.min(cap as u64);
        n_cells += kept;
        // The frequency cutoff keeps the most frequent values, so at least
        // a proportional share of the observed cells keep their edges.
        n_edges += if distinct > kept && distinct > 0 {
            observed * kept / distinct
        } else {
            observed
        };
        let mut samples = match cfg.max_train_samples_per_task {
            Some(max) => observed.min(max as u64),
            None => observed,
        };
        // Under neighbor-sampled training only `batch_rows` samples per
        // task are materialized as training vectors at any moment (the
        // per-epoch mini-batch; validation batches are capped the same
        // way), so the dominant activation term scales with the batch.
        if let Some(sampler) = cfg.sampler {
            samples = samples.min(sampler.batch_rows as u64);
        }
        task_samples += samples;
        task_out += match table.schema().column(j).kind {
            ColumnKind::Categorical => distinct.max(1),
            ColumnKind::Numerical => 1,
        };
    }
    let n_nodes = n_rows + n_cells;

    let graph_bytes = n_nodes * NODE_OVERHEAD
        + n_edges * EDGE_OVERHEAD
        + n_rows * n_cols as u64 * CELL_INDEX_BYTES;
    // Feature tensor + the persistent per-epoch training copy.
    let feature_bytes = n_nodes * cfg.feature_dim as u64 * F32 * 2;

    // Trainable parameters. GNN: per layer one transform per edge type
    // plus the self path; merge MLP: hidden → merge → embed; task heads:
    // attention mixes plus the output projection.
    let (hidden, layers) = (cfg.gnn.hidden as u64, cfg.gnn.layers as u64);
    let (merge, embed) = (cfg.merge_hidden as u64, cfg.embed_dim as u64);
    let feat = cfg.feature_dim as u64;
    let mut params = 0u64;
    for l in 0..layers {
        let in_dim = if l == 0 { feat } else { hidden };
        params += (n_cols as u64 + 1) * (in_dim * hidden + hidden);
    }
    params += hidden * merge + merge + merge * embed + embed;
    let per_task_head = match cfg.task_kind {
        TaskKind::Attention => 3 * embed * embed + (n_cols as u64) * (n_cols as u64),
        TaskKind::Linear => 2 * embed * embed,
    };
    params += n_cols as u64 * per_task_head + embed * task_out;
    let param_bytes = params * F32 * PARAM_COPIES;

    // Activations: every node carries its per-layer GNN outputs, the merge
    // hidden layer, and the final embedding; every training sample gathers
    // a C-slot vector of embeddings and a task-output row.
    let per_node = layers * hidden + merge + embed;
    let per_sample = n_cols as u64 * embed + embed + task_out / (n_cols as u64).max(1);
    let activation_bytes = (n_nodes * per_node + task_samples * per_sample) * F32 * ACT_COPIES;

    FootprintEstimate {
        graph_bytes,
        feature_bytes,
        param_bytes,
        activation_bytes,
    }
}

/// Smallest value-node cap the ladder will try.
const CAP_FLOOR: usize = 16;
/// Smallest hidden width the ladder will shrink to.
const DIM_FLOOR: usize = 4;
/// `batch_rows` the sampling rung starts from (clamped to the table).
const SAMPLE_BATCH_DEFAULT: usize = 4096;
/// Smallest `batch_rows` the sampling rung will halve down to.
const SAMPLE_BATCH_FLOOR: usize = 256;
/// Neighbor fanout the sampling rung configures.
const SAMPLE_FANOUT: usize = 8;

/// Downscale `cfg` deterministically until [`estimate_footprint`] fits
/// `budget_mb`, recording every decision. Rung 1 halves the per-attribute
/// value-node cap (frequency cutoff, floor 16); rung 2 halves
/// `gnn.hidden` / `merge_hidden` / `embed_dim` together (floor 4); rung 3
/// switches training to deterministic neighbor-sampled mini-batches
/// (`batch_rows` 4096 clamped to the table, fanout 8) and keeps halving
/// `batch_rows` down to 256 — so tables the full-graph path cannot admit
/// degrade to sampling instead of being rejected. If the floors still
/// exceed the budget, the smallest shape proceeds anyway — degrading
/// further is the ladder's job, failing is not.
pub fn downscale_to_budget(
    cfg: &GrimpConfig,
    table: &Table,
    budget_mb: usize,
) -> (GrimpConfig, Vec<DownscaleDecision>) {
    let budget = budget_mb as u64 * 1024 * 1024;
    let mut eff = cfg.clone();
    let mut decisions = Vec::new();
    if estimate_footprint(table, &eff).total_bytes() <= budget {
        return (eff, decisions);
    }

    let max_distinct = (0..table.n_columns())
        .map(|j| table.column(j).n_distinct())
        .max()
        .unwrap_or(0);
    let mut cap = eff
        .graph
        .max_cells_per_column
        .unwrap_or(max_distinct)
        .max(CAP_FLOOR);
    while estimate_footprint(table, &eff).total_bytes() > budget && cap > CAP_FLOOR {
        cap = (cap / 2).max(CAP_FLOOR);
        eff.graph.max_cells_per_column = Some(cap);
        decisions.push(DownscaleDecision {
            rung: DownscaleRung::ValueNodeCap,
            value: cap as u64,
        });
    }

    while estimate_footprint(table, &eff).total_bytes() > budget
        && (eff.gnn.hidden > DIM_FLOOR || eff.merge_hidden > DIM_FLOOR || eff.embed_dim > DIM_FLOOR)
    {
        eff.gnn.hidden = (eff.gnn.hidden / 2).max(DIM_FLOOR);
        eff.merge_hidden = (eff.merge_hidden / 2).max(DIM_FLOOR);
        eff.embed_dim = (eff.embed_dim / 2).max(DIM_FLOOR);
        decisions.push(DownscaleDecision {
            rung: DownscaleRung::HiddenDims,
            value: eff.gnn.hidden as u64,
        });
    }

    if estimate_footprint(table, &eff).total_bytes() > budget && eff.sampler.is_none() {
        let batch = SAMPLE_BATCH_DEFAULT.min(table.n_rows().max(1));
        eff.sampler = Some(crate::config::SamplerConfig {
            batch_rows: batch,
            fanout: SAMPLE_FANOUT,
        });
        decisions.push(DownscaleDecision {
            rung: DownscaleRung::Sample,
            value: batch as u64,
        });
    }
    while estimate_footprint(table, &eff).total_bytes() > budget {
        let Some(sampler) = eff.sampler.as_mut() else {
            break;
        };
        if sampler.batch_rows <= SAMPLE_BATCH_FLOOR {
            break;
        }
        sampler.batch_rows = (sampler.batch_rows / 2).max(SAMPLE_BATCH_FLOOR);
        decisions.push(DownscaleDecision {
            rung: DownscaleRung::Sample,
            value: sampler.batch_rows as u64,
        });
    }
    (eff, decisions)
}

/// Name of the lock file inside a checkpoint directory.
pub const LOCK_FILE: &str = "grimp.lock";

/// Exclusive lock on a checkpoint directory, taken before any checkpoint
/// IO so two concurrent runs cannot corrupt each other's two-generation
/// rotation. The lock file holds the owner's PID for diagnostics; it is
/// removed on drop. A lock left behind by a killed process is reclaimed
/// automatically at the next acquire: when the recorded PID no longer
/// exists (or the file is unreadable — a torn write from a crashed run),
/// `fit` removes the stale file, emits a `lock_reclaimed` trace counter,
/// and retries once. A lock whose holder is alive stays a hard error.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Try to take the lock in `dir` via an exclusive create of
    /// [`LOCK_FILE`]. `Err(AlreadyExists)` means another run holds it;
    /// other errors are ordinary IO failures (degrade checkpoint-less).
    pub fn acquire(fs: &mut dyn GrimpFs, dir: &Path) -> std::io::Result<DirLock> {
        let path = dir.join(LOCK_FILE);
        let pid = std::process::id().to_string();
        fs.create_new(&path, pid.as_bytes())?;
        Ok(DirLock { path })
    }

    /// PID recorded in an existing lock file, when readable.
    pub fn owner_pid(fs: &mut dyn GrimpFs, dir: &Path) -> Option<u32> {
        let bytes = fs.read(&dir.join(LOCK_FILE)).ok()?;
        String::from_utf8(bytes).ok()?.trim().parse().ok()
    }

    /// Path of the lock file this guard owns.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Whether a process with this PID is currently alive. On Linux this is a
/// `/proc/<pid>` existence probe — no syscall wrapper crates, no signals
/// sent. On other platforms it conservatively answers `true`, so a stale
/// lock is never reclaimed automatically there (remove it manually; the
/// PID in the `LockHeld` error says whose it was).
#[cfg(target_os = "linux")]
pub fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

/// Non-Linux fallback: assume the holder is alive (never auto-reclaim).
#[cfg(not(target_os = "linux"))]
pub fn pid_alive(_pid: u32) -> bool {
    true
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Best-effort release through the real filesystem: an injected
        // fault must not leave a permanent lock behind.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_obs::RealFs;
    use grimp_table::{ColumnKind, Schema};

    fn wide_table(rows: usize, distinct: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("id", ColumnKind::Categorical),
            ("grp", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..rows {
            let id = format!("v{}", i % distinct);
            let grp = format!("g{}", i % 3);
            let x = format!("{}.5", i % 7);
            t.push_str_row(&[Some(&id), Some(&grp), Some(&x)]);
        }
        t
    }

    #[test]
    fn shutdown_flag_counts_requests_across_clones() {
        let flag = ShutdownFlag::new();
        assert!(!flag.is_requested());
        let other = flag.clone();
        assert_eq!(other.request(), 1);
        assert_eq!(flag.request(), 2);
        assert_eq!(flag.requests(), 2);
        assert!(flag.is_requested());
    }

    #[test]
    fn estimate_is_monotone_in_cap_and_dims() {
        let t = wide_table(500, 400);
        let base = GrimpConfig::paper();
        let free = estimate_footprint(&t, &base).total_bytes();

        let mut capped = base.clone();
        capped.graph.max_cells_per_column = Some(32);
        let capped_total = estimate_footprint(&t, &capped).total_bytes();
        assert!(capped_total < free, "{capped_total} !< {free}");

        let mut thin = capped.clone();
        thin.gnn.hidden /= 2;
        thin.merge_hidden /= 2;
        thin.embed_dim /= 2;
        let thin_total = estimate_footprint(&t, &thin).total_bytes();
        assert!(thin_total < capped_total, "{thin_total} !< {capped_total}");
    }

    #[test]
    fn estimate_is_deterministic_and_nonzero() {
        let t = wide_table(100, 50);
        let cfg = GrimpConfig::paper();
        let a = estimate_footprint(&t, &cfg);
        let b = estimate_footprint(&t, &cfg);
        assert_eq!(a, b);
        assert!(a.graph_bytes > 0);
        assert!(a.feature_bytes > 0);
        assert!(a.param_bytes > 0);
        assert!(a.activation_bytes > 0);
    }

    #[test]
    fn generous_budget_leaves_the_config_untouched() {
        let t = wide_table(100, 50);
        let cfg = GrimpConfig::paper();
        let (eff, decisions) = downscale_to_budget(&cfg, &t, 16_384);
        assert!(decisions.is_empty());
        assert_eq!(eff.gnn.hidden, cfg.gnn.hidden);
        assert!(eff.graph.max_cells_per_column.is_none());
    }

    #[test]
    fn tight_budget_walks_the_ladder_in_order() {
        let t = wide_table(2000, 1500);
        let cfg = GrimpConfig::paper();
        let (eff, decisions) = downscale_to_budget(&cfg, &t, 1);
        assert!(!decisions.is_empty());
        // Rung 1 decisions (value-node cap) come before rung 2 (dims).
        let first_dim = decisions
            .iter()
            .position(|d| d.rung == DownscaleRung::HiddenDims);
        if let Some(pos) = first_dim {
            assert!(decisions[..pos]
                .iter()
                .all(|d| d.rung == DownscaleRung::ValueNodeCap));
        }
        // Floors hold even under an absurd budget.
        assert!(eff.graph.max_cells_per_column.unwrap_or(usize::MAX) >= CAP_FLOOR);
        assert!(eff.gnn.hidden >= DIM_FLOOR);
        assert!(eff.embed_dim >= DIM_FLOOR);
        // The downscaled config still validates.
        eff.validate().expect("downscaled config is valid");
    }

    #[test]
    fn moderate_budget_stops_as_soon_as_it_fits() {
        let t = wide_table(2000, 1500);
        let cfg = GrimpConfig::paper();
        let free = estimate_footprint(&t, &cfg).total_bytes();
        // A budget halfway between the smallest shape the ladder can reach
        // and the unconstrained estimate is met by construction, and (being
        // below the unconstrained estimate) forces at least one decision.
        let floor = {
            let mut f = cfg.clone();
            f.graph.max_cells_per_column = Some(CAP_FLOOR);
            f.gnn.hidden = DIM_FLOOR;
            f.merge_hidden = DIM_FLOOR;
            f.embed_dim = DIM_FLOOR;
            estimate_footprint(&t, &f).total_bytes()
        };
        assert!(floor < free);
        let budget_mb = (((floor + free) / 2) / (1024 * 1024)).max(1) as usize;
        let (eff, decisions) = downscale_to_budget(&cfg, &t, budget_mb);
        assert!(!decisions.is_empty());
        assert!(
            estimate_footprint(&t, &eff).total_bytes() <= budget_mb as u64 * 1024 * 1024,
            "budget met"
        );
    }

    #[test]
    fn estimate_shrinks_with_sampler_batch_rows() {
        let t = wide_table(5000, 50);
        let full = GrimpConfig::paper();
        let free = estimate_footprint(&t, &full).total_bytes();
        let mut sampled = full.clone();
        sampled.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 512,
            fanout: 8,
        });
        let with_sampler = estimate_footprint(&t, &sampled).total_bytes();
        assert!(with_sampler < free, "{with_sampler} !< {free}");
        let mut smaller = sampled.clone();
        smaller.sampler.as_mut().unwrap().batch_rows = 256;
        assert!(estimate_footprint(&t, &smaller).total_bytes() <= with_sampler);
    }

    #[test]
    fn impossible_budget_falls_through_to_the_sampling_rung() {
        let t = wide_table(20_000, 1500);
        let cfg = GrimpConfig::paper();
        // A budget below the dims floor but above the sampled floor: only
        // the third rung can admit this table.
        let dims_floor = {
            let mut f = cfg.clone();
            f.graph.max_cells_per_column = Some(CAP_FLOOR);
            f.gnn.hidden = DIM_FLOOR;
            f.merge_hidden = DIM_FLOOR;
            f.embed_dim = DIM_FLOOR;
            estimate_footprint(&t, &f).total_bytes()
        };
        let budget_mb = ((dims_floor / (1024 * 1024)) / 2).max(1) as usize;
        let (eff, decisions) = downscale_to_budget(&cfg, &t, budget_mb);
        let sampler = eff.sampler.expect("sampling rung must fire");
        assert_eq!(sampler.fanout, SAMPLE_FANOUT);
        assert!(sampler.batch_rows >= SAMPLE_BATCH_FLOOR);
        assert!(sampler.batch_rows <= SAMPLE_BATCH_DEFAULT);
        // Sample decisions come last, after every cap / dims decision.
        let first_sample = decisions
            .iter()
            .position(|d| d.rung == DownscaleRung::Sample)
            .expect("a sample decision is recorded");
        assert!(decisions[first_sample..]
            .iter()
            .all(|d| d.rung == DownscaleRung::Sample));
        assert!(decisions[..first_sample]
            .iter()
            .all(|d| d.rung != DownscaleRung::Sample));
        eff.validate().expect("sampled downscale is a valid config");
    }

    #[test]
    fn sampling_rung_respects_a_user_configured_sampler() {
        let t = wide_table(20_000, 1500);
        let mut cfg = GrimpConfig::paper();
        cfg.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 2048,
            fanout: 4,
        });
        let (eff, _) = downscale_to_budget(&cfg, &t, 1);
        let sampler = eff.sampler.expect("sampler stays configured");
        // the ladder may halve the batch but never touches the fanout and
        // never grows the batch past what the user asked for
        assert_eq!(sampler.fanout, 4);
        assert!(sampler.batch_rows <= 2048);
        assert!(sampler.batch_rows >= SAMPLE_BATCH_FLOOR);
    }

    #[test]
    fn pid_alive_distinguishes_this_process_from_an_impossible_pid() {
        assert!(pid_alive(std::process::id()), "we are alive");
        #[cfg(target_os = "linux")]
        // u32::MAX far exceeds the kernel's pid_max (4194304), so no
        // process can ever hold it.
        assert!(!pid_alive(u32::MAX), "impossible pid must read as dead");
    }

    #[test]
    fn dir_lock_is_exclusive_and_released_on_drop() {
        let dir = std::env::temp_dir().join(format!("grimp-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut fs = RealFs;

        let lock = DirLock::acquire(&mut fs, &dir).expect("first lock");
        let err = DirLock::acquire(&mut fs, &dir).expect_err("second lock refused");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert_eq!(
            DirLock::owner_pid(&mut fs, &dir),
            Some(std::process::id()),
            "lock file records the owner pid"
        );
        drop(lock);
        let relock = DirLock::acquire(&mut fs, &dir).expect("lock released on drop");
        drop(relock);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
