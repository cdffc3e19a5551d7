//! Crash-safe incremental imputation: append rows to an already-fitted
//! table without refitting from scratch.
//!
//! One append is a small state machine, every transition of which is
//! idempotent under replay:
//!
//! 1. **Log** — the appended rows are encoded into a [`WalSegment`] tagged
//!    with the current checkpoint generation (the CRC-32 its footer stores,
//!    and its epoch) and published atomically as `grimp.wal` (see
//!    [`crate::wal`]). From this point the delta is durable: a crash
//!    anywhere later replays it.
//! 2. **Decide** — warm-start fine-tune when the appended rows introduce no
//!    new categorical dictionary values ([`grow_table`]; the task-head
//!    shapes are dictated by dictionary widths, so the base checkpoint
//!    still fits the concat model bit-for-bit) *and* the checkpoint
//!    generation on disk is the one the WAL references — or one the
//!    fine-tune itself wrote mid-run.
//!    Anything else (new values, no checkpoint, a foreign or older
//!    generation) falls back to a **full refit** of the concatenated table;
//!    the WAL's base is then zeroed (another atomic publish) so a crashed
//!    refit re-decides the same way.
//! 3. **Train** — the fine-tune is a *resumed* fit of the concatenated
//!    table with `max_epochs = wal.epoch + finetune.epochs` and only the
//!    appended rows contributing training samples
//!    (`model::fit_model_delta`); the refit is a resumed plain
//!    fit. Both paths reuse the checkpointed training loop, so a kill at
//!    any epoch resumes bit-identically, and replaying an already-applied
//!    segment finds the epoch target already reached and trains nothing.
//! 4. **Impute & rotate** — the concatenated table is imputed
//!    transductively (every missing cell filled, degradation ladder
//!    included), then `grimp.wal` is atomically renamed to
//!    `grimp.wal.applied`. A crash between training and rotation re-enters
//!    at step 1 with the pending segment and no-ops through step 3.
//!
//! The determinism argument: every decision above is a pure function of
//! (config, base table, WAL segment, checkpoint on disk), and the training
//! loop itself is bit-identical under resume, so *interrupted at any point*
//! and *uninterrupted* runs converge to the same imputed table and the same
//! final checkpoint.

use std::path::Path;
use std::time::Instant;

use grimp_obs::fs::{with_retry, IO_RETRY_ATTEMPTS};
use grimp_obs::{crashpoint, names, EventSink, FaultFs, GrimpFs, RealFs, Trace};
use grimp_table::{ColumnKind, FdSet, Table};

use crate::checkpoint::{stored_crc, TrainCheckpoint, CHECKPOINT_FILE};
use crate::config::{ConfigError, GrimpConfig};
use crate::error::GrimpError;
use crate::model::{fit_model, fit_model_delta, FittedModel};
use crate::report::TrainReport;
use crate::wal::{WalBase, WalRead, WalRow, WalSegment, WAL_APPLIED_FILE, WAL_FILE};

/// Which route an append took through the delta/refit state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendPath {
    /// Warm-start fine-tune: the base checkpoint was resumed and trained
    /// `finetune.epochs` further epochs on the appended rows only.
    Finetune,
    /// Full refit of the concatenated table (new dictionary values, no
    /// usable base checkpoint, or a foreign/older generation on disk).
    Refit,
    /// Replay of an already-applied segment: the fine-tune target epoch was
    /// already reached, so no training ran — only imputation and rotation.
    NoOp,
}

impl AppendPath {
    /// Lowercase label used in CLI output and traces.
    pub fn label(self) -> &'static str {
        match self {
            AppendPath::Finetune => "finetune",
            AppendPath::Refit => "refit",
            AppendPath::NoOp => "noop",
        }
    }
}

/// Everything an append produces: the grown table, its imputation, the
/// fitted model serving it, and the provenance of how it got there.
pub struct AppendOutcome {
    /// The concatenated dirty table (base rows plus appended rows).
    pub table: Table,
    /// The imputed concatenated table — every missing cell filled.
    pub imputed: Table,
    /// The fitted model over the concatenated table (checkpointed under
    /// the same directory, so `grimp serve` hot-reloads it).
    pub model: FittedModel,
    /// Report of the fine-tune/refit run (clone of `model.report()`),
    /// including the drift check's `drift`/`refit_scheduled` fields.
    pub report: TrainReport,
    /// Which route the state machine took.
    pub path: AppendPath,
    /// Rows actually applied (from the WAL segment, which is authoritative
    /// when a pending segment was replayed).
    pub appended_rows: usize,
    /// Whether a pending `grimp.wal` from an interrupted earlier append was
    /// replayed instead of writing a fresh segment.
    pub replayed: bool,
    /// Whether replay had to drop a torn tail from the pending segment.
    pub torn_tail: bool,
}

impl std::fmt::Debug for AppendOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendOutcome")
            .field("path", &self.path)
            .field("appended_rows", &self.appended_rows)
            .field("replayed", &self.replayed)
            .field("torn_tail", &self.torn_tail)
            .field("rows", &self.table.n_rows())
            .finish_non_exhaustive()
    }
}

/// Convert a table's rows into WAL rows (missing cells become `None`).
/// Numericals render via the shortest-round-trip `Display`, so pushing the
/// rows back through [`Table::try_push_str_row`] is lossless.
pub fn table_to_wal_rows(t: &Table) -> Vec<WalRow> {
    (0..t.n_rows())
        .map(|i| {
            (0..t.n_columns())
                .map(|j| (!t.is_missing(i, j)).then(|| t.display(i, j)))
                .collect()
        })
        .collect()
}

/// The append refit rule: `base` with `rows` pushed onto it, and whether
/// the rows grew a categorical dictionary. A grown dictionary widens that
/// column's task head, so the base checkpoint no longer fits the grown
/// model and the append refits from the data. Every cell is re-validated
/// (width, numeric parse) on the way in.
///
/// # Errors
/// [`GrimpError::Table`] for the first row that does not fit `base`'s
/// schema.
pub fn grow_table(base: &Table, rows: &[WalRow]) -> Result<(Table, bool), GrimpError> {
    let mut grown = base.clone();
    for row in rows {
        let cells: Vec<Option<&str>> = row.iter().map(|c| c.as_deref()).collect();
        grown.try_push_str_row(&cells)?;
    }
    let new_values = (0..base.n_columns()).any(|j| {
        base.schema().column(j).kind == ColumnKind::Categorical
            && grown.dictionary(j).len() != base.dictionary(j).len()
    });
    Ok((grown, new_values))
}

/// Read the current checkpoint, returning its identity (the payload CRC-32
/// its footer stores) and decoded form. `None` for missing or undecodable
/// files — both mean "no usable base generation" and route the append to
/// a full refit.
fn read_current_checkpoint(fs: &mut dyn GrimpFs, path: &Path) -> Option<(u32, TrainCheckpoint)> {
    if !fs.exists(path) {
        return None;
    }
    let bytes = fs.read(path).ok()?;
    let ck = TrainCheckpoint::from_bytes(&bytes).ok()?;
    Some((stored_crc(&bytes)?, ck))
}

/// The append engine behind [`crate::Pipeline::append`]. See the module
/// docs for the state machine.
pub(crate) fn append_model(
    config: &GrimpConfig,
    fds: &FdSet,
    base: &Table,
    rows: &[WalRow],
    sink: &mut dyn EventSink,
) -> Result<AppendOutcome, GrimpError> {
    let start = Instant::now();
    let Some(dir) = config.checkpoint_dir.clone() else {
        return Err(ConfigError::AppendWithoutCheckpointDir.into());
    };
    let mut ckfs: Box<dyn GrimpFs> = match config.io_fault {
        Some(plan) => Box::new(FaultFs::new(plan)),
        None => Box::new(RealFs),
    };
    with_retry(IO_RETRY_ATTEMPTS, || ckfs.create_dir_all(&dir)).map_err(|source| {
        GrimpError::Io {
            context: format!("creating checkpoint dir {}", dir.display()),
            source,
        }
    })?;
    let wal_path = dir.join(WAL_FILE);
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let current = read_current_checkpoint(ckfs.as_mut(), &ckpt_path);

    // Step 1 — log. A pending segment from an interrupted append is
    // authoritative: matching rows resume it (keeping its original base
    // generation, which a mid-fine-tune checkpoint may since have moved
    // past), differing rows are a hard conflict the operator must resolve.
    let pending = WalSegment::read(ckfs.as_mut(), &wal_path).map_err(|source| GrimpError::Io {
        context: format!("reading pending append log {}", wal_path.display()),
        source,
    })?;
    let (mut segment, replayed, torn_tail, needs_write) = match pending {
        WalRead::Missing => {
            let gen = current
                .as_ref()
                .map(|(crc, ck)| WalBase {
                    ckpt_crc: *crc,
                    epoch: ck.epoch,
                })
                .unwrap_or_default();
            let mut s = WalSegment::new(gen, base.n_columns());
            s.rows = rows.to_vec();
            (s, false, false, true)
        }
        WalRead::Unusable(reason) => {
            return Err(GrimpError::PendingAppend {
                path: wal_path,
                detail: format!("unreadable ({reason})"),
            });
        }
        WalRead::Segment { segment, torn_tail } => {
            if segment.n_columns != base.n_columns() {
                return Err(GrimpError::PendingAppend {
                    path: wal_path,
                    detail: format!(
                        "was written for a {}-column table, this one has {}",
                        segment.n_columns,
                        base.n_columns()
                    ),
                });
            }
            if rows.is_empty() || segment.rows == rows {
                // Resume the interrupted append. Rewrite only when a torn
                // tail was dropped, so the file on disk is intact again.
                (segment, true, torn_tail, torn_tail)
            } else if torn_tail
                && rows.len() >= segment.rows.len()
                && segment.rows.as_slice() == &rows[..segment.rows.len()]
            {
                // The tear ate rows off the segment's tail; the request
                // carries the full set. Rewrite with the original base.
                let full = WalSegment {
                    rows: rows.to_vec(),
                    ..segment
                };
                (full, true, true, true)
            } else {
                return Err(GrimpError::PendingAppend {
                    path: wal_path,
                    detail: format!(
                        "holds {} row(s) from an interrupted append that differ \
                         from the {} requested",
                        segment.rows.len(),
                        rows.len()
                    ),
                });
            }
        }
    };
    if needs_write {
        let bytes = segment.to_bytes().len();
        segment
            .write(ckfs.as_mut(), &wal_path)
            .map_err(|source| GrimpError::Io {
                context: format!("writing append log {}", wal_path.display()),
                source,
            })?;
        // The rows just became durable; nothing has trained or been
        // acknowledged. A kill here must replay to the identical outcome.
        crashpoint::hit(crashpoint::WAL_PUBLISH);
        let mut trace = Trace::new(sink);
        trace.counter(names::WAL_WRITE, segment.rows.len() as u64, bytes as u64);
        let _ = trace.flush();
    }
    if replayed {
        let mut trace = Trace::new(sink);
        trace.counter(
            names::WAL_REPLAY,
            segment.rows.len() as u64,
            u64::from(!torn_tail),
        );
        let _ = trace.flush();
    }

    // The concatenated table. A malformed request fails here as a typed
    // data error — before any training — with the WAL still pending.
    let (concat, new_values) = grow_table(base, &segment.rows)?;
    let base_rows = base.n_rows();

    // Step 2 — decide. Fine-tune iff the shapes carry over (no categorical
    // column grew its dictionary) and the checkpoint on disk belongs to
    // this WAL's lineage: at least the referenced generation's epoch, at
    // most the fine-tune target (a mid-fine-tune checkpoint of this very
    // append). An older or future generation means the directory serves
    // some other table state — refit from the data.
    let target_epoch = segment.base.epoch + config.finetune.epochs as u64;
    let finetune = !new_values
        && segment.base.ckpt_crc != 0
        && current
            .as_ref()
            .is_some_and(|(_, ck)| ck.epoch >= segment.base.epoch && ck.epoch <= target_epoch);
    if !finetune && segment.base != WalBase::default() {
        // Zero the WAL's base so a crashed refit re-decides identically
        // (its mid-refit checkpoints would otherwise masquerade as a
        // fine-tune lineage on replay).
        segment.base = WalBase::default();
        segment
            .write(ckfs.as_mut(), &wal_path)
            .map_err(|source| GrimpError::Io {
                context: format!("rewriting append log {}", wal_path.display()),
                source,
            })?;
    }

    // Step 3 — train. Both paths resume, so kills at any epoch replay.
    let mut effective = config.clone();
    effective.resume = true;
    let (model, path) = if finetune {
        effective.max_epochs = target_epoch as usize;
        {
            let mut trace = Trace::new(sink);
            trace.counter(names::FINETUNE, segment.base.epoch, target_epoch);
            let _ = trace.flush();
        }
        let fitted = fit_model_delta(&effective, fds, &concat, Some(base_rows), sink)?;
        let replay_noop = fitted.report().epochs_run == 0
            && fitted
                .report()
                .resumed_from_epoch
                .is_some_and(|e| e as u64 >= target_epoch);
        let path = if replay_noop {
            AppendPath::NoOp
        } else {
            AppendPath::Finetune
        };
        (fitted, path)
    } else {
        (
            fit_model(&effective, fds, &concat, sink)?,
            AppendPath::Refit,
        )
    };
    let report = model.report().clone();

    // Step 4 — impute (transductive: the fit ran on this very table, so
    // every missing cell fills, degradation ladder included) and rotate.
    // A training run cut short by a shutdown request or the wall-clock
    // deadline still imputes (the contract: never an unfilled cell), but
    // the WAL stays pending: re-running the append resumes the fine-tune
    // from the checkpointed epoch and converges to the uninterrupted
    // outcome before rotating.
    let imputed = model.impute_traced(&concat, sink)?;
    let finished = !(report.interrupted || report.deadline_hit);
    if finished {
        let applied_path = dir.join(WAL_APPLIED_FILE);
        with_retry(IO_RETRY_ATTEMPTS, || ckfs.rename(&wal_path, &applied_path)).map_err(
            |source| GrimpError::Io {
                context: format!("rotating applied append log to {}", applied_path.display()),
                source,
            },
        )?;
        // The log is gone; only the idempotency journal (when the caller
        // keeps one) now guards a retry of these rows from re-appending.
        crashpoint::hit(crashpoint::APPLIED_ROTATE);
    }
    {
        let mut trace = Trace::new(sink);
        if finished {
            trace.counter(names::WAL_ROTATE, segment.rows.len() as u64, 1);
        }
        let n = segment.rows.len() as u64;
        let span = trace.enter(names::APPEND, n);
        trace.exit_with(names::APPEND, n, span, start.elapsed().as_secs_f64());
        let _ = trace.flush();
    }

    Ok(AppendOutcome {
        table: concat,
        imputed,
        appended_rows: segment.rows.len(),
        replayed,
        torn_tail,
        report,
        path,
        model,
    })
}
