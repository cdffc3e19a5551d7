//! Hyperparameter selection (paper §7, future work #1: "we plan to
//! introduce hyperparameter tuning in the pipeline, so that GRIMP gets the
//! optimal configuration for each dataset").
//!
//! [`select_config`] runs a short *probe fit* for every candidate
//! configuration and picks the one with the lowest final validation loss —
//! the same self-supervised signal the training loop already early-stops
//! on, so no ground truth is needed. The probe uses a reduced epoch budget;
//! the winner is returned with its full budget restored.

use grimp_obs::NullSink;
use grimp_table::{FdSet, Table};

use crate::config::{GrimpConfig, TaskKind};
use crate::model::fit_model;

/// One candidate's probe outcome.
#[derive(Clone, Debug)]
pub struct ProbeResult {
    /// Candidate label.
    pub name: String,
    /// Final validation loss of the probe fit (lower is better).
    pub val_loss: f32,
    /// Probe epochs actually run.
    pub epochs_run: usize,
    /// Wall-clock seconds of the probe fit alone (its
    /// [`crate::TrainReport::seconds`]); probes impute nothing.
    pub seconds: f64,
}

/// Tuning options.
#[derive(Clone, Copy, Debug)]
pub struct TunerConfig {
    /// Epoch cap of each probe fit.
    pub probe_epochs: usize,
    /// Patience of each probe fit.
    pub probe_patience: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            probe_epochs: 25,
            probe_patience: 6,
        }
    }
}

/// Probe every candidate on `dirty` and return the best configuration
/// (with its original epoch budget) plus the per-candidate report, sorted
/// best-first.
///
/// # Panics
/// Panics when `candidates` is empty or `dirty` has no columns.
pub fn select_config(
    dirty: &Table,
    fds: &FdSet,
    candidates: &[(String, GrimpConfig)],
    tuner: TunerConfig,
) -> (GrimpConfig, Vec<ProbeResult>) {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate configuration"
    );
    let mut results: Vec<(usize, ProbeResult)> = Vec::with_capacity(candidates.len());
    for (i, (name, config)) in candidates.iter().enumerate() {
        let probe_cfg = GrimpConfig {
            max_epochs: tuner.probe_epochs,
            patience: tuner.probe_patience,
            ..config.clone()
        };
        let fitted = fit_model(&probe_cfg, fds, dirty, &mut NullSink)
            .expect("a table with columns always fits");
        let report = fitted.report();
        let val_loss = report
            .val_losses()
            .into_iter()
            .fold(f32::INFINITY, f32::min);
        results.push((
            i,
            ProbeResult {
                name: name.clone(),
                val_loss,
                epochs_run: report.epochs_run,
                seconds: report.seconds,
            },
        ));
    }
    results.sort_by(|a, b| a.1.val_loss.total_cmp(&b.1.val_loss));
    let best = candidates[results[0].0].1.clone();
    (best, results.into_iter().map(|(_, r)| r).collect())
}

/// A reasonable default candidate grid around a base configuration:
/// attention vs linear heads and two learning rates.
pub fn default_candidates(base: &GrimpConfig) -> Vec<(String, GrimpConfig)> {
    vec![
        (
            "attention-lr1e2".into(),
            GrimpConfig {
                lr: 1e-2,
                ..base.clone()
            },
        ),
        (
            "attention-lr3e3".into(),
            GrimpConfig {
                lr: 3e-3,
                ..base.clone()
            },
        ),
        (
            "linear-lr1e2".into(),
            GrimpConfig {
                lr: 1e-2,
                task_kind: TaskKind::Linear,
                ..base.clone()
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{inject_mcar, ColumnKind, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize) -> Table {
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

    fn base() -> GrimpConfig {
        GrimpConfig {
            feature_dim: 8,
            gnn: grimp_gnn::GnnConfig {
                layers: 1,
                hidden: 8,
                ..Default::default()
            },
            merge_hidden: 16,
            embed_dim: 8,
            seed: 0,
            ..GrimpConfig::fast()
        }
    }

    #[test]
    fn selects_a_candidate_and_reports_all() {
        let mut dirty = table(60);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(0));
        let candidates = default_candidates(&base());
        let (best, results) = select_config(
            &dirty,
            &FdSet::empty(),
            &candidates,
            TunerConfig {
                probe_epochs: 8,
                probe_patience: 4,
            },
        );
        assert_eq!(results.len(), 3);
        // results sorted ascending by val loss
        assert!(results.windows(2).all(|w| w[0].val_loss <= w[1].val_loss));
        // best config keeps its own (non-probe) epoch budget
        assert_eq!(best.max_epochs, base().max_epochs);
        assert!(results
            .iter()
            .all(|r| r.epochs_run > 0 && r.epochs_run <= 8));
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidate_list_is_rejected() {
        let dirty = table(10);
        select_config(&dirty, &FdSet::empty(), &[], TunerConfig::default());
    }
}
