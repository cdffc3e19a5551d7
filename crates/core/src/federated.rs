//! Federated imputation prototype (paper §7, future work #5: "in settings
//! where data privacy is an issue, we see GRIMP as a step that can lead to
//! novel solutions for federated imputation").
//!
//! Simulates `K` parties holding disjoint row shards of one table. Each
//! party trains a *local* GRIMP on its shard (its own graph, features and
//! self-supervised corpus — raw rows never leave the party); every round,
//! only the **model parameters** are averaged across parties (FedAvg,
//! McMahan et al. 2017) and broadcast back. After the final round each
//! party imputes its own shard and the shards are reassembled.
//!
//! Simulation simplifications (documented, inherent to an offline
//! prototype): the parties share the schema and the categorical label
//! vocabularies (in a real deployment this is an agreed codebook — values,
//! not records), and the shard split is round-robin. Optimizer state stays
//! local; only weights are communicated.
//!
//! Each party is a GRIMP model built by the shared build stage (on the
//! federation's normalization statistics and column tiers) and trained by
//! the shared train stage: the coordinator runs every party's trainer for
//! `local_epochs` epochs, averages the weights, and repeats. Each party then
//! imputes its shard through the same per-column decode as
//! [`crate::FittedModel`].

use std::time::Instant;

use grimp_obs::Trace;
use grimp_table::{FdSet, Table, Value};
use grimp_tensor::Tensor;

use crate::config::GrimpConfig;
use crate::engine::{Admitted, Trainer};
use crate::model::{build, Built};
use crate::report::ColumnTier;

/// Federation options.
#[derive(Clone, Debug)]
pub struct FederatedConfig {
    /// Number of parties `K`.
    pub parties: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs per round `E`.
    pub local_epochs: usize,
    /// The per-party GRIMP configuration (its `max_epochs`/`patience` are
    /// ignored; `rounds × local_epochs` governs training).
    pub base: GrimpConfig,
}

impl Default for FederatedConfig {
    fn default() -> Self {
        FederatedConfig {
            parties: 3,
            rounds: 8,
            local_epochs: 5,
            base: GrimpConfig::fast(),
        }
    }
}

/// Outcome of a federated run.
#[derive(Clone, Debug, Default)]
pub struct FederatedReport {
    /// Rounds executed.
    pub rounds_run: usize,
    /// Mean local training loss per round (averaged over parties).
    pub round_losses: Vec<f32>,
    /// Scalar parameters exchanged per round (weights of one model).
    pub params_per_round: usize,
}

/// One party's local state: its rows, its shard, its model and trainer.
struct Party {
    /// Original row indices of this shard.
    rows: Vec<usize>,
    shard: Table,
    built: Built,
    trainer: Trainer,
}

/// The federated GRIMP coordinator.
pub struct FederatedGrimp {
    config: FederatedConfig,
    fds: FdSet,
    last_report: Option<FederatedReport>,
}

impl FederatedGrimp {
    /// A federated coordinator without FDs.
    pub fn new(config: FederatedConfig) -> Self {
        assert!(config.parties >= 2, "federation needs at least two parties");
        FederatedGrimp {
            config,
            fds: FdSet::empty(),
            last_report: None,
        }
    }

    /// The report of the most recent run.
    pub fn last_report(&self) -> Option<&FederatedReport> {
        self.last_report.as_ref()
    }

    /// Split, train federated, impute shards, reassemble.
    ///
    /// # Panics
    /// With the [`crate::ConfigError`]'s message when the parties' training
    /// configuration — the base configuration with in-memory, full-batch,
    /// round-governed training — fails [`GrimpConfig::validate_fit`].
    pub fn fit_impute(&mut self, dirty: &Table) -> Table {
        let cfg = &self.config;
        let start = Instant::now();
        let mut trace = Trace::disabled();
        // Every party trains in memory on all of its shard's samples; the
        // rounds, not an epoch budget or early stopping, govern training.
        let party_cfg = GrimpConfig {
            validation_fraction: 0.0,
            max_train_samples_per_task: None,
            sampler: None,
            patience: usize::MAX,
            checkpoint_dir: None,
            resume: false,
            ..cfg.base.clone()
        };
        if let Err(e) = party_cfg.validate_fit() {
            panic!("{e}");
        }

        // Round-robin shard split.
        let mut parties: Vec<Party> = Vec::with_capacity(cfg.parties);
        for p in 0..cfg.parties {
            let rows: Vec<usize> = (p..dirty.n_rows()).step_by(cfg.parties).collect();
            // An empty copy keeps the federation's dictionaries whole.
            let mut shard = dirty.head(0);
            for &i in &rows {
                let row: Vec<Value> = (0..dirty.n_columns()).map(|j| dirty.get(i, j)).collect();
                shard.push_value_row(&row);
            }
            let admitted = Admitted {
                cfg: party_cfg.clone(),
                downscales: Vec::new(),
            };
            let mut built = build(admitted, &self.fds, &shard, None, Some(dirty), &mut trace);
            let report = std::mem::take(&mut built.report);
            let rng = built.net.enc.rng.state();
            let trainer = Trainer::new(&party_cfg, &mut built.tape, rng, report, start, &mut trace)
                .expect("invariant: no checkpoint directory, so no lock to be held");
            parties.push(Party {
                rows,
                shard,
                built,
                trainer,
            });
        }
        let n_weights = parties[0].trainer.report.n_weights;
        assert!(
            parties
                .iter()
                .all(|p| p.trainer.report.n_weights == n_weights),
            "parties must have identical parameter layouts"
        );

        // FedAvg rounds.
        let mut report = FederatedReport {
            params_per_round: n_weights,
            ..Default::default()
        };
        for _round in 0..cfg.rounds {
            let mut round_loss = 0.0f32;
            for party in &mut parties {
                let done = party.trainer.report.epochs.len();
                party.built.cfg.max_epochs = party.trainer.state.epoch + cfg.local_epochs;
                let trainable = party.built.net.tiers.contains(&ColumnTier::Gnn);
                let built = &mut party.built;
                party.trainer.run(
                    &built.cfg,
                    &mut built.tape,
                    &mut built.net,
                    trainable,
                    start,
                    &mut trace,
                );
                for epoch in &party.trainer.report.epochs[done..] {
                    round_loss += epoch.train_loss / cfg.local_epochs as f32;
                }
            }
            average_parameters(&mut parties);
            report.rounds_run += 1;
            report.round_losses.push(round_loss / cfg.parties as f32);
        }

        // Local imputation of each shard from the averaged weights (not a
        // party's best local epoch), merged back by original row ids.
        let mut result = dirty.clone();
        for party in parties {
            let Party {
                rows,
                shard,
                built,
                trainer,
            } = party;
            let fitted = built.into_fitted(shard.clone(), None, trainer.report);
            let imputed = fitted
                .impute(&shard)
                .expect("invariant: a party's own shard imputes transductively");
            for (local, &global) in rows.iter().enumerate() {
                for j in 0..result.n_columns() {
                    if !result.is_missing(global, j) {
                        continue;
                    }
                    let v = match imputed.get(local, j) {
                        // Shards share the federation's dictionaries; a
                        // label the shard added (the constant rung) joins.
                        Value::Cat(code) => {
                            Value::Cat(result.intern(j, &imputed.dictionary(j)[code as usize]))
                        }
                        v => v,
                    };
                    if !v.is_null() {
                        result.set(global, j, v);
                    }
                }
            }
        }
        self.last_report = Some(report);
        result
    }
}

/// FedAvg: elementwise mean of every trainable parameter across parties,
/// broadcast back to every party.
fn average_parameters(parties: &mut [Party]) {
    let snapshots: Vec<Vec<Tensor>> = parties
        .iter()
        .map(|p| p.built.tape.snapshot_param_values())
        .collect();
    let mean: Vec<Tensor> = (0..snapshots[0].len())
        .map(|i| {
            let (rows, cols) = snapshots[0][i].shape();
            let mut mean = Tensor::zeros(rows, cols);
            for snapshot in &snapshots {
                mean.add_scaled(&snapshot[i], 1.0 / parties.len() as f32);
            }
            mean
        })
        .collect();
    for party in parties.iter_mut() {
        party.built.tape.restore_param_values(&mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn functional_table(n: usize) -> Table {
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

    fn fed_config() -> FederatedConfig {
        FederatedConfig {
            parties: 3,
            rounds: 6,
            local_epochs: 4,
            base: GrimpConfig {
                feature_dim: 8,
                gnn: grimp_gnn::GnnConfig {
                    layers: 1,
                    hidden: 8,
                    ..Default::default()
                },
                merge_hidden: 16,
                embed_dim: 8,
                lr: 2e-2,
                seed: 0,
                ..GrimpConfig::fast()
            },
        }
    }

    #[test]
    fn federated_imputation_learns_the_shared_structure() {
        let clean = functional_table(90);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut fed = FederatedGrimp::new(fed_config());
        let imputed = fed.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let correct = log
            .cells
            .iter()
            .filter(|c| imputed.display(c.row, c.col) == clean.display(c.row, c.col))
            .count();
        let acc = correct as f64 / log.len().max(1) as f64;
        assert!(acc > 0.5, "federated accuracy {acc}");
        let report = fed.last_report().unwrap();
        assert_eq!(report.rounds_run, 6);
        assert!(report.params_per_round > 0);
        // losses trend downward over rounds
        assert!(
            report.round_losses.last().unwrap() < report.round_losses.first().unwrap(),
            "{:?}",
            report.round_losses
        );
    }

    #[test]
    fn shards_partition_all_rows() {
        let clean = functional_table(20);
        let cfg = fed_config();
        let mut seen = [false; 20];
        for p in 0..cfg.parties {
            for i in (p..20).step_by(cfg.parties) {
                assert!(!seen[i], "row {i} in two shards");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        drop(clean);
    }

    #[test]
    fn dictionaries_are_shared_across_shards() {
        // Shards start as `head(0)` of the federation's table.
        let clean = functional_table(30);
        let shard = clean.head(0);
        for j in 0..clean.n_columns() {
            assert_eq!(shard.dictionary(j), clean.dictionary(j));
        }
        assert_eq!(shard.n_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "at least two parties")]
    fn single_party_is_rejected() {
        FederatedGrimp::new(FederatedConfig {
            parties: 1,
            ..fed_config()
        });
    }
}
