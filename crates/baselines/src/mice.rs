//! MICE — Multivariate Imputation by Chained Equations
//! (van Buuren & Groothuis-Oudshoorn, 2011), cited by the paper as the
//! classical iterative discriminative baseline.
//!
//! Each round regresses every column on all others over the currently filled
//! matrix: softmax regression for categorical targets, linear regression for
//! numerical targets (both trained with the workspace's autodiff engine).
//! Features are one-hot-encoded categoricals (frequency-capped) plus
//! z-scored numericals.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp_table::{ColumnKind, Imputer, Table, Value};
use grimp_tensor::{Adam, Mlp, Tape, Tensor};

use crate::encoding::{mean_mode_fill, FeatCol, FeatureMatrix};

/// Cap on one-hot width per categorical feature column.
const MAX_ONE_HOT: usize = 24;

/// MICE options.
#[derive(Clone, Copy, Debug)]
pub struct MiceConfig {
    /// Chained-equation rounds.
    pub rounds: usize,
    /// Gradient steps per column model.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for MiceConfig {
    fn default() -> Self {
        MiceConfig {
            rounds: 3,
            epochs: 80,
            lr: 0.05,
            seed: 0,
        }
    }
}

/// The MICE imputer.
pub struct Mice {
    config: MiceConfig,
}

impl Mice {
    /// MICE with the given options.
    pub fn new(config: MiceConfig) -> Self {
        Mice { config }
    }
}

/// Encoding plan for one feature column: which codes get one-hot slots
/// (categorical) or the z-score stats (numerical).
enum ColPlan {
    Cat { hot_codes: Vec<u32> },
    Num { mean: f64, std: f64 },
}

fn plan_columns(features: &FeatureMatrix) -> Vec<ColPlan> {
    features
        .cols
        .iter()
        .map(|col| match col {
            FeatCol::Cat {
                codes,
                n_categories,
            } => {
                let mut counts = vec![0usize; *n_categories];
                for &c in codes {
                    counts[c as usize] += 1;
                }
                let mut order: Vec<u32> = (0..*n_categories as u32).collect();
                order.sort_by_key(|&c| std::cmp::Reverse(counts[c as usize]));
                order.truncate(MAX_ONE_HOT);
                ColPlan::Cat { hot_codes: order }
            }
            FeatCol::Num(vals) => {
                let n = vals.len().max(1) as f64;
                let mean = vals.iter().sum::<f64>() / n;
                let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
                ColPlan::Num {
                    mean,
                    std: var.sqrt().max(1e-9),
                }
            }
        })
        .collect()
}

fn plan_width(plan: &ColPlan) -> usize {
    match plan {
        ColPlan::Cat { hot_codes } => hot_codes.len(),
        ColPlan::Num { .. } => 1,
    }
}

/// Encode `rows` of `features` excluding `skip_col` into a dense matrix.
fn encode(features: &FeatureMatrix, plans: &[ColPlan], rows: &[usize], skip_col: usize) -> Tensor {
    let width: usize = plans
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != skip_col)
        .map(|(_, p)| plan_width(p))
        .sum();
    let mut x = Tensor::zeros(rows.len(), width.max(1));
    for (r, &row) in rows.iter().enumerate() {
        let mut off = 0usize;
        for (j, plan) in plans.iter().enumerate() {
            if j == skip_col {
                continue;
            }
            match (plan, features.get(row, j)) {
                (ColPlan::Cat { hot_codes }, Value::Cat(c)) => {
                    if let Some(pos) = hot_codes.iter().position(|&h| h == c) {
                        x.set(r, off + pos, 1.0);
                    }
                    off += hot_codes.len();
                }
                (ColPlan::Num { mean, std }, Value::Num(v)) => {
                    x.set(r, off, ((v - mean) / std) as f32);
                    off += 1;
                }
                _ => unreachable!("plan kind matches column kind"),
            }
        }
    }
    x
}

impl Imputer for Mice {
    fn name(&self) -> &str {
        "MICE"
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let filled = mean_mode_fill(dirty);
        let mut features = FeatureMatrix::from_complete_table(&filled);
        let n_cols = dirty.n_columns();

        let missing_rows: Vec<Vec<usize>> = (0..n_cols)
            .map(|j| {
                (0..dirty.n_rows())
                    .filter(|&i| dirty.is_missing(i, j))
                    .collect()
            })
            .collect();
        let observed_rows: Vec<Vec<usize>> = (0..n_cols)
            .map(|j| {
                (0..dirty.n_rows())
                    .filter(|&i| !dirty.is_missing(i, j))
                    .collect()
            })
            .collect();

        for _round in 0..self.config.rounds {
            let plans = plan_columns(&features);
            for j in 0..n_cols {
                if missing_rows[j].is_empty() || observed_rows[j].is_empty() {
                    continue;
                }
                let x_train = encode(&features, &plans, &observed_rows[j], j);
                let x_miss = encode(&features, &plans, &missing_rows[j], j);
                match dirty.schema().column(j).kind {
                    ColumnKind::Categorical => {
                        let n_classes = dirty.dictionary(j).len().max(2);
                        let labels: Arc<Vec<u32>> = Arc::new(
                            observed_rows[j]
                                .iter()
                                .map(|&i| features.get(i, j).as_cat().expect("cat"))
                                .collect(),
                        );
                        let mut tape = Tape::new();
                        let model = Mlp::new(&mut tape, &[x_train.cols(), n_classes], &mut rng);
                        tape.freeze();
                        let mut adam = Adam::new(self.config.lr);
                        for _ in 0..self.config.epochs {
                            let x = tape.input(x_train.clone());
                            let logits = model.forward(&mut tape, x);
                            let loss = tape.softmax_cross_entropy(logits, Arc::clone(&labels));
                            tape.backward(loss);
                            adam.step(&mut tape);
                            tape.reset();
                        }
                        let x = tape.input(x_miss);
                        let logits = model.forward(&mut tape, x);
                        let out = tape.value(logits).clone();
                        for (r, &i) in missing_rows[j].iter().enumerate() {
                            let best = out
                                .row_slice(r)
                                .iter()
                                .enumerate()
                                .max_by(|a, b| a.1.total_cmp(b.1))
                                .map(|(k, _)| k as u32)
                                .unwrap_or(0)
                                .min(dirty.dictionary(j).len().saturating_sub(1) as u32);
                            features.set(i, j, Value::Cat(best));
                        }
                    }
                    ColumnKind::Numerical => {
                        let targets: Arc<Vec<f32>> = Arc::new(
                            observed_rows[j]
                                .iter()
                                .map(|&i| features.get(i, j).as_num().expect("num") as f32)
                                .collect(),
                        );
                        // fit in normalized target space for stable lr
                        let t_mean = targets.iter().copied().sum::<f32>() / targets.len() as f32;
                        let t_std = (targets.iter().map(|v| (v - t_mean).powi(2)).sum::<f32>()
                            / targets.len() as f32)
                            .sqrt()
                            .max(1e-6);
                        let norm_targets: Arc<Vec<f32>> =
                            Arc::new(targets.iter().map(|v| (v - t_mean) / t_std).collect());
                        let mut tape = Tape::new();
                        let model = Mlp::new(&mut tape, &[x_train.cols(), 1], &mut rng);
                        tape.freeze();
                        let mut adam = Adam::new(self.config.lr);
                        for _ in 0..self.config.epochs {
                            let x = tape.input(x_train.clone());
                            let pred = model.forward(&mut tape, x);
                            let loss = tape.mse_loss(pred, Arc::clone(&norm_targets));
                            tape.backward(loss);
                            adam.step(&mut tape);
                            tape.reset();
                        }
                        let x = tape.input(x_miss);
                        let pred = model.forward(&mut tape, x);
                        let out = tape.value(pred).clone();
                        for (r, &i) in missing_rows[j].iter().enumerate() {
                            let v = f64::from(out.get(r, 0) * t_std + t_mean);
                            features.set(i, j, Value::Num(v));
                        }
                    }
                }
            }
        }

        // Intern categorical write-backs by surface string: the initial
        // fill may have created dictionary entries the dirty table lacks.
        let mut result = dirty.clone();
        for (j, rows) in missing_rows.iter().enumerate() {
            for &i in rows {
                match features.get(i, j) {
                    Value::Cat(code) => {
                        let s = filled.dictionary(j)[code as usize].clone();
                        let code = result.intern(j, &s);
                        result.set(i, j, Value::Cat(code));
                    }
                    v => result.set(i, j, v),
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{check_imputation_contract, inject_mcar, Schema};

    fn linear_table(n: usize) -> Table {
        // y = 2x; c determined by sign of x
        let schema = Schema::from_pairs(&[
            ("x", ColumnKind::Numerical),
            ("y", ColumnKind::Numerical),
            ("c", ColumnKind::Categorical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..n {
            let x = i as f64 - n as f64 / 2.0;
            let y = 2.0 * x;
            let c = if x < 0.0 { "neg" } else { "pos" };
            t.push_str_row(&[Some(&format!("{x}")), Some(&format!("{y}")), Some(c)]);
        }
        t
    }

    #[test]
    fn mice_recovers_linear_relationship() {
        let clean = linear_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut mice = Mice::new(MiceConfig::default());
        let imputed = mice.impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        // numerical RMSE must beat the mean-fill baseline by a wide margin
        let num: Vec<_> = log.cells.iter().filter(|c| c.col <= 1).collect();
        let rmse = (num
            .iter()
            .map(|c| {
                let t = c.truth.as_num().unwrap();
                let p = imputed.get(c.row, c.col).as_num().unwrap();
                (t - p) * (t - p)
            })
            .sum::<f64>()
            / num.len().max(1) as f64)
            .sqrt();
        assert!(rmse < 15.0, "mice rmse {rmse} (column std ~46)");
    }

    #[test]
    fn mice_classifies_categorical_from_numeric_evidence() {
        let clean = linear_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let mut mice = Mice::new(MiceConfig::default());
        let imputed = mice.impute(&dirty);
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col == 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        let acc = correct as f64 / cat.len().max(1) as f64;
        // Seed 2 corrupts 9 cells in `c`, two of which are unrecoverable even
        // in principle: row 63 loses x AND y (no evidence), and row 39 sits
        // exactly on the max-margin boundary of the remaining training data
        // (its own label is held out, so the nearest observed neg/pos are
        // x = -2 and x = 0, whose midpoint is the held-out x = -1). The bar
        // therefore accepts 7/9 and still rejects mode-fill (~5/9).
        assert!(acc > 0.75, "mice categorical accuracy {acc}");
    }
}
