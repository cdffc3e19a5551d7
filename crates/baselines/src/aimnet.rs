//! HOLO: an AimNet-style attention-based discriminative imputer
//! (Wu et al., "Attention-based learning for missing data imputation in
//! HoloClean", MLSys 2020 — the paper's HOLO baseline; reimplemented from
//! the architecture sketch in the GRIMP paper's §3.5 and §6, see DESIGN.md
//! §3 for the substitution note).
//!
//! Each (attribute, value) pair gets a trainable embedding. For a target
//! attribute, learned per-attribute attention weights select which context
//! attributes matter (this is how AimNet picks up attribute relationships
//! like `State → AreaCode`), the weighted context vector feeds a per-
//! attribute head: softmax over the domain for categoricals, a linear
//! regressor for numericals — AimNet's strength on numerical RMSE comes
//! from this direct regression path.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp::vectors::VectorBatch;
use grimp_graph::{GraphConfig, TableGraph};
use grimp_table::{ColumnKind, Corpus, Imputer, Normalizer, Table, Value};
use grimp_tensor::{init, Adam, Dense, Tape, Tensor, Var};

/// AimNet-like options.
#[derive(Clone, Copy, Debug)]
pub struct AimNetConfig {
    /// Cell-embedding dimensionality.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Early-stopping patience on training loss plateau.
    pub patience: usize,
    /// Learning rate.
    pub lr: f32,
    /// Graph canonicalization (for value indexing).
    pub graph: GraphConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for AimNetConfig {
    fn default() -> Self {
        AimNetConfig {
            dim: 32,
            epochs: 120,
            patience: 10,
            lr: 0.02,
            graph: GraphConfig::default(),
            seed: 0,
        }
    }
}

/// The AimNet-like imputer.
pub struct AimNetLike {
    config: AimNetConfig,
}

struct ColumnHead {
    /// `1 × C` attention logits over context attributes.
    attn: Var,
    /// Output head (`dim → |Dom|` or `dim → 1`).
    out: Dense,
}

impl AimNetLike {
    /// Build with options.
    pub fn new(config: AimNetConfig) -> Self {
        AimNetLike { config }
    }

    /// Attention-pooled context: `alpha = softmax(1·attn + mask_bias)`,
    /// `ctx = Σ_c alpha_c · emb(cell_c)`.
    fn head_forward(tape: &mut Tape, emb: Var, head: &ColumnHead, batch: &VectorBatch) -> Var {
        let v = tape.gather_rows(emb, Arc::clone(&batch.idx));
        let mask = tape.input(batch.mask.clone());
        let v = tape.mul_elem(v, mask);
        let ones = tape.input(Tensor::full(batch.n, 1, 1.0));
        let logits = tape.matmul(ones, head.attn); // N × C
        let bias = tape.input(batch.score_bias.clone());
        let scores = tape.add(logits, bias);
        let alpha = tape.row_softmax(scores);
        let ctx = tape.block_weighted_sum(v, alpha);
        head.out.forward(tape, ctx)
    }
}

impl Imputer for AimNetLike {
    fn name(&self) -> &str {
        "HoloClean/AimNet"
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let normalizer = Normalizer::fit(dirty);
        let mut norm = dirty.clone();
        normalizer.apply(&mut norm);

        let graph = TableGraph::build(&norm, cfg.graph, &[]);
        let n_cols = norm.n_columns();
        let corpus = Corpus::build(&norm, 0.0, &mut rng);

        let mut tape = Tape::new();
        let emb = tape.param(init::normal(graph.n_nodes(), cfg.dim, 0.1, &mut rng));
        let heads: Vec<ColumnHead> = (0..n_cols)
            .map(|j| {
                let out_dim = match norm.schema().column(j).kind {
                    ColumnKind::Categorical => norm.dictionary(j).len().max(1),
                    ColumnKind::Numerical => 1,
                };
                ColumnHead {
                    attn: tape.param(Tensor::zeros(1, n_cols)),
                    out: Dense::new(&mut tape, cfg.dim, out_dim, &mut rng),
                }
            })
            .collect();
        tape.freeze();
        let mut adam = Adam::new(cfg.lr);

        // Pre-build batches and labels per column.
        enum L {
            Cat(Arc<Vec<u32>>),
            Num(Arc<Vec<f32>>),
        }
        let batches: Vec<Option<(VectorBatch, L)>> = (0..n_cols)
            .map(|j| {
                let samples = &corpus.train[j];
                if samples.is_empty() {
                    return None;
                }
                let positions: Vec<(usize, usize)> =
                    samples.iter().map(|s| (s.row, s.target_col)).collect();
                let batch = VectorBatch::build(&graph, &positions, cfg.dim);
                let labels = match norm.schema().column(j).kind {
                    ColumnKind::Categorical => L::Cat(Arc::new(
                        samples
                            .iter()
                            .map(|s| s.label.as_cat().expect("cat"))
                            .collect(),
                    )),
                    ColumnKind::Numerical => L::Num(Arc::new(
                        samples
                            .iter()
                            .map(|s| s.label.as_num().expect("num") as f32)
                            .collect(),
                    )),
                };
                Some((batch, labels))
            })
            .collect();

        let mut best = f32::INFINITY;
        let mut since_best = 0usize;
        for _ in 0..cfg.epochs {
            let mut losses = Vec::new();
            for (head, entry) in heads.iter().zip(&batches) {
                let Some((batch, labels)) = entry else {
                    continue;
                };
                let out = Self::head_forward(&mut tape, emb, head, batch);
                let loss = match labels {
                    L::Cat(t) => tape.softmax_cross_entropy(out, Arc::clone(t)),
                    L::Num(t) => tape.mse_loss(out, Arc::clone(t)),
                };
                losses.push(loss);
            }
            if losses.is_empty() {
                tape.reset();
                break;
            }
            let total = tape.add_n(&losses);
            let value = tape.value(total).item();
            tape.backward(total);
            adam.step(&mut tape);
            tape.reset();
            if value + 1e-5 < best {
                best = value;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= cfg.patience {
                    break;
                }
            }
        }

        // Imputation.
        let mut result = dirty.clone();
        for (j, head) in heads.iter().enumerate() {
            let missing: Vec<(usize, usize)> = (0..norm.n_rows())
                .filter(|&i| norm.is_missing(i, j))
                .map(|i| (i, j))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let batch = VectorBatch::build(&graph, &missing, cfg.dim);
            let out = Self::head_forward(&mut tape, emb, head, &batch);
            let out_t = tape.value(out).clone();
            match norm.schema().column(j).kind {
                ColumnKind::Categorical => {
                    if norm.dictionary(j).is_empty() {
                        continue;
                    }
                    for (s, &(i, _)) in missing.iter().enumerate() {
                        let best = out_t
                            .row_slice(s)
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(k, _)| k as u32)
                            .expect("non-empty");
                        result.set(i, j, Value::Cat(best));
                    }
                }
                ColumnKind::Numerical => {
                    for (s, &(i, _)) in missing.iter().enumerate() {
                        let z = f64::from(out_t.get(s, 0));
                        result.set(i, j, Value::Num(normalizer.inverse(j, z)));
                    }
                }
            }
            tape.reset();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{check_imputation_contract, inject_mcar, Schema};

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

    #[test]
    fn aimnet_learns_attribute_relationships() {
        let clean = functional_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut m = AimNetLike::new(AimNetConfig::default());
        let imputed = m.impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        let acc = correct as f64 / cat.len().max(1) as f64;
        assert!(acc > 0.6, "aimnet accuracy {acc}");
    }

    #[test]
    fn numeric_regression_path_produces_reasonable_values() {
        let clean = functional_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let mut m = AimNetLike::new(AimNetConfig::default());
        let imputed = m.impute(&dirty);
        let num: Vec<_> = log.cells.iter().filter(|c| c.col == 2).collect();
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
        assert!(rmse < 12.0, "aimnet rmse {rmse} (column std ~11)");
    }
}
