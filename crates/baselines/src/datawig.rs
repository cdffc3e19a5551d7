//! DWIG: a DataWig-style imputer (Biessmann et al., JMLR 2019).
//!
//! Faithful to the three properties the GRIMP paper's analysis attributes to
//! DataWig (§4.2): (1) attribute embeddings are learned *independently* per
//! output attribute, (2) strings are featurized with a simple n-gram hashing
//! encoder, (3) there is no multi-task sharing — one isolated model per
//! attribute, each with its own single loss.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp_graph::FastTextLike;
use grimp_table::{ColumnKind, Imputer, Normalizer, Table, Value};
use grimp_tensor::{Adam, Mlp, Tape, Tensor};

/// DataWig-like options.
#[derive(Clone, Copy, Debug)]
pub struct DataWigConfig {
    /// Hashed n-gram width per context column.
    pub ngram_dim: usize,
    /// Hidden width of each per-attribute model.
    pub hidden: usize,
    /// Epochs per attribute model.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for DataWigConfig {
    fn default() -> Self {
        DataWigConfig {
            ngram_dim: 16,
            hidden: 32,
            epochs: 80,
            lr: 0.02,
            seed: 0,
        }
    }
}

/// The DataWig-like imputer.
pub struct DataWigLike {
    config: DataWigConfig,
}

impl DataWigLike {
    /// Build with options.
    pub fn new(config: DataWigConfig) -> Self {
        DataWigLike { config }
    }

    /// Featurize one row for target column `j`: hashed n-gram embeddings of
    /// every other column's display string, concatenated; missing cells are
    /// zero blocks.
    fn featurize(
        ft: &FastTextLike,
        table: &Table,
        row: usize,
        target: usize,
        dim: usize,
        out: &mut [f32],
    ) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let mut off = 0usize;
        for c in 0..table.n_columns() {
            if c == target {
                continue;
            }
            if !table.is_missing(row, c) {
                let v = ft.embed(&table.display(row, c));
                out[off..off + dim].copy_from_slice(&v);
            }
            off += dim;
        }
    }
}

impl Imputer for DataWigLike {
    fn name(&self) -> &str {
        "DataWig"
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let ft = FastTextLike::new(cfg.ngram_dim, cfg.seed ^ 0xda7a);

        let normalizer = Normalizer::fit(dirty);
        let n_cols = dirty.n_columns();
        let feat_width = (n_cols - 1) * cfg.ngram_dim;
        let mut result = dirty.clone();
        let mut buf = vec![0.0f32; feat_width];

        // One fully independent model per attribute with missing values.
        for j in 0..n_cols {
            let missing: Vec<usize> = (0..dirty.n_rows())
                .filter(|&i| dirty.is_missing(i, j))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let observed: Vec<usize> = (0..dirty.n_rows())
                .filter(|&i| !dirty.is_missing(i, j))
                .collect();
            if observed.is_empty() {
                continue;
            }
            let mut xs = Vec::with_capacity(observed.len() * feat_width);
            for &i in &observed {
                Self::featurize(&ft, dirty, i, j, cfg.ngram_dim, &mut buf);
                xs.extend_from_slice(&buf);
            }
            let x_train = Tensor::from_vec(observed.len(), feat_width, xs);
            let mut xm = Vec::with_capacity(missing.len() * feat_width);
            for &i in &missing {
                Self::featurize(&ft, dirty, i, j, cfg.ngram_dim, &mut buf);
                xm.extend_from_slice(&buf);
            }
            let x_miss = Tensor::from_vec(missing.len(), feat_width, xm);

            match dirty.schema().column(j).kind {
                ColumnKind::Categorical => {
                    let n_classes = dirty.dictionary(j).len().max(1);
                    let labels: Arc<Vec<u32>> = Arc::new(
                        observed
                            .iter()
                            .map(|&i| dirty.get(i, j).as_cat().expect("cat"))
                            .collect(),
                    );
                    let mut tape = Tape::new();
                    let model = Mlp::new(&mut tape, &[feat_width, cfg.hidden, n_classes], &mut rng);
                    tape.freeze();
                    let mut adam = Adam::new(cfg.lr);
                    for _ in 0..cfg.epochs {
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
                    for (s, &i) in missing.iter().enumerate() {
                        let best = out
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
                    let targets: Arc<Vec<f32>> = Arc::new(
                        observed
                            .iter()
                            .map(|&i| {
                                normalizer.forward(j, dirty.get(i, j).as_num().expect("num")) as f32
                            })
                            .collect(),
                    );
                    let mut tape = Tape::new();
                    let model = Mlp::new(&mut tape, &[feat_width, cfg.hidden, 1], &mut rng);
                    tape.freeze();
                    let mut adam = Adam::new(cfg.lr);
                    for _ in 0..cfg.epochs {
                        let x = tape.input(x_train.clone());
                        let pred = model.forward(&mut tape, x);
                        let loss = tape.mse_loss(pred, Arc::clone(&targets));
                        tape.backward(loss);
                        adam.step(&mut tape);
                        tape.reset();
                    }
                    let x = tape.input(x_miss);
                    let pred = model.forward(&mut tape, x);
                    let out = tape.value(pred).clone();
                    for (s, &i) in missing.iter().enumerate() {
                        let v = normalizer.inverse(j, f64::from(out.get(s, 0)));
                        result.set(i, j, Value::Num(v));
                    }
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

    fn functional_table(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..n {
            let a = format!("alpha{}", i % 4);
            let b = format!("beta{}", i % 4);
            let x = format!("{}", (i % 4) as f64 * 10.0);
            t.push_str_row(&[Some(&a), Some(&b), Some(&x)]);
        }
        t
    }

    #[test]
    fn datawig_imputes_with_contract_and_learns() {
        let clean = functional_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut m = DataWigLike::new(DataWigConfig::default());
        let imputed = m.impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        let acc = correct as f64 / cat.len().max(1) as f64;
        assert!(acc > 0.6, "datawig accuracy {acc}");
    }

    #[test]
    fn all_missing_column_is_left_missing_only_if_no_evidence() {
        // fully missing column has no observed rows → left as-is, which the
        // experiment harness treats as a (rare) contract exception for DWIG;
        // here we just pin the behavior.
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let t = Table::from_rows(schema, &[vec![Some("x"), None], vec![Some("y"), None]]);
        let mut m = DataWigLike::new(DataWigConfig::default());
        let imputed = m.impute(&t);
        assert_eq!(imputed.n_missing(), 2);
    }
}
