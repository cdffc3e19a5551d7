//! TURL-sub: a table-representation-learning baseline standing in for TURL
//! (Deng et al., VLDB 2020).
//!
//! TURL is a transformer pretrained on Wikipedia tables and fine-tuned for
//! cell filling; the pretrained corpus is unavailable here, so this
//! substitute keeps the evaluation-relevant mechanism (see DESIGN.md §3):
//! every cell is a *token* with a trainable embedding, a masked-cell
//! objective trains a content-based attention encoder over the row, and the
//! prediction is a token classification over the union of all attribute
//! vocabularies. Numbers are tokens too — exactly why TURL "does worse for
//! numerical attributes, as those are not considered in the original
//! design" (§4.2): the substitute inherits that weakness by construction.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp::vectors::VectorBatch;
use grimp_graph::{GraphConfig, TableGraph};
use grimp_table::{ColumnKind, Corpus, Imputer, Normalizer, Table, Value};
use grimp_tensor::{init, Adam, Dense, Mlp, Tape, Var};

use crate::domain::ValueDomain;

/// TURL-sub options.
#[derive(Clone, Copy, Debug)]
pub struct TurlConfig {
    /// Token-embedding dimensionality.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Graph canonicalization (token vocabulary).
    pub graph: GraphConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for TurlConfig {
    fn default() -> Self {
        TurlConfig {
            dim: 32,
            epochs: 100,
            lr: 0.02,
            graph: GraphConfig::default(),
            seed: 0,
        }
    }
}

/// The TURL substitute.
pub struct TurlSub {
    config: TurlConfig,
}

impl TurlSub {
    /// Build with options.
    pub fn new(config: TurlConfig) -> Self {
        TurlSub { config }
    }

    /// Content-based attention pooling over the row's live tokens followed
    /// by the vocabulary classifier.
    fn forward(
        tape: &mut Tape,
        emb: Var,
        query: &Dense,
        classifier: &Mlp,
        batch: &VectorBatch,
    ) -> Var {
        let v = tape.gather_rows(emb, Arc::clone(&batch.idx));
        let mask = tape.input(batch.mask.clone());
        let v = tape.mul_elem(v, mask);
        // content scores: each token projected to a scalar relevance
        let scores = query.forward(tape, v); // (N·C) × 1
        let scores = tape.reshape(scores, batch.n, batch.n_cols);
        let bias = tape.input(batch.score_bias.clone());
        let scores = tape.add(scores, bias);
        let alpha = tape.row_softmax(scores);
        let ctx = tape.block_weighted_sum(v, alpha);
        classifier.forward(tape, ctx)
    }
}

impl Imputer for TurlSub {
    fn name(&self) -> &str {
        "TURL"
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let normalizer = Normalizer::fit(dirty);
        let mut norm = dirty.clone();
        normalizer.apply(&mut norm);

        let graph = TableGraph::build(&norm, cfg.graph, &[]);
        let domain = ValueDomain::build(&graph);
        if domain.n_classes() == 0 {
            return dirty.clone();
        }
        let corpus = Corpus::build(&norm, 0.0, &mut rng);

        let mut tape = Tape::new();
        let emb = tape.param(init::normal(graph.n_nodes(), cfg.dim, 0.1, &mut rng));
        let query = Dense::new(&mut tape, cfg.dim, 1, &mut rng);
        let classifier = Mlp::new(
            &mut tape,
            &[cfg.dim, cfg.dim * 2, domain.n_classes()],
            &mut rng,
        );
        tape.freeze();
        let mut adam = Adam::new(cfg.lr);

        // Flat masked-cell training set.
        let mut positions = Vec::new();
        let mut labels = Vec::new();
        for bucket in &corpus.train {
            for s in bucket {
                let key =
                    grimp_graph::value_key(&norm, s.row, s.target_col, cfg.graph.numeric_decimals)
                        .expect("labels non-null");
                if let Some(class) = domain.class_of(s.target_col, &key) {
                    positions.push((s.row, s.target_col));
                    labels.push(class);
                }
            }
        }
        if labels.is_empty() {
            return crate::encoding::mean_mode_fill(dirty);
        }
        let batch = VectorBatch::build(&graph, &norm, &positions, cfg.dim);
        let labels = Arc::new(labels);
        for _ in 0..cfg.epochs {
            let logits = Self::forward(&mut tape, emb, &query, &classifier, &batch);
            let loss = tape.softmax_cross_entropy(logits, Arc::clone(&labels));
            tape.backward(loss);
            adam.step(&mut tape);
            tape.reset();
        }

        // Imputation: token argmax within the target column's vocabulary.
        let mut result = dirty.clone();
        let missing = norm.missing_cells();
        if !missing.is_empty() {
            let batch = VectorBatch::build(&graph, &norm, &missing, cfg.dim);
            let logits = Self::forward(&mut tape, emb, &query, &classifier, &batch);
            let out = tape.value(logits).clone();
            for (s, &(i, j)) in missing.iter().enumerate() {
                let (lo, hi) = domain.column_range(j);
                if lo == hi {
                    continue;
                }
                let row = out.row_slice(s);
                let best = (lo..hi)
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                    .expect("non-empty");
                let key = domain.key_of(j, best);
                match norm.schema().column(j).kind {
                    ColumnKind::Categorical => {
                        let code = result.intern(j, key);
                        result.set(i, j, Value::Cat(code));
                    }
                    ColumnKind::Numerical => {
                        let z: f64 = key.parse().expect("numeric keys parse");
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
        ]);
        let mut t = Table::empty(schema);
        for i in 0..n {
            let a = format!("a{}", i % 3);
            let b = format!("b{}", i % 3);
            t.push_str_row(&[Some(&a), Some(&b)]);
        }
        t
    }

    #[test]
    fn turl_sub_learns_entity_cooccurrence() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut m = TurlSub::new(TurlConfig::default());
        let imputed = m.impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let correct = log
            .cells
            .iter()
            .filter(|c| {
                let Value::Cat(code) = c.truth else {
                    unreachable!()
                };
                imputed.display(c.row, c.col) == clean.dictionary(c.col)[code as usize]
            })
            .count();
        let acc = correct as f64 / log.len().max(1) as f64;
        assert!(acc > 0.5, "turl-sub accuracy {acc}");
    }

    #[test]
    fn numeric_predictions_are_tokens_from_the_observed_domain() {
        // the key TURL weakness: numerical outputs can only be values seen
        // in the column
        let schema =
            Schema::from_pairs(&[("c", ColumnKind::Categorical), ("x", ColumnKind::Numerical)]);
        let mut t = Table::empty(schema);
        for i in 0..40 {
            t.push_str_row(&[
                Some(if i % 2 == 0 { "even" } else { "odd" }),
                Some(&format!("{}", (i % 2) as f64)),
            ]);
        }
        let mut dirty = t.clone();
        inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(2));
        let mut m = TurlSub::new(TurlConfig::default());
        let imputed = m.impute(&dirty);
        for (i, j) in dirty.missing_cells() {
            if j == 1 {
                let v = imputed.get(i, 1).as_num().unwrap();
                // tolerance covers the 4-decimal canonicalization of the
                // normalized token keys
                assert!(
                    (v - 0.0).abs() < 1e-3 || (v - 1.0).abs() < 1e-3,
                    "token-predicted numeric {v} outside the observed domain"
                );
            }
        }
    }
}
