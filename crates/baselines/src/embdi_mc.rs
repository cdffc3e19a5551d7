//! EMBDI-MC: EMBDI embeddings feeding a single multiclass classifier —
//! no GNN refinement, no multi-task learning (the weakest arm of the
//! paper's Fig. 10 ablation and a Fig. 8 baseline).
//!
//! A tuple's context vector is the average of its non-masked cell
//! embeddings; one classifier predicts over the union of all attribute
//! domains, and imputation restricts the argmax to the target attribute.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp::GlobalDomain;
use grimp_graph::{train_embdi, EmbdiConfig, GraphConfig, TableGraph};
use grimp_table::{ColumnKind, Corpus, Imputer, Normalizer, Table, Value};
use grimp_tensor::{Adam, Mlp, Tape, Tensor};

/// EMBDI-MC options.
#[derive(Clone, Copy, Debug)]
pub struct EmbdiMcConfig {
    /// EMBDI embedding stage.
    pub embdi: EmbdiConfig,
    /// Graph canonicalization.
    pub graph: GraphConfig,
    /// Classifier hidden width.
    pub hidden: usize,
    /// Classifier training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for EmbdiMcConfig {
    fn default() -> Self {
        EmbdiMcConfig {
            embdi: EmbdiConfig::default(),
            graph: GraphConfig::default(),
            hidden: 64,
            epochs: 80,
            lr: 0.02,
            seed: 0,
        }
    }
}

/// The EMBDI-MC imputer.
pub struct EmbdiMc {
    config: EmbdiMcConfig,
}

impl EmbdiMc {
    /// Build with options.
    pub fn new(config: EmbdiMcConfig) -> Self {
        EmbdiMc { config }
    }

    /// Context vector: mean of the row's cell embeddings, skipping nulls and
    /// the target column.
    fn context_vec(
        graph: &TableGraph,
        emb: &grimp_graph::EmbdiEmbeddings,
        row: usize,
        target_col: usize,
        out: &mut [f32],
    ) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let mut n = 0usize;
        for c in 0..graph.n_edge_types() {
            if c == target_col {
                continue;
            }
            if let Some(node) = graph.node_of(row, c) {
                for (o, &e) in out.iter_mut().zip(emb.node(node as usize)) {
                    *o += e;
                }
                n += 1;
            }
        }
        if n > 0 {
            let inv = 1.0 / n as f32;
            out.iter_mut().for_each(|v| *v *= inv);
        }
    }
}

impl Imputer for EmbdiMc {
    fn name(&self) -> &str {
        "EmbDI-MC"
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let normalizer = Normalizer::fit(dirty);
        let mut norm = dirty.clone();
        normalizer.apply(&mut norm);

        let graph = TableGraph::build(&norm, cfg.graph, &[]);
        let domain = GlobalDomain::build(&graph);
        if domain.n_classes() == 0 {
            return dirty.clone();
        }
        let emb = train_embdi(&graph, &norm, &cfg.embdi, &mut rng);
        let dim = emb.dim;

        // Training set: every non-missing cell (no holdout — EMBDI-MC uses a
        // fixed epoch budget).
        let corpus = Corpus::build(&norm, 0.0, &mut rng);
        let mut xs: Vec<f32> = Vec::new();
        let mut labels: Vec<u32> = Vec::new();
        let mut buf = vec![0.0f32; dim];
        for bucket in &corpus.train {
            for s in bucket {
                let Some(node) = graph.node_of(s.row, s.target_col) else {
                    continue;
                };
                Self::context_vec(&graph, &emb, s.row, s.target_col, &mut buf);
                xs.extend_from_slice(&buf);
                labels.push(domain.class_of_node(node));
            }
        }
        if labels.is_empty() {
            return crate::encoding::mean_mode_fill(dirty);
        }
        let x_train = Tensor::from_vec(labels.len(), dim, xs);
        let labels = Arc::new(labels);

        let mut tape = Tape::new();
        let model = Mlp::new(&mut tape, &[dim, cfg.hidden, domain.n_classes()], &mut rng);
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

        // Imputation.
        let mut result = dirty.clone();
        let missing = norm.missing_cells();
        if !missing.is_empty() {
            let mut xs: Vec<f32> = Vec::with_capacity(missing.len() * dim);
            for &(i, j) in &missing {
                Self::context_vec(&graph, &emb, i, j, &mut buf);
                xs.extend_from_slice(&buf);
            }
            let x = tape.input(Tensor::from_vec(missing.len(), dim, xs));
            let logits = model.forward(&mut tape, x);
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
    fn embdi_mc_imputes_with_contract() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut m = EmbdiMc::new(EmbdiMcConfig::default());
        let imputed = m.impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        // co-occurrence structure should beat random (1/3)
        let correct = log
            .cells
            .iter()
            .filter(|c| {
                imputed.display(c.row, c.col) == {
                    let Value::Cat(code) = c.truth else {
                        unreachable!()
                    };
                    clean.dictionary(c.col)[code as usize].clone()
                }
            })
            .count();
        assert!(
            correct as f64 / log.len().max(1) as f64 > 0.4,
            "embdi-mc accuracy {correct}/{}",
            log.len()
        );
    }

    #[test]
    fn values_never_leak_across_columns() {
        let clean = functional_table(40);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.2, &mut StdRng::seed_from_u64(2));
        let mut m = EmbdiMc::new(EmbdiMcConfig::default());
        let imputed = m.impute(&dirty);
        for (i, j) in dirty.missing_cells() {
            let v = imputed.display(i, j);
            assert!(
                v.starts_with(if j == 0 { "a" } else { "b" }),
                "leak: {v} in col {j}"
            );
        }
    }
}
