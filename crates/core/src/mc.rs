//! GNN-MC: the ablation of Fig. 10 with the GNN enabled but multi-task
//! learning disabled — a *single* multiclass classifier over the full domain
//! of the table (the design §3.5 argues against; implemented to measure how
//! much MTL buys).
//!
//! Every value of every attribute (numericals via their rounded keys) is one
//! global class. At imputation time the argmax is restricted to the target
//! attribute's slice, mirroring GRIMP's `Dom(A_i)` restriction.
//!
//! The ablation shares GRIMP's engine: `build_encoder` builds the same
//! normalized table, corpus, graph, features and shared layer with the
//! global classifier as its head, and the train stage runs the epoch loop
//! over a loss hook that scores the flat sample batch.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use grimp_gnn::readout_rows;
use grimp_graph::TableGraph;
use grimp_obs::Trace;
use grimp_table::{ColumnKind, Imputer, Normalizer, Table, Value};
use grimp_tensor::{Mlp, Tape, Var};

use crate::config::GrimpConfig;
use crate::engine::{self, build_encoder, Encoder, Objective};
use crate::fault::TrainAnomaly;
use crate::report::TrainReport;
use crate::vectors::VectorBatch;

/// Global label space: one class per (attribute, value-key) pair, i.e. per
/// cell node of the graph it was built from. Within each column, classes
/// follow the sorted key text. The GNN-MC ablation and the token-predicting
/// baselines (EMBDI-MC, TURL-sub) share it.
pub struct GlobalDomain {
    /// Per column: its value keys in class order.
    keys: Vec<Vec<String>>,
    /// Per column: starting offset into the global class space.
    offsets: Vec<usize>,
    /// Total number of classes.
    total: usize,
    /// Node id of the graph's first cell node (= its RID count).
    first_cell: usize,
    /// The class of every cell node, indexed by node id minus `first_cell`.
    node_class: Vec<u32>,
}

impl GlobalDomain {
    /// Build the global domain from a graph's cell nodes.
    pub fn build(graph: &TableGraph) -> Self {
        let n_cols = graph.n_edge_types();
        let first_cell = graph.n_rids();
        let mut keys: Vec<Vec<String>> = Vec::with_capacity(n_cols);
        let mut offsets = Vec::with_capacity(n_cols);
        let mut node_class = vec![0u32; graph.n_nodes() - first_cell];
        let mut total = 0usize;
        for j in 0..n_cols {
            let mut cells: Vec<(&str, u32)> = graph.column_cells(j).collect();
            cells.sort_unstable();
            for (rank, &(_, node)) in cells.iter().enumerate() {
                node_class[node as usize - first_cell] = (total + rank) as u32;
            }
            offsets.push(total);
            total += cells.len();
            keys.push(cells.into_iter().map(|(k, _)| k.to_string()).collect());
        }
        GlobalDomain {
            keys,
            offsets,
            total,
            first_cell,
            node_class,
        }
    }

    /// Total number of global classes.
    pub fn n_classes(&self) -> usize {
        self.total
    }

    /// Global class of a cell node of the graph the domain was built from
    /// (as [`TableGraph::node_of`] returns it).
    pub fn class_of_node(&self, node: u32) -> u32 {
        self.node_class[node as usize - self.first_cell]
    }

    /// The `(start, end)` slice of global classes belonging to `column`.
    pub fn column_range(&self, col: usize) -> (usize, usize) {
        (self.offsets[col], self.offsets[col] + self.keys[col].len())
    }

    /// The value key of a global class inside `column`'s slice.
    pub fn key_of(&self, col: usize, class: usize) -> &str {
        &self.keys[col][class - self.offsets[col]]
    }
}

/// The GNN-MC ablation model.
pub struct GnnMc {
    config: GrimpConfig,
    last_report: Option<TrainReport>,
}

impl GnnMc {
    /// A GNN-MC model. Only the shared-layer fields of the config are used
    /// (task kind / K strategy do not apply).
    pub fn new(config: GrimpConfig) -> Self {
        GnnMc {
            config,
            last_report: None,
        }
    }

    /// The report of the most recent run.
    pub fn last_report(&self) -> Option<&TrainReport> {
        self.last_report.as_ref()
    }

    /// Train self-supervised and impute all missing values.
    ///
    /// # Panics
    /// With the [`crate::ConfigError`]'s message when the configuration
    /// fails [`GrimpConfig::validate_fit`] (checkpointing aside, which the
    /// ablation turns off).
    pub fn fit_impute(&mut self, dirty: &Table) -> Table {
        let start = Instant::now();
        // The ablation trains in memory: no checkpoint directory to lock,
        // resume from or write.
        let cfg = GrimpConfig {
            checkpoint_dir: None,
            resume: false,
            ..self.config.clone()
        };
        if let Err(e) = cfg.validate_fit() {
            panic!("{e}");
        }
        let mut trace = Trace::disabled();
        let (enc, mut tape, (domain, classifier)) = build_encoder(
            &cfg,
            Normalizer::fit(dirty),
            dirty,
            |_| {},
            &mut trace,
            |tape, norm, graph, _, rng| {
                let domain = GlobalDomain::build(graph);
                let classifier = Mlp::new(
                    tape,
                    &[
                        norm.n_columns() * cfg.embed_dim,
                        cfg.merge_hidden,
                        domain.n_classes().max(1),
                    ],
                    rng,
                );
                (domain, classifier)
            },
        );
        let Encoder {
            normalizer,
            norm,
            corpus,
            graph,
            gnn,
            merge,
            x,
            n_weights,
            rng,
            ..
        } = enc;
        let n_cols = norm.n_columns();

        // One flat sample list; labels in the global class space.
        let collect = |buckets: &[Vec<grimp_table::TrainingSample>]| {
            let mut positions = Vec::new();
            let mut labels = Vec::new();
            for bucket in buckets {
                for s in bucket {
                    // Capped-out values have no node, hence no class.
                    if let Some(node) = graph.node_of(s.row, s.target_col) {
                        positions.push((s.row, s.target_col));
                        labels.push(domain.class_of_node(node));
                    }
                }
            }
            (positions, labels)
        };
        let (mut train_pos, mut train_labels) = collect(&corpus.train);
        if let Some(cap) = cfg.max_train_samples_per_task {
            // the MC model has one "task": scale the cap by column count
            let cap = cap * n_cols;
            train_pos.truncate(cap);
            train_labels.truncate(cap);
        }
        let (val_pos, val_labels) = collect(&corpus.validation);
        let mut objective = McObjective {
            gnn: &gnn,
            merge: &merge,
            classifier: &classifier,
            x,
            rows: readout_rows(&graph),
            train: VectorBatch::build_readout(&graph, &train_pos, cfg.embed_dim),
            train_labels: Arc::new(train_labels),
            val: VectorBatch::build_readout(&graph, &val_pos, cfg.embed_dim),
            val_labels: Arc::new(val_labels),
        };
        let trainable = !objective.train.is_empty() && domain.n_classes() > 0;
        let report = TrainReport {
            n_weights,
            ..Default::default()
        };
        let trainer = engine::train(
            &cfg,
            &mut tape,
            rng.state(),
            report,
            &mut objective,
            trainable,
            start,
            &mut trace,
        )
        .expect("invariant: no checkpoint directory, so no lock to be held");

        // Imputation from the last epoch's weights: argmax restricted to
        // the target column's class slice.
        let mut result = dirty.clone();
        let missing = norm.missing_cells();
        if !missing.is_empty() && domain.n_classes() > 0 {
            let h0 = gnn.forward_rows(&mut tape, x, readout_rows(&graph));
            let h = merge.forward(&mut tape, h0);
            let batch = VectorBatch::build_readout(&graph, &missing, cfg.embed_dim);
            let out = mc_forward(&mut tape, &classifier, h, &batch);
            let out_t = tape.value(out);
            for (s, &(i, j)) in missing.iter().enumerate() {
                let (lo, hi) = domain.column_range(j);
                if lo == hi {
                    continue;
                }
                let row = out_t.row_slice(s);
                let best = (lo..hi)
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                    .expect("non-empty column range");
                let key = domain.key_of(j, best);
                match norm.schema().column(j).kind {
                    ColumnKind::Categorical => {
                        let code = result.intern(j, key);
                        result.set(i, j, Value::Cat(code));
                    }
                    ColumnKind::Numerical => {
                        let z: f64 = key.parse().expect("numeric keys parse back");
                        result.set(i, j, Value::Num(normalizer.inverse(j, z)));
                    }
                }
            }
            tape.reset();
        }
        let mut report = trainer.report;
        report.seconds = start.elapsed().as_secs_f64();
        self.last_report = Some(report);
        result
    }
}

/// GNN-MC's objective: the shared layer, then one cross-entropy over the
/// flat training batch; the validation loss (the training loss when there
/// is no validation sample) drives early stopping.
struct McObjective<'a> {
    gnn: &'a grimp_gnn::HeteroSage,
    merge: &'a Mlp,
    classifier: &'a Mlp,
    x: Var,
    /// The GNN's readout rows, which the batches index.
    rows: Range<usize>,
    train: VectorBatch,
    train_labels: Arc<Vec<u32>>,
    val: VectorBatch,
    val_labels: Arc<Vec<u32>>,
}

impl Objective for McObjective<'_> {
    fn losses(
        &mut self,
        tape: &mut Tape,
        _epoch: usize,
        _trace: &mut Trace<'_>,
        _anomalies: &mut Vec<TrainAnomaly>,
        losses: &mut Vec<Var>,
    ) -> f32 {
        let h0 = self.gnn.forward_rows(tape, self.x, self.rows.clone());
        let h = self.merge.forward(tape, h0);
        let logits = mc_forward(tape, self.classifier, h, &self.train);
        let loss = tape.softmax_cross_entropy(logits, Arc::clone(&self.train_labels));
        losses.push(loss);
        if self.val.is_empty() {
            return tape.value(loss).item();
        }
        let logits = mc_forward(tape, self.classifier, h, &self.val);
        let val = tape.softmax_cross_entropy(logits, Arc::clone(&self.val_labels));
        tape.value(val).item()
    }
}

fn mc_forward(tape: &mut Tape, classifier: &Mlp, h: Var, batch: &VectorBatch) -> Var {
    let v = tape.gather_rows(h, Arc::clone(&batch.idx));
    let mask = tape.input(batch.mask.clone());
    let v = tape.mul_elem(v, mask);
    let flat = tape.reshape(v, batch.n, batch.n_cols * batch.dim);
    classifier.forward(tape, flat)
}

impl Imputer for GnnMc {
    fn name(&self) -> &str {
        "GNN-MC"
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        self.fit_impute(dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_graph::{FeatureSource, GraphConfig};
    use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> GrimpConfig {
        GrimpConfig {
            features: FeatureSource::FastText,
            feature_dim: 16,
            gnn: grimp_gnn::GnnConfig {
                layers: 2,
                hidden: 16,
                ..Default::default()
            },
            merge_hidden: 32,
            embed_dim: 16,
            max_epochs: 60,
            patience: 10,
            lr: 2e-2,
            seed: 3,
            ..GrimpConfig::paper()
        }
    }

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
    fn global_domain_indexes_every_value_once() {
        let t = functional_table(9);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let d = GlobalDomain::build(&g);
        assert_eq!(d.n_classes(), 6);
        let (lo, hi) = d.column_range(1);
        assert_eq!(hi - lo, 3);
        let class = d.class_of_node(g.cell_node(1, "b2").unwrap()) as usize;
        assert!((lo..hi).contains(&class));
        assert_eq!(d.key_of(1, class), "b2");
        // classes follow the sorted text within each column
        for j in 0..2 {
            for (text, node) in g.column_cells(j) {
                assert_eq!(d.key_of(j, d.class_of_node(node) as usize), text);
            }
        }
    }

    #[test]
    fn gnn_mc_imputes_and_respects_contract() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut model = GnnMc::new(config());
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        // functional table: should beat random (1/3)
        let correct = log
            .cells
            .iter()
            .filter(|c| {
                imputed.display(c.row, c.col)
                    == match c.truth {
                        Value::Cat(code) => clean.dictionary(c.col)[code as usize].clone(),
                        _ => unreachable!(),
                    }
            })
            .count();
        assert!(correct as f64 / log.len() as f64 > 0.5);
    }

    #[test]
    #[should_panic(expected = "gnn.neighbor_cap must be at least 1")]
    fn fit_impute_rejects_a_zero_neighbor_cap_before_training() {
        let mut dirty = functional_table(40);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut config = config();
        config.gnn.neighbor_cap = Some(0);
        GnnMc::new(config).fit_impute(&dirty);
    }

    #[test]
    #[should_panic(expected = "--fanout must be at least 1")]
    fn fit_impute_rejects_a_zero_fanout_before_training() {
        let mut dirty = functional_table(40);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut config = config();
        config.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 16,
            fanout: 0,
        });
        GnnMc::new(config).fit_impute(&dirty);
    }

    #[test]
    fn imputed_values_stay_in_column_domain() {
        let clean = functional_table(30);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.2, &mut StdRng::seed_from_u64(2));
        let mut model = GnnMc::new(config());
        let imputed = model.fit_impute(&dirty);
        for (i, j) in dirty.missing_cells() {
            let v = imputed.display(i, j);
            assert!(
                v.starts_with(if j == 0 { "a" } else { "b" }),
                "leaked value {v} into col {j}"
            );
        }
    }
}
