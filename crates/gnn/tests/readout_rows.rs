//! The row-restricted forward pass against the all-rows one: over the
//! readout rows (the cell nodes, start aligned to the GEMM k-block), the
//! restricted pass must give every row the bits the all-rows pass gives
//! it, and a loss that reads only those rows must get the same parameter
//! gradients, bit for bit — for every operator assignment, 1–3 layers,
//! full and neighbor-sampled adjacencies, both backends, and row counts of
//! every residue mod 4 (so the aligned start falls both on and before the
//! first cell node).

use std::ops::Range;
use std::sync::Arc;

use grimp_gnn::{readout_rows, GnnConfig, HeteroSage, OperatorAssignment};
use grimp_graph::{GraphConfig, NeighborSampler, TableGraph};
use grimp_table::{ColumnKind, Schema, Table};
use grimp_tensor::{BackendKind, Tape, Tensor, Var, GEMM_K_BLOCK};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const IN_DIM: usize = 5;

type Row = (Option<u32>, Option<u32>, Option<i32>);

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    let cell = prop_oneof![
        4 => (0u32..5).prop_map(Some),
        1 => Just(None),
    ];
    proptest::collection::vec((cell.clone(), cell, proptest::option::of(-6i32..6)), 4..26)
}

fn table_of(rows: &[Row]) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for (a, b, x) in rows {
        let a = a.map(|v| format!("a{v}"));
        let b = b.map(|v| format!("b{v}"));
        let x = x.map(|v| format!("{}", f64::from(v) / 2.0));
        t.push_str_row(&[a.as_deref(), b.as_deref(), x.as_deref()]);
    }
    t
}

/// Deterministic features of both signs.
fn features(n: usize, salt: u32) -> Tensor {
    let data = (0..n * IN_DIM)
        .map(|i| {
            let h = (i as u32 ^ salt).wrapping_mul(2_654_435_761);
            (h >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect();
    Tensor::from_vec(n, IN_DIM, data)
}

/// Bits of the embeddings of `rows`, and of every parameter gradient of
/// `Σ g²` over the gathered `pick` nodes (each cell node, some twice).
type PassBits = (Vec<u32>, Vec<Option<Vec<u32>>>);

struct Case<'a> {
    graph: &'a TableGraph,
    lists: Option<&'a [Vec<Vec<u32>>]>,
    cfg: GnnConfig,
    backend: BackendKind,
    x: &'a Tensor,
    pick: &'a [u32],
}

fn pass(case: &Case<'_>, restrict_to: Option<Range<usize>>) -> PassBits {
    let mut rng = StdRng::seed_from_u64(11);
    let mut tape = Tape::new();
    tape.set_backend(case.backend);
    let mut sage = HeteroSage::new(&mut tape, case.graph, IN_DIM, case.cfg, &mut rng);
    if let Some(lists) = case.lists {
        sage.rebind_lists(lists);
    }
    tape.freeze();
    let x = tape.input(case.x.clone());
    let readout = readout_rows(case.graph);
    let (h, first) = match restrict_to {
        Some(rows) => (sage.forward_rows(&mut tape, x, rows.clone()), rows.start),
        None => (sage.forward(&mut tape, x), 0),
    };
    let idx = case.pick.iter().map(|&node| node - first as u32).collect();
    let g = tape.gather_rows(h, Arc::new(idx));
    let sq = tape.mul_elem(g, g);
    let loss = tape.sum_all(sq);
    tape.backward(loss);
    let value = tape.value(h);
    let rows = readout.start - first..readout.end - first;
    let out = value.as_slice()[rows.start * value.cols()..rows.end * value.cols()]
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let grads = (0..tape.param_count())
        .map(|i| {
            tape.grad(Var::from_index(i))
                .map(|gr| gr.as_slice().iter().map(|v| v.to_bits()).collect())
        })
        .collect();
    (out, grads)
}

const OPERATORS: [OperatorAssignment; 3] = [
    OperatorAssignment::AllSage,
    OperatorAssignment::AllGcn,
    OperatorAssignment::Alternating,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restricted_forward_matches_the_all_rows_pass(
        rows in arb_rows(),
        layers in 1usize..4,
        op in 0usize..3,
        fanout in 1usize..4,
        salt in 0u32..1000,
    ) {
        let cfg = GnnConfig {
            layers,
            hidden: 6,
            operator: OPERATORS[op],
            ..Default::default()
        };
        // Every residue of the row count mod 4, from the same rows.
        for cut in 0..GEMM_K_BLOCK {
            let table = table_of(&rows[..rows.len() - cut]);
            let graph = TableGraph::build(&table, GraphConfig::default(), &[]);
            let readout = readout_rows(&graph);
            let cells = graph.n_nodes() - graph.n_rids();
            prop_assert_eq!(readout.start % GEMM_K_BLOCK, 0);
            prop_assert_eq!(readout.end, graph.n_nodes());
            // the cell nodes plus fewer than GEMM_K_BLOCK alignment rows;
            // never empty, so masked slots always have a row to point at
            prop_assert!(!readout.is_empty());
            prop_assert!(cells == 0 || readout.len() - cells < GEMM_K_BLOCK);
            let cell_nodes: Vec<u32> = (graph.n_rids() as u32..graph.n_nodes() as u32).collect();
            let pick: Vec<u32> =
                cell_nodes.iter().chain(cell_nodes.iter().step_by(2)).copied().collect();
            let x = features(graph.n_nodes(), salt);
            let mut sampler = NeighborSampler::new(&graph, u64::from(salt), fanout);
            sampler.sample_epoch(u64::from(salt % 3));
            for lists in [None, Some(sampler.lists())] {
                for backend in [BackendKind::Serial, BackendKind::Parallel { threads: 3 }] {
                    let case = Case { graph: &graph, lists, cfg, backend, x: &x, pick: &pick };
                    let full = pass(&case, None);
                    let restricted = pass(&case, Some(readout.clone()));
                    prop_assert_eq!(
                        &restricted.0, &full.0,
                        "embeddings: {} rows, {:?}, sampled {}", table.n_rows(), backend, lists.is_some()
                    );
                    prop_assert_eq!(
                        &restricted.1, &full.1,
                        "gradients: {} rows, {:?}, sampled {}", table.n_rows(), backend, lists.is_some()
                    );
                }
            }
        }
    }
}

#[test]
fn forward_is_the_restricted_forward_over_every_row() {
    let table = table_of(&[
        (Some(0), Some(1), Some(2)),
        (Some(0), None, Some(-1)),
        (Some(3), Some(1), None),
    ]);
    let graph = TableGraph::build(&table, GraphConfig::default(), &[]);
    let run = |all: bool| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut tape = Tape::new();
        let sage = HeteroSage::new(&mut tape, &graph, IN_DIM, GnnConfig::default(), &mut rng);
        tape.freeze();
        let x = tape.input(features(graph.n_nodes(), 7));
        let h = if all {
            sage.forward_rows(&mut tape, x, 0..graph.n_nodes())
        } else {
            sage.forward(&mut tape, x)
        };
        tape.value(h).clone()
    };
    assert_eq!(run(true), run(false));
}
