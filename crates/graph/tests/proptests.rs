//! Property-based tests of the graph substrate: structural invariants of
//! the heterogeneous table graph and of the embedding generators.

use grimp_graph::{train_embdi, EmbdiConfig, FastTextLike, GraphConfig, NodeLabel, TableGraph};
use grimp_table::{ColumnKind, Schema, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_table() -> impl Strategy<Value = Table> {
    let cell = prop_oneof![
        4 => (0u32..6).prop_map(Some),
        1 => Just(None),
    ];
    proptest::collection::vec(
        (cell.clone(), cell, proptest::option::of(-50i32..50)),
        1..30,
    )
    .prop_map(|rows| {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for (a, b, x) in rows {
            let a = a.map(|v| format!("a{v}"));
            let b = b.map(|v| format!("b{v}"));
            let x = x.map(|v| format!("{}", v as f64 / 2.0));
            t.push_str_row(&[a.as_deref(), b.as_deref(), x.as_deref()]);
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn graph_structure_invariants(t in arb_table()) {
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        // node layout: RIDs first
        prop_assert_eq!(g.n_rids(), t.n_rows());
        for i in 0..g.n_rids() {
            prop_assert!(matches!(g.label(i), NodeLabel::Rid(r) if *r as usize == i));
        }
        // edge count = non-missing cells
        let non_missing = t.n_rows() * t.n_columns() - t.n_missing();
        prop_assert_eq!(g.n_edges(), non_missing);
        // every edge references a valid RID and a cell node of its own type
        for ty in 0..g.n_edge_types() {
            for &(rid, cell) in &g.edges_of(ty).pairs {
                prop_assert!((rid as usize) < g.n_rids());
                match g.label(cell as usize) {
                    NodeLabel::Cell { col, .. } => prop_assert_eq!(*col as usize, ty),
                    _ => prop_assert!(false, "edge target is not a cell node"),
                }
            }
        }
    }

    #[test]
    fn cell_nodes_are_unique_per_column_value(t in arb_table()) {
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        // distinct cell-node count per column equals the column's distinct
        // (canonicalized) value count
        for j in 0..t.n_columns() {
            let mut keys: Vec<String> = (0..t.n_rows())
                .filter_map(|i| grimp_graph::value_key(&t, i, j, 4))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(g.n_column_cells(j), keys.len());
        }
    }

    #[test]
    fn excluding_cells_only_removes_their_edges(t in arb_table(), sel in proptest::collection::vec((0usize..30, 0usize..3), 0..8)) {
        let excluded: Vec<(usize, usize)> = sel
            .into_iter()
            .filter(|&(i, j)| i < t.n_rows() && j < t.n_columns() && !t.is_missing(i, j))
            .collect();
        let full = TableGraph::build(&t, GraphConfig::default(), &[]);
        let pruned = TableGraph::build(&t, GraphConfig::default(), &excluded);
        let distinct_excluded: std::collections::HashSet<(usize, usize)> =
            excluded.iter().copied().collect();
        prop_assert_eq!(full.n_edges(), pruned.n_edges() + distinct_excluded.len());
        // node sets identical (candidates must survive exclusion)
        prop_assert_eq!(full.n_nodes(), pruned.n_nodes());
    }

    #[test]
    fn fasttext_is_deterministic_and_normalized(word in "[a-z0-9]{1,12}", dim in 4usize..64, seed in 0u64..50) {
        let ft = FastTextLike::new(dim, seed);
        let a = ft.embed(&word);
        let b = ft.embed(&word);
        prop_assert_eq!(&a, &b);
        let norm: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn embdi_vectors_are_finite_unit_or_zero(t in arb_table(), seed in 0u64..20) {
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let cfg = EmbdiConfig { walks_per_node: 2, walk_length: 6, epochs: 1, ..Default::default() };
        let emb = train_embdi(&g, &t, &cfg, &mut StdRng::seed_from_u64(seed));
        for n in 0..g.n_nodes() {
            let v = emb.node(n);
            prop_assert!(v.iter().all(|x| x.is_finite()));
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            // unit (trained) or zero (isolated node never visited)
            prop_assert!(norm < 1.0 + 1e-3, "norm {}", norm);
        }
    }
}
