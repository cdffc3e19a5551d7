//! Property-based tests of the graph substrate: structural invariants of
//! the heterogeneous table graph and of the embedding generators, and the
//! code-keyed build against a string-keyed reference.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use grimp_graph::{
    train_embdi, value_key, EmbdiConfig, FastTextLike, GraphConfig, NodeLabel, TableGraph,
};
use grimp_obs::{names, EventKind, MemorySink, Trace};
use grimp_table::{ColumnKind, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A graph built the string-keyed way: every cell's value text formatted
/// and hashed, twice per cell. The code-keyed [`TableGraph::build`] must
/// reproduce its labels, edge lists and cell → node map exactly.
struct Reference {
    labels: Vec<NodeLabel>,
    edges: Vec<Vec<(u32, u32)>>,
    index: Vec<HashMap<String, u32>>,
}

fn reference_build(table: &Table, config: GraphConfig, excluded: &[(usize, usize)]) -> Reference {
    let (n_rows, n_cols) = (table.n_rows(), table.n_columns());
    let decimals = config.numeric_decimals;
    let mut labels: Vec<NodeLabel> = (0..n_rows).map(|i| NodeLabel::Rid(i as u32)).collect();
    let mut index: Vec<HashMap<String, u32>> = vec![HashMap::new(); n_cols];
    for (col, index) in index.iter_mut().enumerate() {
        let mut keys: Vec<String> = Vec::new();
        let mut counts: HashMap<String, usize> = HashMap::new();
        for row in 0..n_rows {
            let Some(key) = value_key(table, row, col, decimals) else {
                continue;
            };
            match counts.entry(key) {
                Entry::Occupied(mut e) => *e.get_mut() += 1,
                Entry::Vacant(e) => {
                    keys.push(e.key().clone());
                    e.insert(1);
                }
            }
        }
        if let Some(cap) = config.max_cells_per_column {
            if keys.len() > cap {
                let mut ranked: Vec<usize> = (0..keys.len()).collect();
                ranked.sort_by_key(|&i| (Reverse(counts[keys[i].as_str()]), i));
                ranked.truncate(cap);
                ranked.sort_unstable();
                keys = ranked.into_iter().map(|i| keys[i].clone()).collect();
            }
        }
        for key in keys {
            index.insert(key.clone(), labels.len() as u32);
            labels.push(NodeLabel::Cell {
                col: col as u32,
                text: key,
            });
        }
    }
    let excluded: HashSet<(usize, usize)> = excluded.iter().copied().collect();
    let mut edges = vec![Vec::new(); n_cols];
    for row in 0..n_rows {
        for (col, index) in index.iter().enumerate() {
            if excluded.contains(&(row, col)) {
                continue;
            }
            if let Some(key) = value_key(table, row, col, decimals) {
                if let Some(&cell) = index.get(&key) {
                    edges[col].push((row as u32, cell));
                }
            }
        }
    }
    Reference {
        labels,
        edges,
        index,
    }
}

/// Numerical values that print alike at 4 decimals (`-0.00001` and `-0.0`,
/// `1.00001` and `1.00002`, two NaN payloads) or are otherwise special.
fn alike_values() -> [f64; 9] {
    [
        -0.00001,
        -0.0,
        0.0,
        1.00001,
        1.00002,
        f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

fn arb_num_cell() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        3 => (0usize..9).prop_map(|i| Some(alike_values()[i])),
        2 => (-40i32..40).prop_map(|v| Some(v as f64 / 8.0)),
        1 => Just(None),
    ]
}

fn arb_cat_cell() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![
        4 => (0u32..6).prop_map(Some),
        1 => Just(None),
    ]
}

/// Two categorical and two numerical columns.
fn arb_mixed_table() -> impl Strategy<Value = Table> {
    proptest::collection::vec(
        (
            arb_cat_cell(),
            arb_num_cell(),
            arb_cat_cell(),
            arb_num_cell(),
        ),
        1..30,
    )
    .prop_map(|rows| {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
            ("b", ColumnKind::Categorical),
            ("y", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for (a, x, b, y) in rows {
            let a = a.map(|v| Value::Cat(t.intern(0, &format!("v{v}"))));
            let b = b.map(|v| Value::Cat(t.intern(2, &format!("v{v}"))));
            let cells = [a, x.map(Value::Num), b, y.map(Value::Num)];
            t.push_value_row(&cells.map(|c| c.unwrap_or(Value::Null)));
        }
        t
    })
}

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
                .filter_map(|i| value_key(&t, i, j, 4))
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
        let distinct_excluded: HashSet<(usize, usize)> = excluded.iter().copied().collect();
        prop_assert_eq!(full.n_edges(), pruned.n_edges() + distinct_excluded.len());
        // node sets identical (candidates must survive exclusion)
        prop_assert_eq!(full.n_nodes(), pruned.n_nodes());
    }

    #[test]
    fn code_keyed_build_matches_the_string_keyed_reference(
        t in arb_mixed_table(),
        cap in proptest::option::of(1usize..6),
        decimals in 0usize..6,
        picks in proptest::collection::vec((0usize..40, 0usize..6), 0..24),
    ) {
        // Out-of-range pairs (rows past the table, columns past 3) and
        // repeats of the first few pairs.
        let mut excluded = picks.clone();
        excluded.extend(picks.iter().take(4).copied());
        let config = GraphConfig { numeric_decimals: decimals, max_cells_per_column: cap };
        let reference = reference_build(&t, config, &excluded);
        let mut sink = MemorySink::new();
        let g = TableGraph::build_traced(&t, config, &excluded, &mut Trace::new(&mut sink));

        prop_assert_eq!(g.n_nodes(), reference.labels.len());
        for (n, label) in reference.labels.iter().enumerate() {
            prop_assert_eq!(g.label(n), label, "node {}", n);
        }
        for col in 0..t.n_columns() {
            prop_assert_eq!(&g.edges_of(col).pairs, &reference.edges[col], "column {}", col);
            prop_assert_eq!(g.n_column_cells(col), reference.index[col].len());
            for row in 0..t.n_rows() {
                let key = value_key(&t, row, col, decimals);
                let expected = key.as_ref().and_then(|k| reference.index[col].get(k).copied());
                prop_assert_eq!(g.node_of(row, col), expected, "cell ({}, {})", row, col);
                let via_text = key.as_ref().and_then(|k| g.cell_node(col, k));
                prop_assert_eq!(g.node_of(row, col), via_text, "cell ({}, {})", row, col);
            }
        }
        // One text made per distinct dictionary code and bit pattern.
        let distinct: usize = (0..t.n_columns()).map(|j| t.column(j).n_distinct()).sum();
        let keys: Vec<f64> = sink
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == names::GRAPH_KEYS)
            .map(|e| e.value)
            .collect();
        prop_assert_eq!(keys, vec![distinct as f64]);
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
