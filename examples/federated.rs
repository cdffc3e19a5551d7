//! Federated imputation (paper §7 future work): three parties hold
//! disjoint shards of a table; only model weights are exchanged (FedAvg),
//! never rows. Compares the federated model against (a) a centralized
//! GRIMP that sees everything and (b) each party training alone.
//!
//! ```bash
//! cargo run --release --example federated
//! ```

use grimp::{FederatedConfig, FederatedGrimp, GrimpConfig, Pipeline};
use grimp_datasets::{generate, DatasetId};
use grimp_metrics::evaluate;
use grimp_table::{inject_mcar, Imputer, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn head(table: &Table, n: usize) -> Table {
    let mut out = Table::empty(Schema::clone(table.schema()));
    for i in 0..n.min(table.n_rows()) {
        let row: Vec<Value> = (0..table.n_columns())
            .map(|j| match table.get(i, j) {
                Value::Cat(_) => Value::Cat(out.intern(j, &table.display(i, j))),
                v => v,
            })
            .collect();
        out.push_value_row(&row);
    }
    out
}

fn main() {
    let clean = head(&generate(DatasetId::Contraceptive, 0).table, 450);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(1));
    println!(
        "{} rows across 3 parties, {} missing cells\n",
        clean.n_rows(),
        log.len()
    );

    let base = GrimpConfig {
        max_epochs: 40,
        patience: 40,
        seed: 0,
        ..GrimpConfig::fast()
    };

    // centralized reference: one model sees the whole table
    let mut central = Pipeline::new(base.clone()).expect("valid config");
    let central_acc = evaluate(&clean, &central.impute(&dirty), &log)
        .accuracy()
        .unwrap();

    // federated: 8 rounds x 5 local epochs, weights-only exchange
    let mut fed = FederatedGrimp::new(FederatedConfig {
        parties: 3,
        rounds: 8,
        local_epochs: 5,
        base: base.clone(),
    });
    let fed_imputed = fed.fit_impute(&dirty);
    let fed_acc = evaluate(&clean, &fed_imputed, &log).accuracy().unwrap();
    let report = fed.last_report().unwrap();

    // isolation baseline: party 0 trains alone on its third of the data
    let mut shard = Table::empty(Schema::clone(dirty.schema()));
    for j in 0..dirty.n_columns() {
        if dirty.schema().column(j).kind == grimp_table::ColumnKind::Categorical {
            for v in dirty.dictionary(j) {
                shard.intern(j, v);
            }
        }
    }
    for i in (0..dirty.n_rows()).step_by(3) {
        let row: Vec<Value> = (0..dirty.n_columns()).map(|j| dirty.get(i, j)).collect();
        shard.push_value_row(&row);
    }
    let mut lonely = Pipeline::new(base).expect("valid config");
    let lonely_imputed = lonely.impute(&shard);
    // evaluate party 0's shard cells only
    let mut correct = 0usize;
    let mut total = 0usize;
    for cell in log.cells.iter().filter(|c| c.row % 3 == 0) {
        if let Value::Cat(_) = cell.truth {
            total += 1;
            let local_row = cell.row / 3;
            if lonely_imputed.display(local_row, cell.col) == clean.display(cell.row, cell.col) {
                correct += 1;
            }
        }
    }
    let lonely_acc = correct as f64 / total.max(1) as f64;

    println!("centralized GRIMP accuracy:        {central_acc:.3}");
    println!(
        "federated GRIMP accuracy:          {fed_acc:.3}  ({} rounds, {} params/round exchanged)",
        report.rounds_run, report.params_per_round
    );
    println!("party-0 training alone (shard):    {lonely_acc:.3}");
    println!("\nfederation recovers most of the centralized accuracy without any");
    println!("party ever revealing a row — only weight vectors cross the wire.");
}
