//! Inductive reuse and model introspection (paper §7 future work).
//!
//! Trains GRIMP once through a [`grimp::Pipeline`], then (1) imputes a
//! *fresh* table of unseen tuples with the same trained weights, (2) prints
//! each task's learned attention profile — functional dependencies show up
//! as concentrated attention — and (3) demonstrates the self-supervised
//! hyperparameter tuner.
//!
//! ```bash
//! cargo run --release --example inductive_reuse
//! ```

use grimp::{default_candidates, select_config, GrimpConfig, Pipeline, TunerConfig};
use grimp_datasets::{generate, DatasetId};
use grimp_metrics::evaluate;
use grimp_table::{inject_mcar, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn head(table: &Table, from: usize, n: usize) -> Table {
    let mut out = Table::empty(Schema::clone(table.schema()));
    for i in from..(from + n).min(table.n_rows()) {
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
    let tax = generate(DatasetId::Tax, 0);
    // disjoint train and deployment slices of the same distribution
    let train_clean = head(&tax.table, 0, 400);
    let deploy_clean = head(&tax.table, 400, 200);

    let mut train_dirty = train_clean.clone();
    inject_mcar(&mut train_dirty, 0.10, &mut StdRng::seed_from_u64(1));

    // 1. hyperparameter tuning on the self-supervised validation signal
    let base = GrimpConfig {
        seed: 0,
        ..GrimpConfig::fast()
    };
    let (best, probes) = select_config(
        &train_dirty,
        &tax.fds,
        &default_candidates(&base),
        TunerConfig {
            probe_epochs: 12,
            probe_patience: 4,
        },
    );
    println!("tuner probes (lower val loss is better):");
    for p in &probes {
        println!(
            "  {:<18} val_loss={:.3} ({} epochs, {:.1}s)",
            p.name, p.val_loss, p.epochs_run, p.seconds
        );
    }
    println!("selected: lr={}, {:?} tasks\n", best.lr, best.task_kind);

    // 2. train once, keep the model
    let model = Pipeline::new(best)
        .expect("the tuner selects a valid config")
        .with_fds(tax.fds.clone())
        .fit(&train_dirty)
        .expect("table has columns");
    println!(
        "trained {} epochs ({} weights)\n",
        model.report().epochs_run,
        model.report().n_weights
    );

    // 3. attention introspection: where does each task look?
    println!("attention profile (rows = imputed attribute, columns = attended attribute):");
    let profiles = model
        .attention_profile(&train_dirty, 100)
        .expect("the training table profiles");
    let names: Vec<&str> = train_clean
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    print!("{:<8}", "");
    for n in &names {
        print!("{n:>7}");
    }
    println!();
    for (j, profile) in profiles.iter().enumerate() {
        print!("{:<8}", names[j]);
        match profile {
            Some(p) => {
                for v in p {
                    print!("{v:>7.2}");
                }
            }
            None => print!("  (linear task)"),
        }
        println!();
    }

    // 4. impute the unseen deployment slice with the same model
    let mut deploy_dirty = deploy_clean.clone();
    let log = inject_mcar(&mut deploy_dirty, 0.15, &mut StdRng::seed_from_u64(2));
    let imputed = model
        .impute(&deploy_dirty)
        .expect("the deployment slice shares the training schema");
    let eval = evaluate(&deploy_clean, &imputed, &log);
    println!(
        "\nunseen-tuple imputation: accuracy={} rmse={} over {} test cells",
        eval.accuracy()
            .map(|a| format!("{a:.3}"))
            .unwrap_or_default(),
        eval.rmse().map(|r| format!("{r:.3}")).unwrap_or_default(),
        log.len()
    );
    println!("(no retraining happened — the GNN is inductive, features are hash-based)");
}
