//! Parity pins: the GNN-MC ablation and the FedAvg prototype must keep
//! producing exactly these outputs. Each pin fixes, on a fixed table and
//! seed, the imputed table (an FNV-1a digest of its CSV text) and the
//! bit patterns of every per-epoch (GNN-MC) or per-round (FedAvg) loss.
//!
//! A pin that fails means the training path changed numerically. If the
//! change is intended, record why in EXPERIMENTS.md before updating it.

use grimp::{FederatedConfig, FederatedGrimp, GnnMc, GrimpConfig};
use grimp_table::csv::to_csv_string;
use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two categorical columns in a functional relationship plus a numerical
/// column derived from them, with 15 % of the cells blanked.
fn pinned_table() -> Table {
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..60 {
        let a = format!("a{}", i % 4);
        let b = format!("b{}", i % 4);
        let x = format!("{}", (i % 4) as f64 * 10.0 + (i % 3) as f64);
        t.push_str_row(&[Some(&a), Some(&b), Some(&x)]);
    }
    inject_mcar(&mut t, 0.15, &mut StdRng::seed_from_u64(5));
    t
}

fn small_config() -> GrimpConfig {
    GrimpConfig {
        feature_dim: 8,
        gnn: grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 8,
            ..Default::default()
        },
        merge_hidden: 16,
        embed_dim: 8,
        max_epochs: 12,
        patience: 12,
        lr: 2e-2,
        seed: 3,
        ..GrimpConfig::fast()
    }
}

/// FNV-1a 64 of the table's CSV text.
fn digest(table: &Table) -> u64 {
    to_csv_string(table)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn gnn_mc_outputs_are_pinned() {
    let dirty = pinned_table();
    let mut model = GnnMc::new(small_config());
    let imputed = model.fit_impute(&dirty);
    check_imputation_contract(&dirty, &imputed).unwrap();
    let report = model.last_report().expect("a run happened");
    let train = bits(&report.train_losses());
    let val = bits(&report.val_losses());
    assert_eq!(digest(&imputed), GNN_MC_DIGEST);
    assert_eq!(train, GNN_MC_TRAIN);
    assert_eq!(val, GNN_MC_VAL);
}

#[test]
fn fedavg_outputs_are_pinned() {
    let dirty = pinned_table();
    let mut fed = FederatedGrimp::new(FederatedConfig {
        parties: 3,
        rounds: 4,
        local_epochs: 3,
        base: small_config(),
    });
    let imputed = fed.fit_impute(&dirty);
    check_imputation_contract(&dirty, &imputed).unwrap();
    let report = fed.last_report().expect("a run happened");
    let rounds = bits(&report.round_losses);
    assert_eq!(digest(&imputed), FEDAVG_DIGEST);
    assert_eq!(rounds, FEDAVG_ROUNDS);
    assert_eq!(report.rounds_run, 4);
    assert_eq!(report.params_per_round, FEDAVG_PARAMS);
}

const GNN_MC_DIGEST: u64 = 0xe417_fb8c_6dd2_29f0;
const GNN_MC_TRAIN: &[u32] = &[
    0x4041_9102,
    0x4035_7fc5,
    0x402a_034b,
    0x401a_9903,
    0x400a_684a,
    0x3ff6_130c,
    0x3fd3_c27e,
    0x3fb5_b04e,
    0x3f9c_ea4c,
    0x3f89_6c88,
    0x3f79_9f14,
    0x3f6a_78d7,
];
const GNN_MC_VAL: &[u32] = &[
    0x4041_fa6e,
    0x4036_affd,
    0x402c_dd70,
    0x4022_d75a,
    0x401c_d399,
    0x4019_b19e,
    0x400e_34fc,
    0x4003_a0d6,
    0x3ff4_83d5,
    0x3fe2_28f9,
    0x3fd2_b16b,
    0x3fcb_f5c0,
];
const FEDAVG_DIGEST: u64 = 0x0a38_26bc_bdbe_249f;
const FEDAVG_ROUNDS: &[u32] = &[0x4060_f1e9, 0x4071_33f9, 0x406c_3d71, 0x4065_07bf];
const FEDAVG_PARAMS: usize = 1249;
