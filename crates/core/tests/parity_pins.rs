//! Parity pins: the GNN-MC ablation and the FedAvg prototype must keep
//! producing exactly these outputs. Each pin fixes, on a fixed table and
//! seed, the imputed table (an FNV-1a digest of its CSV text) and the
//! bit patterns of every per-epoch (GNN-MC) or per-round (FedAvg) loss.
//!
//! A pin that fails means the training path changed numerically. If the
//! change is intended, record why in EXPERIMENTS.md before updating it.

use grimp::{FederatedConfig, FederatedGrimp, GnnMc, GrimpConfig, Pipeline, SamplerConfig};
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

/// A deterministic mixed table of 2,003 rows — a count ≡ 3 (mod 4), so
/// the GNN's cell-node rows do not start on a 4-row boundary — with three
/// categorical columns (two in a functional relationship) and two
/// numerical ones, 10 % of the cells blanked.
fn sampled_table() -> Table {
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
        ("c", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
        ("y", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..2003usize {
        let a = format!("a{}", i % 7);
        let b = format!("b{}", (i % 7) / 2);
        let c = format!("c{}", (i * 5 + i / 3) % 11);
        let x = format!("{}", (i % 7) as f64 * 3.0 + (i % 5) as f64 * 0.5);
        let y = format!("{}", ((i * 37) % 101) as f64 / 4.0);
        t.push_str_row(&[Some(&a), Some(&b), Some(&c), Some(&x), Some(&y)]);
    }
    inject_mcar(&mut t, 0.1, &mut StdRng::seed_from_u64(9));
    t
}

/// Neighbor-sampled training with a batch smaller than every task's
/// sample pool, so each epoch refills every task's batch.
fn sampled_config(layers: usize) -> GrimpConfig {
    GrimpConfig {
        gnn: grimp_gnn::GnnConfig {
            layers,
            hidden: 8,
            ..Default::default()
        },
        max_epochs: 5,
        patience: 5,
        seed: 7,
        sampler: Some(SamplerConfig {
            batch_rows: 300,
            fanout: 4,
        }),
        ..small_config()
    }
}

/// The pins below were taken at the commit before the GNN computed its
/// last layer and the merge over the cell-node rows only: that change
/// must leave sampled training's numerics exactly where they were.
#[test]
fn sampled_fit_outputs_are_pinned() {
    let dirty = sampled_table();
    for (layers, pin) in [(1, &SAMPLED_1_LAYER), (2, &SAMPLED_2_LAYERS)] {
        let fitted = Pipeline::new(sampled_config(layers))
            .expect("valid config")
            .fit(&dirty)
            .expect("sampled fit");
        let report = fitted.report();
        assert_eq!(report.epochs.len(), 5, "{layers} layers: every epoch ran");
        let imputed = fitted.impute(&dirty).expect("transductive impute");
        check_imputation_contract(&dirty, &imputed).unwrap();
        assert_eq!(digest(&imputed), pin.digest, "{layers} layers: imputed CSV");
        assert_eq!(
            bits(&report.train_losses()),
            pin.train,
            "{layers} layers: train losses"
        );
        assert_eq!(
            bits(&report.val_losses()),
            pin.val,
            "{layers} layers: validation losses"
        );
    }
}

/// One sampled run's pins: the imputed CSV's digest and the bit patterns
/// of every per-epoch summed train and validation loss.
struct SampledPin {
    digest: u64,
    train: &'static [u32],
    val: &'static [u32],
}

const SAMPLED_1_LAYER: SampledPin = SampledPin {
    digest: 0xfd87_b09d_9f09_57aa,
    train: &[
        0x4107_b726,
        0x40f5_dd6a,
        0x40f8_1185,
        0x40f8_3056,
        0x40f5_fa58,
    ],
    val: &[
        0x4108_e600,
        0x40fa_113a,
        0x40fb_0e94,
        0x40f6_cc19,
        0x40f3_64c2,
    ],
};
const SAMPLED_2_LAYERS: SampledPin = SampledPin {
    digest: 0x1ca2_eccf_f5c7_9cb6,
    train: &[
        0x416d_da98,
        0x4106_544d,
        0x40f7_a64d,
        0x40f5_8d69,
        0x40f7_3276,
    ],
    val: &[
        0x4176_8b32,
        0x410a_9122,
        0x40f9_bbd1,
        0x40f8_a1da,
        0x40f7_be44,
    ],
};
