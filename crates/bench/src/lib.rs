//! # grimp-bench
//!
//! The experiment harness regenerating every table and figure of the GRIMP
//! paper. Each `src/bin/*` binary reproduces one artifact (see DESIGN.md §4
//! for the full index); this library holds the shared machinery: dataset
//! preparation, the algorithm roster, per-cell experiment execution, result
//! accumulation and table/CSV rendering.
//!
//! ## Profiles
//!
//! The full published grid (10 datasets up to 5 000 rows × 3 missingness
//! levels × 8+ algorithms, 300-epoch GRIMP) is sized for a multi-day
//! campaign. Binaries therefore run a **standard** profile by default
//! (row-capped datasets, `GrimpConfig::fast()`), switchable via env vars:
//!
//! - `GRIMP_PROFILE=quick` — smoke profile (tiny row caps, few epochs);
//! - `GRIMP_PROFILE=full`  — the paper's full sizes and epoch budget.
//!
//! Every binary prints its active profile so recorded results are
//! self-describing, and writes machine-readable CSV under
//! `target/experiments/`.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp::{GnnMc, GrimpConfig, KStrategy, Pipeline};
use grimp_baselines::{
    AimNetConfig, AimNetLike, DataWigConfig, DataWigLike, EmbdiMc, EmbdiMcConfig, FdRepair, Gain,
    GainConfig, KnnImputer, MeanMode, Mice, MiceConfig, Mida, MidaConfig, MissForest,
    MissForestConfig, TurlConfig, TurlSub,
};
use grimp_datasets::{generate, Dataset, DatasetId};
use grimp_graph::FeatureSource;
use grimp_metrics::{evaluate, EvalResult};
use grimp_table::{inject_mcar, CorruptionLog, FdSet, Imputer, Schema, Table};

/// The paper's three missingness proportions.
pub const ERROR_RATES: [f64; 3] = [0.05, 0.20, 0.50];

/// Execution profile controlling dataset sizes and training budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Smoke test: tiny row caps, minimal epochs.
    Quick,
    /// Default: row-capped datasets with `GrimpConfig::fast()` shapes.
    Standard,
    /// The paper's full sizes and `GrimpConfig::paper()` budgets.
    Full,
}

impl Profile {
    /// Read the profile from `GRIMP_PROFILE` (default: standard).
    pub fn from_env() -> Profile {
        match std::env::var("GRIMP_PROFILE").as_deref() {
            Ok("quick") => Profile::Quick,
            Ok("full") => Profile::Full,
            _ => Profile::Standard,
        }
    }

    /// Row cap applied to generated datasets (`None` = full size).
    pub fn row_cap(self) -> Option<usize> {
        match self {
            Profile::Quick => Some(160),
            Profile::Standard => Some(500),
            Profile::Full => None,
        }
    }

    /// GRIMP configuration for this profile.
    pub fn grimp_config(self) -> GrimpConfig {
        match self {
            Profile::Quick => GrimpConfig {
                feature_dim: 16,
                gnn: grimp_gnn::GnnConfig {
                    layers: 2,
                    hidden: 16,
                    ..Default::default()
                },
                merge_hidden: 32,
                embed_dim: 16,
                max_epochs: 15,
                patience: 5,
                max_train_samples_per_task: Some(300),
                ..GrimpConfig::fast()
            },
            Profile::Standard => GrimpConfig {
                max_epochs: 80,
                ..GrimpConfig::fast()
            },
            Profile::Full => GrimpConfig::paper(),
        }
    }

    /// This profile's GRIMP configuration with `seed`, changed by `f`, as
    /// an [`Imputer`]: a [`Pipeline`] fits and imputes in one call.
    pub fn grimp(self, seed: u64, f: impl FnOnce(&mut GrimpConfig)) -> Pipeline {
        let mut config = GrimpConfig {
            seed,
            ..self.grimp_config()
        };
        f(&mut config);
        Pipeline::new(config).expect("a valid GRIMP configuration")
    }

    /// Label for output headers.
    pub fn label(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Standard => "standard",
            Profile::Full => "full",
        }
    }

    /// Epoch budgets for the neural baselines.
    pub fn baseline_epochs(self) -> usize {
        match self {
            Profile::Quick => 20,
            Profile::Standard => 50,
            Profile::Full => 150,
        }
    }
}

/// A dataset prepared for one experiment run.
pub struct Prepared {
    /// Dataset identity.
    pub id: DatasetId,
    /// Abbreviation for table rows.
    pub abbr: &'static str,
    /// The (possibly row-capped) clean table.
    pub clean: Table,
    /// Declared FDs.
    pub fds: FdSet,
}

/// Generate and row-cap a dataset for the given profile.
pub fn prepare(id: DatasetId, profile: Profile, seed: u64) -> Prepared {
    let Dataset {
        abbr, table, fds, ..
    } = generate(id, seed);
    let clean = match profile.row_cap() {
        Some(cap) if cap < table.n_rows() => truncate_rows(&table, cap),
        _ => table,
    };
    Prepared {
        id,
        abbr,
        clean,
        fds,
    }
}

fn truncate_rows(table: &Table, cap: usize) -> Table {
    let schema: Schema = table.schema().clone();
    let mut out = Table::empty(schema);
    for i in 0..cap {
        let row: Vec<grimp_table::Value> = (0..table.n_columns())
            .map(|j| match table.get(i, j) {
                grimp_table::Value::Cat(_) => {
                    // re-intern to keep dictionaries minimal after the cut
                    let code = out.intern(j, &table.display(i, j));
                    grimp_table::Value::Cat(code)
                }
                v => v,
            })
            .collect();
        out.push_value_row(&row);
    }
    out
}

/// One corrupted instance: the dirty table and its ground-truth log.
pub struct Instance {
    /// The dirty table handed to every algorithm.
    pub dirty: Table,
    /// Ground truth of the injected cells.
    pub log: CorruptionLog,
}

/// Corrupt a prepared dataset at `rate` MCAR (deterministic per seed).
pub fn corrupt(prepared: &Prepared, rate: f64, seed: u64) -> Instance {
    let mut dirty = prepared.clean.clone();
    let log = inject_mcar(&mut dirty, rate, &mut StdRng::seed_from_u64(seed));
    Instance { dirty, log }
}

/// The algorithm roster of Figures 8–9 (GRIMP variants + published
/// baselines).
pub fn fig8_algorithms(profile: Profile, seed: u64) -> Vec<Box<dyn Imputer>> {
    let epochs = profile.baseline_epochs();
    vec![
        Box::new(profile.grimp(seed, |c| c.features = FeatureSource::FastText)),
        Box::new(profile.grimp(seed, |c| c.features = FeatureSource::Embdi)),
        Box::new(MissForest::new(MissForestConfig {
            seed,
            ..Default::default()
        })),
        Box::new(AimNetLike::new(AimNetConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        Box::new(TurlSub::new(TurlConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        Box::new(EmbdiMc::new(EmbdiMcConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        Box::new(DataWigLike::new(DataWigConfig {
            epochs,
            seed,
            ..Default::default()
        })),
    ]
}

/// Extra classical references (not plotted in the paper's figures but part
/// of this reproduction's wider roster).
pub fn reference_algorithms(seed: u64) -> Vec<Box<dyn Imputer>> {
    vec![
        Box::new(MeanMode),
        Box::new(KnnImputer::new(5)),
        Box::new(Mice::new(MiceConfig {
            seed,
            ..Default::default()
        })),
        Box::new(Mida::new(MidaConfig {
            seed,
            ..Default::default()
        })),
        Box::new(Gain::new(GainConfig {
            seed,
            ..Default::default()
        })),
    ]
}

/// The Table 3 roster: FD-REPAIR, MissForest, FUNFOREST, GRIMP-A.
pub fn tab3_algorithms(profile: Profile, seed: u64, fds: &FdSet) -> Vec<Box<dyn Imputer>> {
    let grimp_a = profile
        .grimp(seed, |c| c.k_strategy = KStrategy::WeakDiagonalFd)
        .with_fds(fds.clone());
    vec![
        Box::new(FdRepair::new(fds.clone())),
        Box::new(MissForest::new(MissForestConfig {
            seed,
            ..Default::default()
        })),
        Box::new(MissForest::funforest(
            MissForestConfig {
                seed,
                ..Default::default()
            },
            fds.clone(),
        )),
        Box::new(grimp_a),
    ]
}

/// The Fig. 10 ablation roster: GRIMP-MT (full), GNN-MC, EmbDI-MC.
pub fn fig10_algorithms(profile: Profile, seed: u64) -> Vec<(String, Box<dyn Imputer>)> {
    let grimp_mt = profile.grimp(seed, |c| c.features = FeatureSource::Embdi);
    let base = grimp_mt.config().clone();
    let epochs = profile.baseline_epochs();
    vec![
        (
            "GRIMP-MT".to_string(),
            Box::new(grimp_mt) as Box<dyn Imputer>,
        ),
        ("GNN-MC".to_string(), Box::new(GnnMc::new(base))),
        (
            "EmbDI-MC".to_string(),
            Box::new(EmbdiMc::new(EmbdiMcConfig {
                epochs,
                seed,
                ..Default::default()
            })),
        ),
    ]
}

/// Result of one (dataset, algorithm, rate) cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Dataset abbreviation.
    pub dataset: &'static str,
    /// Missingness rate.
    pub rate: f64,
    /// Quality metrics.
    pub eval: EvalResult,
    /// Wall-clock seconds of the `impute` call.
    pub seconds: f64,
}

/// Run one algorithm on one corrupted instance.
pub fn run_cell(
    prepared: &Prepared,
    instance: &Instance,
    algorithm: &mut dyn Imputer,
    rate: f64,
) -> CellResult {
    let start = Instant::now();
    let imputed = algorithm.impute(&instance.dirty);
    let seconds = start.elapsed().as_secs_f64();
    let eval = evaluate(&prepared.clean, &imputed, &instance.log);
    CellResult {
        algorithm: algorithm.name().to_string(),
        dataset: prepared.abbr,
        rate,
        eval,
        seconds,
    }
}

/// Fixed-width table printer for experiment output.
pub struct TablePrinter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TablePrinter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

/// Write experiment results as CSV under `target/experiments/<name>.csv`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create experiments dir");
    let path = dir.join(format!("{name}.csv"));
    let mut text = String::new();
    let _ = writeln!(text, "{}", header.join(","));
    for row in rows {
        let _ = writeln!(text, "{}", row.join(","));
    }
    fs::write(&path, text).expect("write experiment csv");
    path
}

/// Format an optional metric.
pub fn fmt_opt(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(v) => format!("{v:.digits$}"),
        None => "-".to_string(),
    }
}

/// Standard experiment banner.
pub fn banner(what: &str, profile: Profile) {
    println!("== {what} ==");
    println!(
        "profile: {} (row cap {:?}); set GRIMP_PROFILE=quick|standard|full to change",
        profile.label(),
        profile.row_cap()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_from_env_defaults_to_standard() {
        // no env manipulation (tests run in parallel): default path only
        if std::env::var("GRIMP_PROFILE").is_err() {
            assert_eq!(Profile::from_env(), Profile::Standard);
        }
    }

    #[test]
    fn prepare_respects_row_cap() {
        let p = prepare(DatasetId::Tax, Profile::Quick, 0);
        assert_eq!(p.clean.n_rows(), 160);
        assert_eq!(p.clean.n_columns(), 12);
        // FDs still hold on the truncated table
        for fd in &p.fds.fds {
            assert!(fd.holds_on(&p.clean));
        }
    }

    #[test]
    fn corrupt_is_deterministic() {
        let p = prepare(DatasetId::Mammogram, Profile::Quick, 1);
        let a = corrupt(&p, 0.2, 7);
        let b = corrupt(&p, 0.2, 7);
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.log.cells, b.log.cells);
    }

    #[test]
    fn run_cell_produces_complete_metrics() {
        let p = prepare(DatasetId::Mammogram, Profile::Quick, 2);
        let inst = corrupt(&p, 0.2, 3);
        let mut algo = MeanMode;
        let cell = run_cell(&p, &inst, &mut algo, 0.2);
        assert_eq!(cell.algorithm, "Mean/Mode");
        assert!(cell.eval.accuracy().is_some());
        assert!(cell.eval.rmse().is_some());
        assert!(cell.seconds >= 0.0);
    }

    #[test]
    fn table_printer_aligns_columns() {
        let mut t = TablePrinter::new(&["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn rosters_have_expected_sizes() {
        let fds = FdSet::empty();
        assert_eq!(fig8_algorithms(Profile::Quick, 0).len(), 7);
        assert_eq!(reference_algorithms(0).len(), 5);
        assert_eq!(tab3_algorithms(Profile::Quick, 0, &fds).len(), 4);
        assert_eq!(fig10_algorithms(Profile::Quick, 0).len(), 3);
    }
}
