//! MIDA-style denoising-autoencoder imputation (Gondara & Wang, PAKDD
//! 2018 — cited as the paper's autoencoder representative \[23\]).
//!
//! Rows are encoded as dense vectors (z-scored numericals + frequency-
//! capped one-hot categoricals). An overcomplete autoencoder is trained to
//! reconstruct the *observed* entries from inputs corrupted by dropout
//! noise (the "denoising" part, which doubles as the model of
//! missingness); imputation reads the reconstruction at the missing slots
//! — argmax over a column's one-hot block for categoricals, de-normalized
//! value for numericals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grimp_table::{ColumnKind, Imputer, Normalizer, Table, Value};
use grimp_tensor::{Adam, Mlp, Tape, Tensor};

/// Cap on one-hot width per categorical column (most frequent first).
const MAX_ONE_HOT: usize = 30;

/// MIDA options.
#[derive(Clone, Copy, Debug)]
pub struct MidaConfig {
    /// Extra hidden units over the input width (MIDA's Θ; the original
    /// paper grows the encoder by 7 units per layer).
    pub overcomplete: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Input dropout probability of the denoising corruption.
    pub dropout: f64,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for MidaConfig {
    fn default() -> Self {
        MidaConfig {
            overcomplete: 8,
            epochs: 120,
            dropout: 0.5,
            lr: 0.01,
            seed: 0,
        }
    }
}

/// Encoding plan of one column within the dense row vector.
enum Slot {
    /// One numeric slot at this offset.
    Num { offset: usize },
    /// A one-hot block at `offset` with `codes[k]` occupying position `k`.
    Cat { offset: usize, codes: Vec<u32> },
}

/// The MIDA-like imputer.
pub struct Mida {
    config: MidaConfig,
}

impl Mida {
    /// Build with options.
    pub fn new(config: MidaConfig) -> Self {
        Mida { config }
    }

    fn plan(table: &Table) -> (Vec<Slot>, usize) {
        let mut slots = Vec::with_capacity(table.n_columns());
        let mut width = 0usize;
        for j in 0..table.n_columns() {
            match table.schema().column(j).kind {
                ColumnKind::Numerical => {
                    slots.push(Slot::Num { offset: width });
                    width += 1;
                }
                ColumnKind::Categorical => {
                    let counts = table.category_counts(j);
                    let mut codes: Vec<u32> = (0..counts.len() as u32).collect();
                    codes.sort_by_key(|&c| std::cmp::Reverse(counts[c as usize]));
                    codes.truncate(MAX_ONE_HOT);
                    slots.push(Slot::Cat {
                        offset: width,
                        codes: codes.clone(),
                    });
                    width += codes.len().max(1);
                }
            }
        }
        (slots, width)
    }

    /// Encode the table into `(matrix, observed-mask)`; missing entries are
    /// zero with a zero mask.
    fn encode(table: &Table, slots: &[Slot], width: usize) -> (Tensor, Tensor) {
        let n = table.n_rows();
        let mut x = Tensor::zeros(n, width);
        let mut mask = Tensor::zeros(n, width);
        for i in 0..n {
            for (j, slot) in slots.iter().enumerate() {
                match (slot, table.get(i, j)) {
                    (Slot::Num { offset }, Value::Num(v)) => {
                        x.set(i, *offset, v as f32);
                        mask.set(i, *offset, 1.0);
                    }
                    (Slot::Cat { offset, codes }, Value::Cat(c)) => {
                        // mark the whole block observed; set the hot slot
                        for k in 0..codes.len() {
                            mask.set(i, offset + k, 1.0);
                        }
                        if let Some(pos) = codes.iter().position(|&x| x == c) {
                            x.set(i, offset + pos, 1.0);
                        }
                    }
                    (_, Value::Null) => {}
                    (slot, v) => {
                        let _ = (slot, v);
                        unreachable!("slot kinds mirror column kinds")
                    }
                }
            }
        }
        (x, mask)
    }
}

impl Imputer for Mida {
    fn name(&self) -> &str {
        "MIDA"
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let normalizer = Normalizer::fit(dirty);
        let mut norm = dirty.clone();
        normalizer.apply(&mut norm);

        let (slots, width) = Self::plan(&norm);
        if width == 0 || norm.n_rows() == 0 {
            return dirty.clone();
        }
        let (x, observed) = Self::encode(&norm, &slots, width);

        // Overcomplete denoising autoencoder.
        let hidden = width + cfg.overcomplete;
        let mut tape = Tape::new();
        let model = Mlp::new(&mut tape, &[width, hidden, hidden, width], &mut rng);
        tape.freeze();
        let mut adam = Adam::new(cfg.lr);
        let n_cells = (x.rows() * x.cols()) as f32;
        for _ in 0..cfg.epochs {
            // fresh dropout corruption each epoch
            let mut corrupted = x.clone();
            for v in corrupted.as_mut_slice().iter_mut() {
                if rng.gen::<f64>() < cfg.dropout {
                    *v = 0.0;
                }
            }
            let xin = tape.input(corrupted);
            let out = model.forward(&mut tape, xin);
            // masked reconstruction MSE over observed entries
            let target = tape.input(x.clone());
            let diff = tape.sub(out, target);
            let m = tape.input(observed.clone());
            let masked = tape.mul_elem(diff, m);
            let sq = tape.mul_elem(masked, masked);
            let sum = tape.sum_all(sq);
            let loss = tape.scale(sum, 1.0 / n_cells);
            tape.backward(loss);
            adam.step(&mut tape);
            tape.reset();
        }

        // Reconstruct from the uncorrupted (but incomplete) input.
        let xin = tape.input(x.clone());
        let out = model.forward(&mut tape, xin);
        let recon = tape.value(out).clone();
        tape.reset();
        drop(tape);

        let mut result = dirty.clone();
        for (i, j) in norm.missing_cells() {
            match &slots[j] {
                Slot::Num { offset } => {
                    let z = f64::from(recon.get(i, *offset));
                    result.set(i, j, Value::Num(normalizer.inverse(j, z)));
                }
                Slot::Cat { offset, codes } => {
                    if codes.is_empty() {
                        continue;
                    }
                    let best = (0..codes.len())
                        .max_by(|&a, &b| {
                            recon
                                .get(i, offset + a)
                                .total_cmp(&recon.get(i, offset + b))
                        })
                        .expect("non-empty block");
                    result.set(i, j, Value::Cat(codes[best]));
                }
            }
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
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..n {
            let a = format!("a{}", i % 3);
            let b = format!("b{}", i % 3);
            let x = format!("{}", (i % 3) as f64 * 10.0);
            t.push_str_row(&[Some(&a), Some(&b), Some(&x)]);
        }
        t
    }

    #[test]
    fn mida_imputes_with_contract_and_learns() {
        let clean = functional_table(90);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut m = Mida::new(MidaConfig::default());
        let imputed = m.impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        let acc = correct as f64 / cat.len().max(1) as f64;
        assert!(acc > 0.5, "mida accuracy {acc}");
    }

    #[test]
    fn numeric_reconstruction_tracks_cluster_means() {
        let clean = functional_table(90);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let mut m = Mida::new(MidaConfig::default());
        let imputed = m.impute(&dirty);
        let num: Vec<_> = log.cells.iter().filter(|c| c.col == 2).collect();
        let rmse = (num
            .iter()
            .map(|c| {
                let t = c.truth.as_num().unwrap();
                let p = imputed.get(c.row, c.col).as_num().unwrap();
                (t - p) * (t - p)
            })
            .sum::<f64>()
            / num.len().max(1) as f64)
            .sqrt();
        assert!(rmse < 10.0, "mida rmse {rmse} (column std ~8)");
    }

    #[test]
    fn rare_values_beyond_the_one_hot_cap_fall_back_gracefully() {
        // a column with > MAX_ONE_HOT categories still round-trips
        let schema = Schema::from_pairs(&[
            ("wide", ColumnKind::Categorical),
            ("g", ColumnKind::Categorical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..80 {
            t.push_str_row(&[
                Some(&format!("v{}", i % 40)),
                Some(if i % 2 == 0 { "x" } else { "y" }),
            ]);
        }
        t.set(3, 0, Value::Null);
        let mut m = Mida::new(MidaConfig {
            epochs: 30,
            ..Default::default()
        });
        let imputed = m.impute(&t);
        // the imputation must come from the frequency-capped block
        assert!(imputed.display(3, 0).starts_with('v'));
        assert_eq!(imputed.n_missing(), 0);
    }
}
