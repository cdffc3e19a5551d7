//! GAIN-style adversarial imputation (Yoon, Jordon & van der Schaar, ICML
//! 2018 — the paper's GAN representative [54]), in the least-squares-GAN
//! formulation so the adversarial losses are expressible as masked MSE.
//!
//! Rows are encoded like MIDA's (z-scored numericals + capped one-hot
//! categoricals). A **generator** sees `(x ⊙ m, m)` — the data with missing
//! entries zeroed plus the observedness mask — and produces a completed
//! matrix; a **discriminator** sees the imputed matrix plus GAIN's *hint*
//! (the mask with a random subset of entries blanked to 0.5) and predicts,
//! per entry, whether it was observed or imputed. Training alternates
//! least-squares discriminator steps with generator steps that combine the
//! adversarial objective on missing entries and a reconstruction loss on
//! observed ones. The paper's taxonomy notes generative models "produce
//! numerical outputs, so categorical values must be coerced to values in
//! the active domain" — exactly what the argmax-decoding here does.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grimp_table::{ColumnKind, Imputer, Normalizer, Table, Value};
use grimp_tensor::{Adam, Mlp, Tape, Tensor};

/// Cap on one-hot width per categorical column.
const MAX_ONE_HOT: usize = 30;

/// GAIN options.
#[derive(Clone, Copy, Debug)]
pub struct GainConfig {
    /// Adversarial training iterations (each = 1 D step + 1 G step).
    pub iterations: usize,
    /// Reconstruction-loss weight α on observed entries.
    pub alpha: f32,
    /// Probability that a hint entry reveals the true mask bit.
    pub hint_rate: f64,
    /// Hidden width of both networks (defaults to twice the feature
    /// width).
    pub hidden: Option<usize>,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for GainConfig {
    fn default() -> Self {
        GainConfig {
            iterations: 300,
            alpha: 10.0,
            hint_rate: 0.9,
            hidden: None,
            lr: 0.01,
            seed: 0,
        }
    }
}

/// Encoding plan of one column (shared shape with the MIDA baseline).
enum Slot {
    Num { offset: usize },
    Cat { offset: usize, codes: Vec<u32> },
}

/// The GAIN-style imputer.
pub struct Gain {
    config: GainConfig,
}

impl Gain {
    /// Build with options.
    pub fn new(config: GainConfig) -> Self {
        Gain { config }
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
                        for k in 0..codes.len() {
                            mask.set(i, offset + k, 1.0);
                        }
                        if let Some(pos) = codes.iter().position(|&x| x == c) {
                            x.set(i, offset + pos, 1.0);
                        }
                    }
                    (_, Value::Null) => {}
                    _ => unreachable!("slot kinds mirror column kinds"),
                }
            }
        }
        (x, mask)
    }
}

impl Imputer for Gain {
    fn name(&self) -> &str {
        "GAIN"
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
        let (x, mask) = Self::encode(&norm, &slots, width);
        let hidden = cfg.hidden.unwrap_or((2 * width).max(16));
        let n_cells = (x.rows() * x.cols()) as f32;

        // Generator parameters first, then discriminator: step_range keys
        // off this layout.
        let mut tape = Tape::new();
        let generator = Mlp::new(&mut tape, &[2 * width, hidden, width], &mut rng);
        let g_params = tape.param_count();
        let discriminator = Mlp::new(&mut tape, &[2 * width, hidden, width], &mut rng);
        tape.freeze();
        let d_params = tape.param_count();
        let mut adam_g = Adam::new(cfg.lr);
        let mut adam_d = Adam::new(cfg.lr);

        // Constants reused across iterations.
        let x_masked = x.clone(); // missing entries are already 0
        let inv_mask = mask.map(|v| 1.0 - v);
        let mask_targets: Arc<Vec<f32>> = Arc::new(mask.as_slice().to_vec());

        // `input_mask` controls what the generator *sees*; the true `mask`
        // controls the pass-through. Hiding a random subset of observed
        // entries from the input (but keeping them in the reconstruction
        // target) turns every observed cell into a training signal for
        // imputation — the self-supervision that stabilizes GAIN on small
        // tables.
        let gen_forward = |tape: &mut Tape, gen: &Mlp, input_mask: &Tensor| {
            let mut x_in = x_masked.clone();
            for (v, &m) in x_in.as_mut_slice().iter_mut().zip(input_mask.as_slice()) {
                *v *= m;
            }
            let xin = tape.input(x_in);
            let min = tape.input(input_mask.clone());
            let gin = tape.concat_cols(&[xin, min]);
            let raw = gen.forward(tape, gin);
            // completed matrix: (truly) observed entries pass through,
            // missing entries come from the generator
            let mt = tape.input(mask.clone());
            let imt = tape.input(inv_mask.clone());
            let x_const = tape.input(x_masked.clone());
            let observed_part = tape.mul_elem(x_const, mt);
            let generated_part = tape.mul_elem(raw, imt);
            (tape.add(observed_part, generated_part), raw)
        };

        for _ in 0..cfg.iterations {
            // GAIN hint: reveal the true mask bit with probability
            // hint_rate, otherwise 0.5
            let mut hint = mask.clone();
            for v in hint.as_mut_slice().iter_mut() {
                if rng.gen::<f64>() >= cfg.hint_rate {
                    *v = 0.5;
                }
            }

            // per-iteration pseudo-missingness for the generator input
            let mut input_mask = mask.clone();
            for v in input_mask.as_mut_slice().iter_mut() {
                if *v == 1.0 && rng.gen::<f64>() < 0.2 {
                    *v = 0.0;
                }
            }

            // --- discriminator step (generator output detached) ---
            let completed_value = {
                let (completed, _) = gen_forward(&mut tape, &generator, &input_mask);
                let v = tape.value(completed).clone();
                tape.reset();
                v
            };
            {
                let comp = tape.input(completed_value.clone());
                let h = tape.input(hint.clone());
                let din = tape.concat_cols(&[comp, h]);
                let logits = discriminator.forward(&mut tape, din);
                let probs = tape.sigmoid(logits);
                let flat = tape.reshape(probs, x.rows() * x.cols(), 1);
                let loss = tape.mse_loss(flat, Arc::clone(&mask_targets));
                tape.backward(loss);
                adam_d.step_range(&mut tape, g_params..d_params);
                tape.reset();
            }

            // --- generator step (gradient flows through D, only G updates) ---
            {
                let (completed, raw) = gen_forward(&mut tape, &generator, &input_mask);
                let h = tape.input(hint.clone());
                let din = tape.concat_cols(&[completed, h]);
                let logits = discriminator.forward(&mut tape, din);
                let probs = tape.sigmoid(logits);
                // adversarial: push D's score on *missing* entries toward 1
                let imt = tape.input(inv_mask.clone());
                let fooled = tape.mul_elem(probs, imt);
                let diff = tape.sub(fooled, imt);
                let sq = tape.mul_elem(diff, diff);
                let adv_sum = tape.sum_all(sq);
                let adv = tape.scale(adv_sum, 1.0 / n_cells);
                // reconstruction on ALL observed entries — including those
                // hidden from the generator's input, which is where the
                // imputation skill comes from
                let target = tape.input(x.clone());
                let rec_diff = tape.sub(raw, target);
                let mt = tape.input(mask.clone());
                let rec_masked = tape.mul_elem(rec_diff, mt);
                let rec_sq = tape.mul_elem(rec_masked, rec_masked);
                let rec_sum = tape.sum_all(rec_sq);
                let rec = tape.scale(rec_sum, cfg.alpha / n_cells);
                let loss = tape.add(adv, rec);
                tape.backward(loss);
                adam_g.step_range(&mut tape, 0..g_params);
                tape.reset();
            }
        }

        // Decode the final completed matrix (full input visibility).
        let completed = {
            let (c, _) = gen_forward(&mut tape, &generator, &mask);
            let v = tape.value(c).clone();
            tape.reset();
            v
        };
        let mut result = dirty.clone();
        for (i, j) in norm.missing_cells() {
            match &slots[j] {
                Slot::Num { offset } => {
                    let z = f64::from(completed.get(i, *offset));
                    result.set(i, j, Value::Num(normalizer.inverse(j, z)));
                }
                Slot::Cat { offset, codes } => {
                    if codes.is_empty() {
                        continue;
                    }
                    let best = (0..codes.len())
                        .max_by(|&a, &b| {
                            completed
                                .get(i, offset + a)
                                .total_cmp(&completed.get(i, offset + b))
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
    fn gain_imputes_with_contract_and_learns() {
        let clean = functional_table(90);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut g = Gain::new(GainConfig::default());
        let imputed = g.impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        let acc = correct as f64 / cat.len().max(1) as f64;
        // must clearly beat the 1/3 chance floor. GANs are the weakest
        // family here by design — the paper's §1 observes exactly this
        // ("poor training results in non-convergence or mode collapse" on
        // mixed relational data), so near-discriminative accuracy is not
        // expected of GAIN.
        assert!(acc > 0.42, "gain accuracy {acc}");
    }

    #[test]
    fn categorical_outputs_are_coerced_to_the_active_domain() {
        // the paper's point about generative models: numerical outputs must
        // be coerced back to domain values — the decoder can only emit
        // dictionary codes
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.2, &mut StdRng::seed_from_u64(2));
        let mut g = Gain::new(GainConfig {
            iterations: 40,
            ..Default::default()
        });
        let imputed = g.impute(&dirty);
        for (i, j) in dirty.missing_cells() {
            if j < 2 {
                let v = imputed.display(i, j);
                let prefix = if j == 0 { "a" } else { "b" };
                assert!(v.starts_with(prefix), "out-of-domain value {v}");
            }
        }
    }

    #[test]
    fn adversarial_training_is_deterministic_per_seed() {
        let clean = functional_table(40);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(3));
        let cfg = GainConfig {
            iterations: 20,
            seed: 5,
            ..Default::default()
        };
        let a = Gain::new(cfg).impute(&dirty);
        let b = Gain::new(cfg).impute(&dirty);
        assert_eq!(a, b);
    }
}
