//! Small neural-network building blocks over the autodiff tape.

use rand::Rng;

use crate::init::xavier_uniform;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// A fully connected layer `x · W + b`.
#[derive(Clone, Copy, Debug)]
pub struct Dense {
    w: Var,
    b: Var,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Register a new dense layer's parameters on `tape`.
    pub fn new(tape: &mut Tape, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = tape.param(xavier_uniform(in_dim, out_dim, rng));
        let b = tape.param(Tensor::zeros(1, out_dim));
        Dense {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Apply the layer to a batch `x` of shape `N × in_dim`.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        debug_assert_eq!(
            tape.value(x).cols(),
            self.in_dim,
            "Dense input width mismatch"
        );
        let xw = tape.matmul(x, self.w);
        tape.add_row_broadcast(xw, self.b)
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight and bias handles (for parameter counting and inspection).
    pub fn params(&self) -> [Var; 2] {
        [self.w, self.b]
    }

    /// Number of scalar parameters (`in·out + out`).
    pub fn n_params(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }
}

/// A stack of dense layers with ReLU activations between them (not after the
/// last layer).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `[in, hidden, out]`.
    ///
    /// # Panics
    /// Panics when fewer than two widths are given.
    pub fn new(tape: &mut Tape, widths: &[usize], rng: &mut impl Rng) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Dense::new(tape, w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Forward pass.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, h);
            if i + 1 < self.layers.len() {
                h = tape.relu(h);
            }
        }
        h
    }

    /// The constituent layers.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Number of scalar parameters.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Dense::n_params).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn dense_forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let layer = Dense::new(&mut tape, 4, 3, &mut rng);
        tape.freeze();
        let x = tape.input(Tensor::zeros(5, 4));
        let y = layer.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
    }

    #[test]
    fn mlp_learns_xor_style_separation() {
        // Tiny sanity check that the whole stack (mlp + ce + adam) can fit a
        // non-linearly separable function.
        use crate::optim::Adam;
        let mut rng = StdRng::seed_from_u64(3);
        let mut tape = Tape::new();
        let mlp = Mlp::new(&mut tape, &[2, 16, 2], &mut rng);
        tape.freeze();
        let mut adam = Adam::new(0.05);
        let xs = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Arc::new(vec![0u32, 1, 1, 0]);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let x = tape.input(xs.clone());
            let logits = mlp.forward(&mut tape, x);
            let loss = tape.softmax_cross_entropy(logits, ys.clone());
            last = tape.value(loss).item();
            tape.backward(loss);
            adam.step(&mut tape);
            tape.reset();
        }
        assert!(last < 0.1, "xor loss did not converge: {last}");
    }

    #[test]
    fn n_params_counts_weights_and_biases() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let mlp = Mlp::new(&mut tape, &[4, 8, 2], &mut rng);
        assert_eq!(mlp.n_params(), 4 * 8 + 8 + 8 * 2 + 2);
    }
}
