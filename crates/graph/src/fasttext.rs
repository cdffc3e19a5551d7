//! FastText-substitute pre-trained features: hashed character-n-gram
//! embeddings.
//!
//! The paper's GRIMP-FT variant initializes node features with FastText
//! vectors. Pre-trained FastText is unavailable offline, so we keep exactly
//! the mechanism that matters for imputation — *subword* composition, which
//! maps surface-similar strings (typos, shared prefixes/suffixes, numbers
//! with common digits) to nearby vectors — and drop the corpus pre-training:
//! each character n-gram (n ∈ 3..=5, plus the whole token with boundary
//! markers) hashes to a deterministic pseudo-random vector; a string's
//! embedding is the L2-normalized sum of its n-gram vectors. See DESIGN.md §3
//! for the substitution rationale.

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: turns a hash into a stream of pseudo-random u64s.
fn splitmix64_step(state: &mut u64) -> u64 {
    let r = grimp_obs::splitmix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    r
}

/// Accumulate the deterministic vector of one n-gram into `acc`.
fn add_ngram_vector(acc: &mut [f32], gram: &[u8], seed: u64) {
    let mut state = fnv1a(gram, seed);
    for slot in acc.iter_mut() {
        let r = splitmix64_step(&mut state);
        // map to roughly N(0, 1) via sum of two uniforms − 1 (cheap, smooth)
        let u1 = (r >> 32) as f32 / u32::MAX as f32;
        let u2 = (r & 0xffff_ffff) as f32 / u32::MAX as f32;
        *slot += u1 + u2 - 1.0;
    }
}

/// Hashed n-gram embedding generator.
#[derive(Clone, Copy, Debug)]
pub struct FastTextLike {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Hash seed; different seeds give independent embedding spaces.
    pub seed: u64,
}

impl FastTextLike {
    /// A generator with the given dimensionality and seed.
    pub fn new(dim: usize, seed: u64) -> Self {
        FastTextLike { dim, seed }
    }

    /// Embed one token. Deterministic in `(text, dim, seed)`.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        // boundary-marked token, as FastText does with `<word>`
        let marked: Vec<u8> = format!("<{text}>").into_bytes();
        add_ngram_vector(&mut acc, &marked, self.seed);
        for n in 3..=5usize {
            if marked.len() < n {
                break;
            }
            for gram in marked.windows(n) {
                add_ngram_vector(&mut acc, gram, self.seed);
            }
        }
        l2_normalize(&mut acc);
        acc
    }

    /// Cosine similarity of two embedded tokens.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        let va = self.embed(a);
        let vb = self.embed(b);
        va.iter().zip(&vb).map(|(&x, &y)| x * y).sum()
    }
}

/// Normalize a vector to unit L2 norm in place (no-op on the zero vector).
pub fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_deterministic() {
        let ft = FastTextLike::new(32, 7);
        assert_eq!(ft.embed("France"), ft.embed("France"));
    }

    #[test]
    fn different_seeds_give_different_spaces() {
        let a = FastTextLike::new(32, 1).embed("France");
        let b = FastTextLike::new(32, 2).embed("France");
        assert_ne!(a, b);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let ft = FastTextLike::new(64, 0);
        for word in ["a", "hello", "12345.678", ""] {
            let v = ft.embed(word);
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5, "norm of {word:?} = {norm}");
        }
    }

    #[test]
    fn typo_stays_closer_than_unrelated_word() {
        // the property the typo-robustness experiment relies on
        let ft = FastTextLike::new(64, 0);
        let typo_sim = ft.similarity("imputation", "imputaxtion");
        let unrelated_sim = ft.similarity("imputation", "zebra");
        assert!(
            typo_sim > unrelated_sim + 0.2,
            "typo sim {typo_sim} vs unrelated {unrelated_sim}"
        );
    }

    #[test]
    fn shared_digits_make_numbers_similar() {
        let ft = FastTextLike::new(64, 0);
        let near = ft.similarity("2015.0000", "2014.0000");
        let far = ft.similarity("2015.0000", "7.5000");
        assert!(near > far, "near {near} far {far}");
    }
}
