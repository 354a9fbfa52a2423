//! A small deterministic pseudo-random number generator.
//!
//! The reproduction needs *bit-for-bit reproducible* experiments across
//! platforms, so instead of threading `rand`'s generics everywhere we use a
//! single, explicit splitmix64-based PRNG. (`rand` is still used at API
//! boundaries that want trait-based generators.)

/// Deterministic splitmix64 PRNG used for weight init, data synthesis and
/// shuffling.
///
/// Not cryptographically secure; statistically fine for ML workloads.
///
/// # Example
///
/// ```
/// use fluid_tensor::Prng;
/// let mut a = Prng::new(42);
/// let mut b = Prng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Prng {
    state: u64,
    /// Cached second Box-Muller output.
    spare_normal: Option<f64>,
}

impl Prng {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        let x = self.state;
        self.state = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        crate::codec::mix64(x)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform range is inverted: {lo} > {hi}");
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Modulo bias is negligible for n << 2^64.
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample via Box-Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0).
        let mut u1 = self.next_f64();
        while u1 <= f64::EPSILON {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation, as `f32`.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal() as f32
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Derives an independent generator for a labelled sub-stream.
    ///
    /// Useful to give each worker / layer / epoch its own stream without
    /// coupling their consumption order.
    pub fn fork(&mut self, label: u64) -> Prng {
        let s = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Prng::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Prng::new(3);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_in_range() {
        let mut rng = Prng::new(4);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
    }

    #[test]
    fn normal_mean_and_var_roughly_standard() {
        let mut rng = Prng::new(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Prng::new(6);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent_of_consumption() {
        let mut root1 = Prng::new(9);
        let mut fork_a = root1.fork(1);
        let seq_a: Vec<u64> = (0..5).map(|_| fork_a.next_u64()).collect();

        let mut root2 = Prng::new(9);
        let mut fork_b = root2.fork(1);
        let seq_b: Vec<u64> = (0..5).map(|_| fork_b.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Prng::new(10);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
