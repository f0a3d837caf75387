//! Seeded draws for the benchmark's inputs: a splitmix64 stream, a
//! Fisher–Yates shuffle and a zipf sampler.
//!
//! The benchmark owns these instead of borrowing the repository's RNG so
//! that a change to the program can never change the inputs it is
//! measured on. Each input family draws from its own stream
//! ([`Rng::stream`]), so adding a draw to one family leaves the others
//! untouched.

/// The splitmix64 finalizer.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for input family `salt` under run seed `seed`.
    #[must_use]
    pub fn stream(seed: u64, salt: u64) -> Self {
        Self(mix(seed ^ mix(salt)))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1/(k+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks (`n` ≥ 1).
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_salt() {
        let draw = |seed, salt| {
            let mut r = Rng::stream(seed, salt);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn zipf_draws_repeat_and_favour_low_ranks() {
        let z = Zipf::new(12, 1.0);
        let draws = |seed| {
            let mut r = Rng::stream(seed, 3);
            (0..4000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draws(11);
        assert_eq!(a, draws(11));
        assert_ne!(a, draws(12));
        let count = |rank| a.iter().filter(|&&k| k == rank).count();
        // Rank 0 carries 1/H(12) ≈ 32 % of the mass, rank 11 about 2.7 %.
        assert!((1100..1500).contains(&count(0)), "rank 0 drawn {} times", count(0));
        assert!(count(0) > 5 * count(11));
        assert!(a.iter().all(|&k| k < 12));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let perm = |seed| {
            let mut v: Vec<u32> = (0..24).collect();
            Rng::stream(seed, 5).shuffle(&mut v);
            v
        };
        let mut sorted = perm(1);
        assert_eq!(sorted, perm(1));
        assert_ne!(sorted, perm(2));
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }
}
