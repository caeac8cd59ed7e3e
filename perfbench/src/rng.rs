//! Seeded randomness for workload generation. Everything a workload
//! asks LightDB to do is a pure function of the `--seed` argument.

/// SplitMix64's finaliser: a bijective 64-bit mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic hash of `(seed, parts...)`.
pub fn hash(seed: u64, parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(mix64(seed ^ 0x9E37_79B9_7F4A_7C15), |h, &p| {
            mix64(h ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
}

/// A uniform draw in `[0, 1)` from a hash value.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64 stream (for sequential draws inside one thread).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (unit(self.next_u64()) * n as f64) as usize % n.max(1)
    }
}

/// A Zipf distribution over ranks `0..n` with exponent `s`
/// (rank 0 most popular), sampled by inverting its CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over no ranks");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank a uniform draw `u` in `[0, 1)` maps to.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i + 1);
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_covers_all() {
        let z = Zipf::new(10, 1.0);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999), 9);
        let mut counts = [0usize; 10];
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            counts[z.rank(unit(rng.next_u64()))] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn permutations_are_seeded() {
        let a = permutation(1, 16);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(a, permutation(1, 16));
        assert_ne!(a, permutation(2, 16));
    }
}
