//! Seeded input generators owned by the benchmark: the program under test
//! receives only what these produce, so a change inside the repository's
//! own generators can never alter a workload's inputs.

/// 64-bit LCG (Knuth's MMIX constants), high bits out. Every workload derives
/// its streams from `--seed` through [`Lcg::derive`].
#[derive(Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// An independent stream for `(seed, lane)`: per channel, per segment,
    /// per repeat.
    pub fn derive(seed: u64, lane: u64) -> Self {
        Lcg(splitmix(seed ^ splitmix(lane.wrapping_add(0x5EED))))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 37) as f64
    }
}

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Lcg) -> u64 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64
    }
}

/// The LBA-derived media pattern: block `lba` holds 64-bit words
/// `w0 + i * K`, `w0` mixed from the LBA and the run's salt, so a read that
/// lands the wrong block, a torn block, or a stale block all fail the check.
#[derive(Clone, Copy)]
pub struct Pattern {
    salt: u64,
}

const WORD_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

impl Pattern {
    pub fn new(seed: u64) -> Self {
        Pattern {
            salt: splitmix(seed ^ 0xB10C),
        }
    }

    pub fn fill(&self, lba: u64, block: &mut [u8]) {
        let w0 = splitmix(lba ^ self.salt);
        for (i, w) in block.chunks_exact_mut(8).enumerate() {
            w.copy_from_slice(
                &w0.wrapping_add((i as u64).wrapping_mul(WORD_STEP))
                    .to_le_bytes(),
            );
        }
    }

    pub fn matches(&self, lba: u64, block: &[u8]) -> bool {
        let w0 = splitmix(lba ^ self.salt);
        block.chunks_exact(8).enumerate().all(|(i, w)| {
            u64::from_le_bytes(w.try_into().expect("8-byte chunk"))
                == w0.wrapping_add((i as u64).wrapping_mul(WORD_STEP))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take8(mut rng: Lcg) -> Vec<u64> {
        (0..8).map(|_| rng.next()).collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_lanes() {
        assert_eq!(take8(Lcg::derive(7, 1)), take8(Lcg::derive(7, 1)));
        assert_ne!(take8(Lcg::derive(7, 1)), take8(Lcg::derive(7, 2)));
        assert_ne!(take8(Lcg::derive(7, 1)), take8(Lcg::derive(8, 1)));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1024, 1.1);
        let mut rng = Lcg::derive(3, 0);
        let draws: Vec<u64> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1024));
        let head = draws.iter().filter(|&&d| d < 8).count();
        assert!(head > draws.len() / 4, "top ranks dominate: {head}");
    }

    #[test]
    fn pattern_detects_a_wrong_block() {
        let p = Pattern::new(9);
        let mut blk = vec![0u8; 4096];
        p.fill(42, &mut blk);
        assert!(p.matches(42, &blk));
        assert!(!p.matches(43, &blk));
        blk[100] ^= 1;
        assert!(!p.matches(42, &blk));
    }
}
