//! Deterministic random distributions for workload and device models.
//!
//! The approved dependency set includes `rand` but not `rand_distr`, so the
//! one distribution the models need is implemented here: Zipf ranks
//! (rejection-inversion after Hörmann & Derflinger, as used by the `zipf`
//! crate and `rand_distr`). The sampler takes an explicit `Rng` so that
//! all experiments are seed-reproducible.

use rand::Rng;
use rand::SeedableRng;

/// Creates the crate's canonical deterministic RNG from a seed.
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Zipf distribution over ranks `1..=n` with exponent `s > 0`, sampled by
/// rejection-inversion (Hörmann & Derflinger 1996). O(1) per sample with no
/// table, so it scales to hundreds of millions of ranks (IGB-full nodes).
#[derive(Clone, Copy, Debug)]
pub struct Zipf {
    n: f64,
    exponent: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n`; `n >= 1`, `exponent > 0`.
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n >= 1, "n must be >= 1");
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "exponent must be > 0"
        );
        let nf = n as f64;
        let h_integral_x1 = h_integral(1.5, exponent) - 1.0;
        let h_integral_n = h_integral(nf + 0.5, exponent);
        let s = 2.0 - h_integral_inv(h_integral(2.5, exponent) - h(2.0, exponent), exponent);
        Zipf {
            n: nf,
            exponent,
            h_integral_x1,
            h_integral_n,
            s,
        }
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u: f64 =
                self.h_integral_n + rng.gen::<f64>() * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inv(u, self.exponent);
            let k = x.clamp(1.0, self.n).round().clamp(1.0, self.n);
            if k - x <= self.s || u >= h_integral(k + 0.5, self.exponent) - h(k, self.exponent) {
                return k as u64;
            }
        }
    }
}

fn h(x: f64, e: f64) -> f64 {
    (-e * x.ln()).exp()
}

/// `H(x) = ∫ h(t) dt`, continued analytically through `e = 1`.
fn h_integral(x: f64, e: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - e) * log_x) * log_x
}

fn h_integral_inv(x: f64, e: f64) -> f64 {
    let mut t = x * (1.0 - e);
    if t < -1.0 {
        // Rounding guard: H_inv is only called on values in H's range.
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `log1p(x)/x`, stable near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25))
    }
}

/// `expm1(x)/x`, stable near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + x * 0.25))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_in_range_and_skewed() {
        let mut rng = seeded_rng(17);
        let d = Zipf::new(1_000_000, 0.99);
        let mut top10 = 0u32;
        const N: u32 = 100_000;
        for _ in 0..N {
            let r = d.sample(&mut rng);
            assert!((1..=1_000_000).contains(&r));
            if r <= 10 {
                top10 += 1;
            }
        }
        // With s≈1 over 1e6 ranks, the top-10 ranks hold ~ H(10)/H(1e6) ≈ 20%
        // of the mass. Loose bounds to keep the test robust.
        let frac = top10 as f64 / N as f64;
        assert!(frac > 0.10 && frac < 0.35, "top-10 mass = {frac}");
    }

    #[test]
    fn zipf_exponent_one_matches_harmonic_head() {
        let mut rng = seeded_rng(19);
        let d = Zipf::new(1000, 1.0);
        let mut rank1 = 0u32;
        const N: u32 = 200_000;
        for _ in 0..N {
            if d.sample(&mut rng) == 1 {
                rank1 += 1;
            }
        }
        // P(rank 1) = 1 / H_1000 ≈ 1/7.485 ≈ 0.1336.
        let frac = rank1 as f64 / N as f64;
        assert!((frac - 0.1336).abs() < 0.01, "P(1) = {frac}");
    }

    #[test]
    fn zipf_degenerate_n1() {
        let mut rng = seeded_rng(23);
        let d = Zipf::new(1, 1.2);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = seeded_rng(42);
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = seeded_rng(42);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }
}
