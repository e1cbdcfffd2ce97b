//! The discrete truncated Zipf distribution of §5.6 and the Theorem 1
//! survival bound.
//!
//! The paper models vertex degrees of power-law graphs as Zipf variables
//! truncated to `1..=n` with shape `α > 1`:
//!
//! ```text
//! p(x) = x^{-α} / H_{n,α},   S(x) = (H_{n,α} − H_{x,α}) / H_{n,α}
//! ```
//!
//! Theorem 1 bounds the survival function by
//! `S(x) ≤ x^{1−α} / ((α−1) ζ(α))` for sufficiently large `x`, which drives
//! the pruning analysis (Lemma 5, Corollary 2).

use rand::Rng;

/// Generalised harmonic number `H_{n,α} = Σ_{j=1}^{n} j^{-α}`.
pub fn harmonic(n: u64, alpha: f64) -> f64 {
    (1..=n).map(|j| (j as f64).powf(-alpha)).sum()
}

/// Riemann zeta `ζ(α)` for `α > 1`, via direct summation plus the
/// Euler–Maclaurin tail correction `N^{1−α}/(α−1) + N^{−α}/2`.
pub fn zeta(alpha: f64) -> f64 {
    assert!(alpha > 1.0, "zeta(α) diverges for α ≤ 1");
    let cutoff = 10_000u64;
    let head = harmonic(cutoff, alpha);
    let n = cutoff as f64;
    head + n.powf(1.0 - alpha) / (alpha - 1.0) - 0.5 * n.powf(-alpha)
}

/// Closed-form survival bound of Theorem 1:
/// `S(x) ≤ x^{1−α} / ((α−1) ζ(α))`.
pub fn survival_bound(x: f64, alpha: f64) -> f64 {
    x.powf(1.0 - alpha) / ((alpha - 1.0) * zeta(alpha))
}

/// A Zipf distribution truncated to `1..=n` with shape `α`, supporting
/// exact sampling via inverse-CDF on a precomputed table.
///
/// Memory is `O(n)`; intended for generator-scale `n` (≤ ~10⁷).
#[derive(Debug, Clone)]
pub struct TruncatedZipf {
    n: u64,
    alpha: f64,
    /// `cdf[x-1] = F(x)`, normalised to end at exactly 1.
    cdf: Vec<f64>,
}

impl TruncatedZipf {
    /// Builds the distribution on support `1..=n` with shape `α > 0`.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n >= 1);
        assert!(alpha > 0.0);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for j in 1..=n {
            acc += (j as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        *cdf.last_mut().unwrap() = 1.0;
        Self { n, alpha, cdf }
    }

    /// Upper end of the support.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Exact survival `S(x) = P(X > x)`; `S(0) = 1`.
    pub fn survival(&self, x: u64) -> f64 {
        if x == 0 {
            1.0
        } else if x >= self.n {
            0.0
        } else {
            1.0 - self.cdf[x as usize - 1]
        }
    }

    /// Draws one sample by binary search on the CDF table.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        idx as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl TruncatedZipf {
        /// Probability mass `p(x)` for `x ∈ 1..=n`.
        fn pmf(&self, x: u64) -> f64 {
            assert!((1..=self.n).contains(&x));
            let prev = if x == 1 {
                0.0
            } else {
                self.cdf[x as usize - 2]
            };
            self.cdf[x as usize - 1] - prev
        }
    }

    /// Expected number of vertices of degree > `x` among `n` Zipf-distributed
    /// degrees — the quantity `n·S(x)` of Lemma 5.
    fn expected_high_degree_count(n: u64, alpha: f64, x: u64) -> f64 {
        let z = TruncatedZipf::new(n, alpha);
        n as f64 * z.survival(x)
    }

    #[test]
    fn harmonic_small_values() {
        assert!((harmonic(1, 2.0) - 1.0).abs() < 1e-12);
        assert!((harmonic(2, 1.0) - 1.5).abs() < 1e-12);
        assert!((harmonic(3, 2.0) - (1.0 + 0.25 + 1.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    fn zeta_matches_known_values() {
        // ζ(2) = π²/6, ζ(4) = π⁴/90.
        assert!((zeta(2.0) - std::f64::consts::PI.powi(2) / 6.0).abs() < 1e-8);
        assert!((zeta(4.0) - std::f64::consts::PI.powi(4) / 90.0).abs() < 1e-10);
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = TruncatedZipf::new(100, 1.5);
        let total: f64 = (1..=100).map(|x| z.pmf(x)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn survival_monotone_and_bounded() {
        let z = TruncatedZipf::new(1000, 2.0);
        assert_eq!(z.survival(0), 1.0);
        assert_eq!(z.survival(1000), 0.0);
        let mut prev = 1.0;
        for x in [1u64, 2, 5, 10, 100, 999] {
            let s = z.survival(x);
            assert!(s <= prev + 1e-12);
            prev = s;
        }
    }

    #[test]
    fn theorem1_bound_holds() {
        // S(x) ≤ x^{1−α} / ((α−1)ζ(α)) for large-enough x (Theorem 1).
        for &alpha in &[1.5f64, 2.0, 2.5, 3.0] {
            let z = TruncatedZipf::new(100_000, alpha);
            for &x in &[10u64, 50, 100, 1000, 10_000] {
                let s = z.survival(x);
                let bound = survival_bound(x as f64, alpha);
                assert!(
                    s <= bound * (1.0 + 1e-9),
                    "α={alpha} x={x}: S={s} > bound={bound}"
                );
            }
        }
    }

    #[test]
    fn sampling_matches_pmf_roughly() {
        let z = TruncatedZipf::new(50, 2.0);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let samples: Vec<u64> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        let ones = samples.iter().filter(|&&s| s == 1).count() as f64 / 20_000.0;
        assert!(
            (ones - z.pmf(1)).abs() < 0.02,
            "empirical {ones} vs pmf {}",
            z.pmf(1)
        );
        assert!(samples.iter().all(|&s| (1..=50).contains(&s)));
    }

    #[test]
    fn expected_high_degree_count_shrinks_with_threshold() {
        let a = expected_high_degree_count(10_000, 2.0, 10);
        let b = expected_high_degree_count(10_000, 2.0, 100);
        assert!(a > b);
        assert!(b >= 0.0);
    }

    #[test]
    fn heavier_tail_for_smaller_alpha() {
        let light = TruncatedZipf::new(1000, 3.0);
        let heavy = TruncatedZipf::new(1000, 1.2);
        assert!(heavy.survival(100) > light.survival(100));
    }
}
