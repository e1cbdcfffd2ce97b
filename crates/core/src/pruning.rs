//! Power-law pruning analysis (§5.6).
//!
//! LA-Decompose's first step places the `b` highest-degree vertices in the
//! arrow's arm. For graphs whose degrees follow a truncated Zipf
//! distribution with shape `α > 1`, Theorem 1 and Lemma 5 quantify how
//! many vertices must be pruned so the remainder has bounded degree, and
//! Corollary 2 turns that into the width recommendation `b = ω(n^{1/α})`.

/// The balance point of §5.6: pruning `b ≈ n^{1/α}` vertices leaves
/// maximum degree ≈ `n^{1/α}` with probability `1 − o(1)`. Returns the
/// recommended arrow width for a power-law graph (`δ = 1/α`).
pub fn recommended_width(n: u64, alpha: f64) -> u64 {
    assert!(alpha > 1.0);
    ((n as f64).powf(1.0 / alpha).ceil() as u64).max(1)
}

/// Empirical counterpart used in tests and the E8 ablation: number of
/// degrees in `degrees` strictly greater than `x`.
pub fn count_above(degrees: &[u32], x: u32) -> usize {
    degrees.iter().filter(|&&d| d > x).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_graph::zipf::{survival_bound, TruncatedZipf};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Lemma 5: upper bound on the probability that more than `b` vertices
    /// have degree ≥ `delta0` in an `n`-vertex Zipf(α) degree model:
    /// `n · Δ₀^{1−α} / (b (α−1) ζ(α))` (clamped to 1).
    fn lemma5_probability(n: u64, alpha: f64, b: u64, delta0: f64) -> f64 {
        assert!(alpha > 1.0 && b > 0);
        let p = n as f64 * survival_bound(delta0, alpha) / b as f64;
        p.min(1.0)
    }

    /// Expected maximum degree of the graph that remains after removing the
    /// `b` highest-degree vertices, under the Zipf(α) degree model: the
    /// smallest `Δ₀` with `n·S(Δ₀) ≤ b`.
    fn residual_max_degree(n: u64, alpha: f64, b: u64) -> u64 {
        let z = TruncatedZipf::new(n, alpha);
        // S is monotone decreasing: binary search the threshold.
        let (mut lo, mut hi) = (1u64, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if n as f64 * z.survival(mid) <= b as f64 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn lemma5_probability_shrinks_with_b_and_delta() {
        let p1 = lemma5_probability(10_000, 2.0, 10, 1000.0);
        let p2 = lemma5_probability(10_000, 2.0, 100, 1000.0);
        let p3 = lemma5_probability(10_000, 2.0, 10, 5000.0);
        assert!(p2 < p1);
        assert!(p3 < p1);
        assert!(lemma5_probability(10, 2.0, 1000, 2.0) <= 1.0);
    }

    #[test]
    fn recommended_width_scales_as_root() {
        assert_eq!(recommended_width(10_000, 2.0), 100);
        assert!(recommended_width(1_000_000, 3.0) <= 101);
        assert!(recommended_width(100, 1.5) >= 21); // 100^(2/3) ≈ 21.5
    }

    #[test]
    fn residual_max_degree_decreases_in_b() {
        let d1 = residual_max_degree(100_000, 1.8, 10);
        let d2 = residual_max_degree(100_000, 1.8, 1_000);
        assert!(d2 <= d1);
        assert!(d2 >= 1);
    }

    #[test]
    fn model_predicts_empirical_prune_counts() {
        // Sample Zipf degrees and verify Lemma 5's expectation bound: the
        // number of vertices above Δ₀ should rarely exceed n·S(Δ₀) by much.
        let n = 50_000u64;
        let alpha = 2.0;
        let z = TruncatedZipf::new(n, alpha);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let degrees: Vec<u32> = (0..n).map(|_| z.sample(&mut rng) as u32).collect();
        for delta0 in [10u32, 50, 200] {
            let expected = n as f64 * z.survival(delta0 as u64);
            let actual = count_above(&degrees, delta0) as f64;
            assert!(
                actual <= 2.0 * expected + 10.0,
                "Δ₀={delta0}: actual {actual} ≫ expected {expected}"
            );
        }
    }

    #[test]
    fn corollary2_width_controls_residual_degree() {
        // b = n^{1/α} ⇒ residual max degree ≈ n^{1/α} (same order).
        let n = 100_000u64;
        let alpha = 2.0;
        let b = recommended_width(n, alpha);
        let residual = residual_max_degree(n, alpha, b);
        let target = (n as f64).powf(1.0 / alpha);
        assert!(
            (residual as f64) <= 8.0 * target,
            "residual {residual} far above n^(1/α) = {target}"
        );
    }
}
