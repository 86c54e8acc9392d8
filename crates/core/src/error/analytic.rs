//! Exact analytical error-rate model for depth-2 SDLC multipliers.
//!
//! For cluster depth 2, an SDLC product is wrong **iff** at least one OR
//! gate merges two colliding `1`s: there is a pair `i` (rows `2i−2`,
//! `2i−1`) and a column `j ≤ W_i` (the cluster width, `N−i` for the
//! progressive variant) with
//! `A_j ∧ A_{j−1} ∧ B_{2i−2} ∧ B_{2i−1} = 1` — compression only ever
//! removes value, so collisions cannot cancel.
//!
//! Over uniform operands the `B` conditions are independent across pairs
//! (disjoint bit pairs, each true with probability ¼), while the `A`
//! condition depends only on the position `p` of the *first* adjacent pair
//! of ones in `A`:
//!
//! ```text
//! P(correct) = E_A[ (3/4)^{ #pairs whose cluster reaches p } ]
//!            = Σ_p  P(first adjacent ones at p) · (3/4)^{min(N−p, N/2)}
//!              + P(no adjacent ones)
//! ```
//!
//! The first-collision distribution follows a Fibonacci-style recurrence
//! over strings with no `11` substring. The result matches exhaustive
//! simulation to floating-point accuracy (see the crate's integration
//! tests), giving an independent check on both the model and the sweep
//! drivers — and a closed form usable at widths where exhaustion is
//! impossible.

use crate::matrix::ReducedMatrix;
use crate::sdlc::{ClusterVariant, SdlcMultiplier};

/// Distribution of the first adjacent-ones position in a uniform `width`-bit
/// string.
///
/// Returns `(probs, none)` where `probs[p]` for `p ∈ 1..width` is the
/// probability that the lowest `j` with `bit_j ∧ bit_{j−1}` equals `p`
/// (`probs\[0\]` is unused and zero) and `none` is the probability that no
/// adjacent ones exist.
///
/// # Panics
///
/// Panics if `width == 0` or `width > 63` (counts are kept exact in `u64`).
fn adjacent_ones_profile(width: u32) -> (Vec<f64>, f64) {
    assert!((1..=63).contains(&width), "width {width} out of 1..=63");
    let n = width as usize;
    // z[m] / o[m]: number of length-m strings with no "11", ending in 0 / 1.
    let mut z = vec![0u64; n + 1];
    let mut o = vec![0u64; n + 1];
    z[1] = 1;
    o[1] = 1;
    for m in 2..=n {
        z[m] = z[m - 1] + o[m - 1];
        o[m] = z[m - 1];
    }
    let total = 2f64.powi(width as i32);
    let mut probs = vec![0.0; n];
    for p in 1..n {
        // Prefix bits 0..p-1: no "11", ending in 1 (o[p] ways); bit p = 1;
        // bits p+1..N-1 free.
        let count = o[p] as f64 * 2f64.powi((n - 1 - p) as i32);
        probs[p] = count / total;
    }
    let none = (z[n] + o[n]) as f64 / total;
    (probs, none)
}

/// Exact error rate of a depth-2 SDLC multiplier over uniform operands.
///
/// Supports both cluster variants; for the paper's
/// [`ClusterVariant::Progressive`] scheme pair `i`'s cluster has width
/// `N−i`, for [`ClusterVariant::FullOr`] every pair spans all `N−1`
/// overlapping columns.
///
/// # Panics
///
/// Panics if `width` is odd, zero, or above 63.
///
/// # Examples
///
/// ```
/// use sdlc_core::error::error_rate_depth2;
/// use sdlc_core::ClusterVariant;
///
/// let er = error_rate_depth2(8, ClusterVariant::Progressive);
/// assert!((er - 0.4911).abs() < 0.0001); // Table II: 49.11 %
/// ```
#[must_use]
pub fn error_rate_depth2(width: u32, variant: ClusterVariant) -> f64 {
    assert!(
        width.is_multiple_of(2) && width >= 2,
        "width must be even and positive"
    );
    let (probs, none) = adjacent_ones_profile(width);
    let pairs = width / 2;
    let mut correct = none;
    for (p, &prob) in probs.iter().enumerate().skip(1) {
        if prob == 0.0 {
            continue;
        }
        let exposed_pairs = match variant {
            // Pair i's cluster covers columns 1..=N−i, so it can collide
            // iff p ≤ N−i ⟺ i ≤ N−p. At depth 2 every tail schedule
            // except FullOr coincides with Algorithm 1.
            ClusterVariant::Progressive | ClusterVariant::CeilTails | ClusterVariant::PairTails => {
                (width - p as u32).min(pairs)
            }
            ClusterVariant::FullOr => pairs,
        };
        correct += prob * 0.75f64.powi(exposed_pairs as i32);
    }
    1.0 - correct
}

/// Exact mean error distance of *any* SDLC configuration over uniform
/// operands — closed form, no simulation.
///
/// Each compressed bit of the reduced matrix merges `m` dots that are
/// mutually independent Bernoulli(¼) variables (they use pairwise distinct
/// `A` and `B` bits). The OR loses `(Σ dots) − OR(dots)` at its weight, so
/// by linearity of expectation
///
/// ```text
/// MED = Σ_{compressed bits} ( m/4 − 1 + (3/4)^m ) · 2^weight
/// ```
///
/// This extends the paper's empirical Section III with an exact model for
/// every depth and variant; `NMED = MED / (2^N − 1)²`. Verified against
/// the exhaustive sweeps to full floating-point precision in the tests.
///
/// # Examples
///
/// ```
/// use sdlc_core::error::{exhaustive, mean_error_distance};
/// use sdlc_core::SdlcMultiplier;
///
/// let model = SdlcMultiplier::new(8, 3)?;
/// let analytic = mean_error_distance(&model);
/// let simulated = exhaustive(&model).unwrap().med;
/// assert!((analytic - simulated).abs() < 1e-9);
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
#[must_use]
pub fn mean_error_distance(model: &SdlcMultiplier) -> f64 {
    let matrix = ReducedMatrix::from_multiplier(model);
    let mut med = 0.0;
    for row in matrix.rows() {
        for (weight, bit) in row.bits() {
            let m = bit.dots().len() as f64;
            if m < 2.0 {
                continue;
            }
            let expected_loss = m / 4.0 - 1.0 + 0.75f64.powf(m);
            med += expected_loss * 2f64.powi(*weight as i32);
        }
    }
    med
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::exhaustive;
    use crate::{Multiplier, SdlcMultiplier};

    #[test]
    fn profile_is_a_distribution() {
        for width in [2u32, 5, 8, 16, 63] {
            let (probs, none) = adjacent_ones_profile(width);
            let total: f64 = probs.iter().sum::<f64>() + none;
            assert!((total - 1.0).abs() < 1e-12, "width {width}: total {total}");
        }
    }

    #[test]
    fn profile_small_cases_by_hand() {
        // width 2: strings 00,01,10 have no adjacent ones; 11 has p=1.
        let (probs, none) = adjacent_ones_profile(2);
        assert!((probs[1] - 0.25).abs() < 1e-15);
        assert!((none - 0.75).abs() < 1e-15);
        // width 3: p=1 ⟺ bits0,1 = 11 (2 strings: x11) → 1/4.
        // p=2 ⟺ bits = 110 pattern only (A2A1=1, A1A0 no... A=110) → 1/8.
        let (probs, none) = adjacent_ones_profile(3);
        assert!((probs[1] - 0.25).abs() < 1e-15);
        assert!((probs[2] - 0.125).abs() < 1e-15);
        assert!((none - 0.625).abs() < 1e-15);
    }

    #[test]
    fn analytic_matches_exhaustive_progressive() {
        for width in [4u32, 6, 8, 10] {
            let m = SdlcMultiplier::new(width, 2).unwrap();
            let sim = exhaustive(&m).unwrap();
            let model = error_rate_depth2(width, ClusterVariant::Progressive);
            assert!(
                (sim.error_rate - model).abs() < 1e-12,
                "width {width}: sim {} vs model {model}",
                sim.error_rate
            );
        }
    }

    #[test]
    fn analytic_matches_exhaustive_fullor() {
        for width in [4u32, 6, 8] {
            let m = SdlcMultiplier::with_variant(width, 2, ClusterVariant::FullOr).unwrap();
            let sim = exhaustive(&m).unwrap();
            let model = error_rate_depth2(width, ClusterVariant::FullOr);
            assert!(
                (sim.error_rate - model).abs() < 1e-12,
                "width {width}: sim {} vs model {model}",
                sim.error_rate
            );
        }
    }

    #[test]
    fn error_rate_grows_with_width() {
        // Table II trend: ER rises with bit-width.
        let mut last = 0.0;
        for width in [4u32, 6, 8, 12, 16, 32, 62] {
            let er = error_rate_depth2(width, ClusterVariant::Progressive);
            assert!(er > last, "ER should grow: {er} at width {width}");
            last = er;
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=63")]
    fn oversized_width_panics() {
        let _ = adjacent_ones_profile(64);
    }

    #[test]
    fn med_model_matches_exhaustive_all_depths() {
        for width in [4u32, 6, 8, 10] {
            for depth in 1..=width.min(5) {
                let model = SdlcMultiplier::new(width, depth).unwrap();
                let analytic = mean_error_distance(&model);
                let simulated = exhaustive(&model).unwrap().med;
                assert!(
                    (analytic - simulated).abs() <= simulated.abs() * 1e-12 + 1e-9,
                    "width {width} depth {depth}: analytic {analytic} vs simulated {simulated}"
                );
            }
        }
    }

    #[test]
    fn med_model_matches_exhaustive_all_variants() {
        for variant in [
            ClusterVariant::Progressive,
            ClusterVariant::CeilTails,
            ClusterVariant::PairTails,
            ClusterVariant::FullOr,
        ] {
            let model = SdlcMultiplier::with_variant(8, 3, variant).unwrap();
            let analytic = mean_error_distance(&model);
            let simulated = exhaustive(&model).unwrap().med;
            assert!(
                (analytic - simulated).abs() <= simulated * 1e-12 + 1e-9,
                "{variant:?}: analytic {analytic} vs simulated {simulated}"
            );
        }
    }

    #[test]
    fn nmed_model_reproduces_table2_column() {
        // Paper Table II NMED column, now derived without any simulation.
        for (width, expect) in [(4u32, 0.010556), (8, 0.003527), (12, 0.000952)] {
            let model = SdlcMultiplier::new(width, 2).unwrap();
            let nmed = mean_error_distance(&model) / model.max_product().to_f64();
            assert!(
                (nmed - expect).abs() < 5e-6,
                "width {width}: {nmed} vs {expect}"
            );
        }
    }

    #[test]
    fn exact_multiplier_has_zero_analytic_med() {
        let model = SdlcMultiplier::new(8, 1).unwrap();
        assert_eq!(mean_error_distance(&model), 0.0);
    }
}
