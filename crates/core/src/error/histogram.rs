//! RED probability histograms (Figure 5 of the paper).
//!
//! Figure 5 plots, for 4-, 8- and 12-bit SDLC multipliers, the probability
//! that a multiplication lands in each 1 %-wide relative-error bin
//! (`0–1 %`, `1–2 %`, …, `33–34 %`). The exact results (`RED = 0`) dominate
//! the leftmost bin, and the mass shifts left as the width grows.

use crate::batch::Batchable;
use crate::error::evaluate::{exhaustive_in, EvalError, EvalOptions, Unsigned};
use crate::error::metrics::{Magnitude, Tally};

/// Number of 1 %-wide bins; the paper's x-axis runs 0–34 %.
pub const RED_HISTOGRAM_BINS: usize = 34;

/// A probability histogram of relative error distances.
///
/// # Examples
///
/// ```
/// use sdlc_core::error::{EvalOptions, RedHistogram};
/// use sdlc_core::SdlcMultiplier;
///
/// let m = SdlcMultiplier::new(4, 2)?;
/// let h = RedHistogram::exhaustive_with(&m, EvalOptions::default())?;
/// // The leftmost bin (exact or nearly exact results) dominates.
/// assert!(h.probability(0) > 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedHistogram {
    counts: [u64; RED_HISTOGRAM_BINS],
    overflow: u64,
    samples: u64,
}

impl RedHistogram {
    /// Builds the histogram over every operand pair, on the engine and
    /// thread count of `options` — the same sweep as
    /// [`crate::error::exhaustive_with`], so both engines bin identical
    /// products and the counts never depend on the thread count.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::WidthTooLarge`] above the selected engine's
    /// width limit ([`crate::error::EXHAUSTIVE_WIDTH_LIMIT`] or
    /// [`crate::error::BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`]).
    pub fn exhaustive_with<M: Batchable + Sync>(
        multiplier: &M,
        options: EvalOptions,
    ) -> Result<Self, EvalError> {
        exhaustive_in(&Unsigned(multiplier), options)
    }

    /// Probability mass of bin `i` (covering `[i %, i+1 %)`).
    ///
    /// # Panics
    ///
    /// Panics if `bin >= RED_HISTOGRAM_BINS`.
    #[must_use]
    pub fn probability(&self, bin: usize) -> f64 {
        assert!(bin < RED_HISTOGRAM_BINS, "bin {bin} out of range");
        if self.samples == 0 {
            return 0.0;
        }
        self.counts[bin] as f64 / self.samples as f64
    }

    /// Probability mass beyond the last bin (RED ≥ 34 %).
    #[must_use]
    pub fn overflow_probability(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.overflow as f64 / self.samples as f64
    }

    /// Raw bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded samples.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Index of the highest non-empty bin, or `None` if all mass is in the
    /// overflow bucket or the histogram is empty.
    #[must_use]
    pub fn last_occupied_bin(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }
}

impl Default for RedHistogram {
    fn default() -> Self {
        Self {
            counts: [0; RED_HISTOGRAM_BINS],
            overflow: 0,
            samples: 0,
        }
    }
}

/// Bins each pair's RED at `floor(100 · RED)`; an exact product is RED 0.
/// A wrong product against an exact product of zero has no defined RED and
/// counts toward the overflow bin.
impl Tally for RedHistogram {
    #[inline]
    fn record<E: Magnitude>(&mut self, ed: E, magnitude: E, _: impl FnOnce() -> (u128, u128)) {
        self.samples += 1;
        let red = if ed.is_zero() {
            0.0
        } else {
            ed.to_f64() / magnitude.to_f64()
        };
        match self.counts.get_mut((red * 100.0).floor() as usize) {
            Some(count) => *count += 1,
            None => self.overflow += 1,
        }
    }

    fn merge(&mut self, other: &RedHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.samples += other.samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Engine;
    use crate::SdlcMultiplier;

    fn exhaustive<M: Batchable + Sync>(m: &M) -> RedHistogram {
        RedHistogram::exhaustive_with(m, EvalOptions::default()).unwrap()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        let h = exhaustive(&m);
        let total: f64 = (0..RED_HISTOGRAM_BINS)
            .map(|b| h.probability(b))
            .sum::<f64>()
            + h.overflow_probability();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(h.samples(), 1 << 16);
    }

    #[test]
    fn mass_concentrates_left_with_width() {
        let h4 = exhaustive(&SdlcMultiplier::new(4, 2).unwrap());
        let h8 = exhaustive(&SdlcMultiplier::new(8, 2).unwrap());
        // Paper: "the mass of the distribution is gradually concentrated to
        // the leftmost in higher bit-widths" — the high-RED tail shrinks
        // even though the error *rate* (bin 0 complement) grows.
        let tail4: f64 = (10..RED_HISTOGRAM_BINS).map(|b| h4.probability(b)).sum();
        let tail8: f64 = (10..RED_HISTOGRAM_BINS).map(|b| h8.probability(b)).sum();
        assert!(tail8 < tail4, "tail4 {tail4} vs tail8 {tail8}");
        // Mean RED also drops with width (Table II trend).
        let mean = |h: &RedHistogram| -> f64 {
            (0..RED_HISTOGRAM_BINS)
                .map(|b| h.probability(b) * (b as f64 + 0.5))
                .sum()
        };
        assert!(mean(&h8) < mean(&h4));
    }

    #[test]
    fn exact_multiplier_is_all_in_bin_zero() {
        let m = crate::AccurateMultiplier::new(6).unwrap();
        let h = exhaustive(&m);
        assert_eq!(h.probability(0), 1.0);
        assert_eq!(h.last_occupied_bin(), Some(0));
        assert_eq!(h.overflow_probability(), 0.0);
    }

    #[test]
    fn bitsliced_histogram_is_identical() {
        for depth in [2u32, 4] {
            let m = SdlcMultiplier::new(8, depth).unwrap();
            let histogram = |engine, threads| {
                let threads = std::num::NonZeroUsize::new(threads);
                RedHistogram::exhaustive_with(&m, EvalOptions { engine, threads }).unwrap()
            };
            let scalar = histogram(Engine::Scalar, 1);
            for threads in [1, 3] {
                assert_eq!(
                    scalar,
                    histogram(Engine::BitSliced, threads),
                    "depth {depth}"
                );
                assert_eq!(scalar, histogram(Engine::Scalar, threads), "depth {depth}");
            }
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = RedHistogram::default();
        let mut b = RedHistogram::default();
        a.record(0u64, 100, || (10, 10));
        b.record(50u64, 100, || (10, 5)); // RED = 50 % → overflow
        a.merge(&b);
        assert_eq!(a.samples(), 2);
        assert_eq!(a.counts()[0], 1);
        assert!((a.overflow_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oversized_width_is_a_typed_error() {
        let m = SdlcMultiplier::new(32, 2).unwrap();
        for engine in [Engine::Scalar, Engine::BitSliced] {
            let err = RedHistogram::exhaustive_with(&m, engine.into()).unwrap_err();
            assert!(matches!(err, EvalError::WidthTooLarge { width: 32, .. }));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bin_panics() {
        let _ = RedHistogram::default().probability(RED_HISTOGRAM_BINS);
    }
}
