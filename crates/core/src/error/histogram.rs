//! RED probability histograms (Figure 5 of the paper).
//!
//! Figure 5 plots, for 4-, 8- and 12-bit SDLC multipliers, the probability
//! that a multiplication lands in each 1 %-wide relative-error bin
//! (`0–1 %`, `1–2 %`, …, `33–34 %`). The exact results (`RED = 0`) dominate
//! the leftmost bin, and the mass shifts left as the width grows.

use crate::batch::Batchable;
use crate::error::evaluate::{parallel_chunks, sweep_blocks, BatchDomain, Engine, Unsigned};
use crate::multiplier::Multiplier;

/// Number of 1 %-wide bins; the paper's x-axis runs 0–34 %.
pub const RED_HISTOGRAM_BINS: usize = 34;

/// A probability histogram of relative error distances.
///
/// # Examples
///
/// ```
/// use sdlc_core::{error::RedHistogram, SdlcMultiplier};
///
/// let m = SdlcMultiplier::new(4, 2)?;
/// let h = RedHistogram::exhaustive(&m);
/// // The leftmost bin (exact or nearly exact results) dominates.
/// assert!(h.probability(0) > 0.5);
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedHistogram {
    counts: Vec<u64>,
    overflow: u64,
    samples: u64,
}

impl RedHistogram {
    /// Builds the histogram over every operand pair of a ≤ 16-bit
    /// multiplier.
    ///
    /// # Panics
    ///
    /// Panics if the multiplier is wider than 16 bits (use sampling
    /// upstream for wider designs).
    #[must_use]
    pub fn exhaustive<M: Multiplier + Sync>(multiplier: &M) -> Self {
        let width = multiplier.width();
        assert!(
            width <= 16,
            "exhaustive histogram limited to 16-bit multipliers"
        );
        let count: u64 = 1u64 << width;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let partials = parallel_chunks(count, threads, |lo, hi| {
            let mut hist = RedHistogram::empty();
            for a in lo..hi {
                for b in 0..count {
                    let exact = u128::from(a) * u128::from(b);
                    let approx = multiplier.multiply_u64(a, b);
                    hist.record(exact, approx);
                }
            }
            hist
        });
        let mut total = RedHistogram::empty();
        for p in &partials {
            total.merge(p);
        }
        total
    }

    /// [`RedHistogram::exhaustive`] dispatched on an [`Engine`]; the
    /// bit-sliced path evaluates 64 pairs per pass and bins the same
    /// products, so the counts are identical.
    ///
    /// # Panics
    ///
    /// Panics if the multiplier is wider than 16 bits.
    #[must_use]
    pub fn exhaustive_with_engine<M: Batchable + Sync>(multiplier: &M, engine: Engine) -> Self {
        if engine == Engine::Scalar {
            return Self::exhaustive(multiplier);
        }
        let width = multiplier.width();
        assert!(
            width <= 16,
            "exhaustive histogram limited to 16-bit multipliers"
        );
        let domain = Unsigned(multiplier);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let partials = parallel_chunks(1u64 << width, threads, |lo, hi| {
            let batch = domain.batch();
            let mut hist = RedHistogram::empty();
            sweep_blocks(&domain, &batch, lo, hi, |a, b0, valid, approx| {
                for (i, &p) in approx.iter().enumerate().take(valid) {
                    let exact = u128::from(a) * u128::from(b0 + i as u64);
                    hist.record(exact, u128::from(p));
                }
            });
            hist
        });
        let mut total = RedHistogram::empty();
        for p in &partials {
            total.merge(p);
        }
        total
    }

    /// Creates an empty histogram.
    #[must_use]
    pub(crate) fn empty() -> Self {
        Self {
            counts: vec![0; RED_HISTOGRAM_BINS],
            overflow: 0,
            samples: 0,
        }
    }

    /// Records one `(exact, approximate)` product pair.
    pub(crate) fn record(&mut self, exact: u128, approx: u128) {
        self.samples += 1;
        let red = if exact == approx {
            0.0
        } else {
            debug_assert!(exact > 0);
            exact.abs_diff(approx) as f64 / exact as f64
        };
        let bin = (red * 100.0).floor() as usize;
        if bin < RED_HISTOGRAM_BINS {
            self.counts[bin] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Merges another histogram into this one.
    pub(crate) fn merge(&mut self, other: &RedHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.samples += other.samples;
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
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SdlcMultiplier;

    #[test]
    fn probabilities_sum_to_one() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        let h = RedHistogram::exhaustive(&m);
        let total: f64 = (0..RED_HISTOGRAM_BINS)
            .map(|b| h.probability(b))
            .sum::<f64>()
            + h.overflow_probability();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(h.samples(), 1 << 16);
    }

    #[test]
    fn mass_concentrates_left_with_width() {
        let h4 = RedHistogram::exhaustive(&SdlcMultiplier::new(4, 2).unwrap());
        let h8 = RedHistogram::exhaustive(&SdlcMultiplier::new(8, 2).unwrap());
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
        let h = RedHistogram::exhaustive(&m);
        assert_eq!(h.probability(0), 1.0);
        assert_eq!(h.last_occupied_bin(), Some(0));
        assert_eq!(h.overflow_probability(), 0.0);
    }

    #[test]
    fn bitsliced_histogram_is_identical() {
        for depth in [2u32, 4] {
            let m = SdlcMultiplier::new(8, depth).unwrap();
            let scalar = RedHistogram::exhaustive_with_engine(&m, Engine::Scalar);
            let bitsliced = RedHistogram::exhaustive_with_engine(&m, Engine::BitSliced);
            assert_eq!(scalar, bitsliced, "depth {depth}");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = RedHistogram::empty();
        let mut b = RedHistogram::empty();
        a.record(100, 100);
        b.record(100, 50); // RED = 50 % → overflow
        a.merge(&b);
        assert_eq!(a.samples(), 2);
        assert_eq!(a.counts()[0], 1);
        assert!((a.overflow_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bin_panics() {
        let _ = RedHistogram::empty().probability(RED_HISTOGRAM_BINS);
    }
}
