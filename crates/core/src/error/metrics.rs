//! Error-metric accumulation and the finished [`ErrorMetrics`] record.

use core::fmt;

use sdlc_wideint::U256;

use crate::batch::LANES;

/// An integer error distance or exact-product magnitude, as the
/// domains hand it to a [`Tally`].
pub(crate) trait Magnitude: Copy {
    fn is_zero(self) -> bool;
    fn to_f64(self) -> f64;
}

impl Magnitude for u64 {
    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Magnitude for u128 {
    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }

    /// `u64 → f64` is a single instruction while `u128 → f64` is a slow
    /// libcall; both round identically for values that fit, so taking the
    /// narrow path keeps results bit-identical. Error distances and
    /// ≤ 64-bit products (the exhaustive sweeps' entire diet) always fit.
    #[inline]
    fn to_f64(self) -> f64 {
        match u64::try_from(self) {
            Ok(narrow) => narrow as f64,
            Err(_) => self as f64,
        }
    }
}

impl Magnitude for U256 {
    #[inline]
    fn is_zero(self) -> bool {
        U256::is_zero(&self)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        U256::to_f64(&self)
    }
}

/// A statistic the error sweeps accumulate: one tally per shard, folded in
/// shard order.
///
/// The operand domain turns each pair into its error distance
/// `ED = |P − P′|` and exact-product magnitude `|P|`, so a tally never
/// sees whether the operands were signed or how wide the products were.
pub(crate) trait Tally: Default + Send {
    /// Records one pair from its error distance and exact-product
    /// magnitude; `operands` gives the pair's worst-case tag on demand.
    fn record<E: Magnitude>(
        &mut self,
        ed: E,
        magnitude: E,
        operands: impl FnOnce() -> (u128, u128),
    );

    /// Records one 64-lane block of the bit-sliced engines: lane `i <
    /// valid` holds the exact and approximate product patterns
    /// `products(i)`, `error` turns such a pair into its error distance
    /// and exact-product magnitude, and `operands(i)` gives lane `i`'s
    /// worst-case tag. Equivalent to [`Tally::record`] on lanes
    /// `0..valid` in order (which is what this default does), so the
    /// engines tally bit-identically.
    #[inline]
    fn record_block(
        &mut self,
        valid: usize,
        products: impl Fn(usize) -> (u64, u64),
        error: impl Fn(u64, u64) -> (u64, u64),
        operands: impl Fn(usize) -> (u128, u128),
    ) {
        for i in 0..valid {
            let (exact, approx) = products(i);
            let (ed, magnitude) = error(exact, approx);
            self.record(ed, magnitude, || operands(i));
        }
    }

    /// Folds the next shard's tally into this one.
    fn merge(&mut self, other: &Self);
}

/// Streaming accumulator for error statistics, private to the error
/// drivers: the [`Tally`] behind [`ErrorMetrics`].
///
/// A wrong product against an exact product of zero (possible for
/// baselines like ETM whose OR chains ignore a zero operand) has no
/// defined RED; such pairs count toward ER and the ED statistics but are
/// excluded from the RED mean and maximum
/// ([`ErrorMetrics::undefined_red_count`] reports how many).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ErrorAccumulator {
    samples: u64,
    errors: u64,
    undefined_red: u64,
    sum_ed: f64,
    sum_red: f64,
    sum_red_sq: f64,
    max_red: f64,
    max_ed: f64,
    worst_red_operands: Option<(u128, u128)>,
}

impl Tally for ErrorAccumulator {
    #[inline]
    fn record<E: Magnitude>(
        &mut self,
        ed: E,
        magnitude: E,
        operands: impl FnOnce() -> (u128, u128),
    ) {
        self.samples += 1;
        if !ed.is_zero() && self.record_wrong(ed.to_f64(), magnitude.to_f64()) {
            self.worst_red_operands = Some(operands());
        }
    }

    /// The error mask is built branch-free over all 64 lanes (`products`
    /// must accept the idle lanes `valid..64`; they are masked off); the
    /// wrong lanes are then walked in ascending order through the record
    /// rule on a local copy, whose sums and maxima stay in registers and
    /// are written back once per block.
    #[inline]
    fn record_block(
        &mut self,
        valid: usize,
        products: impl Fn(usize) -> (u64, u64),
        error: impl Fn(u64, u64) -> (u64, u64),
        operands: impl Fn(usize) -> (u128, u128),
    ) {
        let mut wrong = 0u64;
        for i in (0..LANES).rev() {
            let (exact, approx) = products(i);
            wrong = (wrong << 1) | u64::from(exact != approx);
        }
        wrong &= u64::MAX.checked_shr((LANES - valid) as u32).unwrap_or(0);
        self.samples += valid as u64;
        if wrong == 0 {
            return;
        }
        let mut run = *self;
        let mut worst = None;
        while wrong != 0 {
            let i = wrong.trailing_zeros() as usize;
            wrong &= wrong - 1;
            let (exact, approx) = products(i);
            let (ed, magnitude) = error(exact, approx);
            if run.record_wrong(ed.to_f64(), magnitude.to_f64()) {
                worst = Some(i);
            }
        }
        *self = run;
        if let Some(i) = worst {
            self.worst_red_operands = Some(operands(i));
        }
    }

    fn merge(&mut self, other: &ErrorAccumulator) {
        self.samples += other.samples;
        self.errors += other.errors;
        self.undefined_red += other.undefined_red;
        self.sum_ed += other.sum_ed;
        self.sum_red += other.sum_red;
        self.sum_red_sq += other.sum_red_sq;
        self.max_ed = self.max_ed.max(other.max_ed);
        if other.max_red > self.max_red {
            self.max_red = other.max_red;
            self.worst_red_operands = other.worst_red_operands;
        }
    }
}

impl ErrorAccumulator {
    /// The record rule of one wrong product, given its error distance and
    /// exact-product magnitude: the errors count, the undefined-RED case,
    /// the ED and RED sums and the maxima. Returns whether the pair set a
    /// new MAX(RED), so the caller can tag it.
    #[inline]
    fn record_wrong(&mut self, ed: f64, magnitude: f64) -> bool {
        self.errors += 1;
        self.sum_ed += ed;
        self.max_ed = self.max_ed.max(ed);
        if magnitude == 0.0 {
            self.undefined_red += 1;
            return false;
        }
        let red = ed / magnitude;
        self.sum_red += red;
        self.sum_red_sq += red * red;
        let worst = red > self.max_red;
        if worst {
            self.max_red = red;
        }
        worst
    }

    /// Finalizes the statistics given `Pmax = (2^N − 1)²`.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded or `pmax` is zero.
    #[must_use]
    pub(crate) fn finish(&self, pmax: U256) -> ErrorMetrics {
        self.finish_inner(pmax, false)
    }

    /// [`ErrorAccumulator::finish`] for a stream of the signed domain:
    /// `pmax` is the signed product magnitude ceiling `(2^{N−1})²` and the
    /// metrics carry the [`ErrorMetrics::signed`] marker, making the
    /// worst-operand pair decodable as two's complement.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded or `pmax` is zero.
    #[must_use]
    pub(crate) fn finish_signed(&self, pmax: U256) -> ErrorMetrics {
        self.finish_inner(pmax, true)
    }

    fn finish_inner(&self, pmax: U256, signed: bool) -> ErrorMetrics {
        assert!(self.samples > 0, "cannot finish an empty accumulator");
        assert!(!pmax.is_zero(), "Pmax must be positive");
        let n = self.samples as f64;
        let red_n = (self.samples - self.undefined_red) as f64;
        let med = self.sum_ed / n;
        let error_rate = self.errors as f64 / n;
        let mred = if red_n > 0.0 {
            self.sum_red / red_n
        } else {
            0.0
        };
        // Standard errors of the sample means (exact sweeps report them
        // too; they are then the finite-population values of a hypothetical
        // redraw, still useful as scale indicators).
        let mred_variance = if red_n > 1.0 {
            ((self.sum_red_sq / red_n) - mred * mred).max(0.0)
        } else {
            0.0
        };
        ErrorMetrics {
            samples: self.samples,
            error_rate,
            mred,
            med,
            nmed: med / pmax.to_f64(),
            max_red: self.max_red,
            max_ed: self.max_ed,
            mred_std_error: if red_n > 0.0 {
                (mred_variance / red_n).sqrt()
            } else {
                0.0
            },
            er_std_error: (error_rate * (1.0 - error_rate) / n).sqrt(),
            undefined_red_count: self.undefined_red,
            worst_red_operands: self.worst_red_operands,
            signed,
        }
    }
}

/// Finished error statistics for one multiplier configuration.
///
/// Field meanings follow the paper's Section III; `mred`, `error_rate` and
/// `max_red` are fractions in `[0, 1]` (multiply by 100 for the paper's
/// percentage tables).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMetrics {
    /// Number of operand pairs evaluated.
    pub samples: u64,
    /// ER — fraction of pairs with `P′ ≠ P`.
    pub error_rate: f64,
    /// MRED — mean relative error distance.
    pub mred: f64,
    /// MED — mean error distance (absolute).
    pub med: f64,
    /// NMED — MED normalized by `Pmax`.
    pub nmed: f64,
    /// Largest observed RED.
    pub max_red: f64,
    /// Largest observed ED.
    pub max_ed: f64,
    /// Standard error of the MRED estimate (Monte-Carlo uncertainty).
    pub mred_std_error: f64,
    /// Standard error of the ER estimate (binomial).
    pub er_std_error: f64,
    /// Wrong products whose exact product was zero (RED undefined;
    /// excluded from `mred`/`max_red`, included in ER/ED statistics).
    pub undefined_red_count: u64,
    /// Operand pair achieving `max_red`, if any error was seen. For
    /// signed runs these are full-width two's-complement patterns; decode
    /// them with [`ErrorMetrics::worst_red_operands_signed`].
    pub worst_red_operands: Option<(u128, u128)>,
    /// Whether the operand domain was signed (a two's-complement sweep
    /// such as [`crate::error::exhaustive_signed_with`]): the sweep covered
    /// `[-2^{N-1}, 2^{N-1})²` and `Pmax = (2^{N-1})²`.
    pub signed: bool,
}

impl ErrorMetrics {
    /// The worst-RED operand pair of a signed run, decoded from the
    /// two's-complement patterns (`None` for unsigned runs or when no
    /// error was seen).
    #[must_use]
    pub fn worst_red_operands_signed(&self) -> Option<(i128, i128)> {
        if !self.signed {
            return None;
        }
        self.worst_red_operands.map(|(a, b)| (a as i128, b as i128))
    }
}

impl fmt::Display for ErrorMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MRED {:.5}%  NMED {:.6}  ER {:.2}%  MAX(RED) {:.4}%  ({} samples{})",
            self.mred * 100.0,
            self.nmed,
            self.error_rate * 100.0,
            self.max_red * 100.0,
            self.samples,
            if self.signed { ", signed" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records an unsigned pair the way the unsigned domain does.
    fn record(acc: &mut ErrorAccumulator, exact: u128, approx: u128, (a, b): (u64, u64)) {
        acc.record(exact.abs_diff(approx), exact, || (a.into(), b.into()));
    }

    /// Records a signed pair the way the two's-complement domain does.
    fn record_signed(acc: &mut ErrorAccumulator, exact: i128, approx: i128, (a, b): (i64, i64)) {
        let tag = |x: i64| i128::from(x) as u128;
        acc.record(exact.abs_diff(approx), exact.unsigned_abs(), || {
            (tag(a), tag(b))
        });
    }

    #[test]
    fn exact_stream_has_zero_errors() {
        let mut acc = ErrorAccumulator::default();
        for x in 1..100u128 {
            record(&mut acc, x, x, (x as u64, 1));
        }
        let m = acc.finish(U256::from_u64(10000));
        assert_eq!(m.error_rate, 0.0);
        assert_eq!(m.mred, 0.0);
        assert_eq!(m.nmed, 0.0);
        assert_eq!(m.max_red, 0.0);
        assert!(m.worst_red_operands.is_none());
    }

    #[test]
    fn single_error_metrics() {
        let mut acc = ErrorAccumulator::default();
        record(&mut acc, 10, 7, (5, 2));
        record(&mut acc, 10, 10, (5, 2));
        let m = acc.finish(U256::from_u64(100));
        assert_eq!(m.samples, 2);
        assert_eq!(m.error_rate, 0.5);
        assert!((m.mred - 0.15).abs() < 1e-12); // (3/10)/2
        assert!((m.med - 1.5).abs() < 1e-12);
        assert!((m.nmed - 0.015).abs() < 1e-12);
        assert!((m.max_red - 0.3).abs() < 1e-12);
        assert_eq!(m.worst_red_operands, Some((5, 2)));
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = ErrorAccumulator::default();
        let mut b = ErrorAccumulator::default();
        let mut whole = ErrorAccumulator::default();
        for i in 1..50u128 {
            let approx = i * i - (i % 3);
            record(&mut a, i * i, approx, (i as u64, i as u64));
            record(&mut whole, i * i, approx, (i as u64, i as u64));
        }
        for i in 50..100u128 {
            let approx = i * i - (i % 7);
            record(&mut b, i * i, approx, (i as u64, i as u64));
            record(&mut whole, i * i, approx, (i as u64, i as u64));
        }
        a.merge(&b);
        let pmax = U256::from_u64(99 * 99);
        let merged = a.finish(pmax);
        let sequential = whole.finish(pmax);
        assert_eq!(merged.samples, sequential.samples);
        assert_eq!(merged.error_rate, sequential.error_rate);
        assert_eq!(merged.max_red, sequential.max_red);
        assert_eq!(merged.max_ed, sequential.max_ed);
        assert_eq!(merged.worst_red_operands, sequential.worst_red_operands);
        // Sums are added in a different order; allow for float reassociation.
        assert!((merged.mred - sequential.mred).abs() < 1e-12);
        assert!((merged.nmed - sequential.nmed).abs() < 1e-12);
    }

    #[test]
    fn wide_and_narrow_paths_agree() {
        // The last pair's exact product is a half-ulp tie in its top 64
        // bits that only the discarded low bit breaks.
        let cases = [
            (100u128, 90u128),
            (17, 17),
            (255 * 255, 255 * 254),
            ((1 << 117) + (1 << 64) + 1, 1 << 117),
        ];
        let pmax = U256::from_u64(255 * 255);
        let both = |pairs: &[(u128, u128)]| {
            let mut narrow = ErrorAccumulator::default();
            let mut wide = ErrorAccumulator::default();
            for &(p, q) in pairs {
                record(&mut narrow, p, q, (1, 1));
                let (p, q) = (U256::from_u128(p), U256::from_u128(q));
                wide.record(p.abs_diff(&q), p, || (1, 1));
            }
            (narrow.finish(pmax), wide.finish(pmax))
        };
        // Each pair alone, so no sum can absorb a one-ulp RED difference,
        // and all of them together.
        for case in cases {
            let (narrow, wide) = both(&[case]);
            assert_eq!(narrow, wide, "{case:?}");
        }
        let (narrow, wide) = both(&cases);
        assert_eq!(narrow, wide);
    }

    #[test]
    #[should_panic(expected = "empty accumulator")]
    fn finish_empty_panics() {
        let _ = ErrorAccumulator::default().finish(U256::ONE);
    }

    #[test]
    fn standard_errors_shrink_with_sample_count() {
        let run = |n: u64| {
            let mut acc = ErrorAccumulator::default();
            for i in 0..n {
                // Half the samples err with RED = 0.2.
                if i % 2 == 0 {
                    record(&mut acc, 10, 8, (1, 1));
                } else {
                    record(&mut acc, 10, 10, (1, 1));
                }
            }
            acc.finish(U256::from_u64(100))
        };
        let small = run(100);
        let large = run(10_000);
        assert!(small.er_std_error > large.er_std_error * 5.0);
        assert!(small.mred_std_error > large.mred_std_error * 5.0);
        // Binomial check: p = 0.5 at n = 100 → 0.05.
        assert!((small.er_std_error - 0.05).abs() < 1e-12);
    }

    #[test]
    fn signed_records_mirror_unsigned_magnitudes() {
        // Same magnitudes, all four sign quadrants: the signed statistics
        // must equal the unsigned ones computed on the magnitudes.
        let mut unsigned = ErrorAccumulator::default();
        let mut signed = ErrorAccumulator::default();
        for (exact, approx) in [(100i128, 90i128), (17, 17), (55, 48)] {
            record(&mut unsigned, exact as u128, approx as u128, (5, 20));
            for (sa, sb) in [(1i128, 1i128), (-1, 1), (1, -1), (-1, -1)] {
                let sign = sa * sb;
                record_signed(
                    &mut signed,
                    exact * sign,
                    approx * sign,
                    (5 * sa as i64, 20 * sb as i64),
                );
            }
        }
        let pmax = U256::from_u64(1 << 14);
        let u = unsigned.finish(pmax);
        let s = signed.finish_signed(pmax);
        assert!(!u.signed && s.signed);
        assert_eq!(s.samples, 4 * u.samples);
        assert_eq!(s.error_rate, u.error_rate);
        assert!((s.mred - u.mred).abs() < 1e-15);
        assert!((s.med - u.med).abs() < 1e-12);
        assert_eq!(s.max_red, u.max_red);
        assert_eq!(u.worst_red_operands_signed(), None);
        assert_eq!(s.worst_red_operands_signed(), Some((5, 20)));
        assert!(s.to_string().contains("signed"), "{s}");
        assert!(!u.to_string().contains("signed"), "{u}");
    }

    #[test]
    fn signed_zero_product_errors_have_undefined_red() {
        let mut acc = ErrorAccumulator::default();
        record_signed(&mut acc, 0, -3, (-1, 0));
        record_signed(&mut acc, -10, -8, (5, -2));
        let m = acc.finish_signed(U256::from_u64(100));
        assert_eq!(m.undefined_red_count, 1);
        assert_eq!(m.error_rate, 1.0);
        assert!((m.max_red - 0.2).abs() < 1e-15);
        assert_eq!(m.worst_red_operands_signed(), Some((5, -2)));
    }

    #[test]
    fn display_mentions_all_metrics() {
        let mut acc = ErrorAccumulator::default();
        record(&mut acc, 10, 9, (5, 2));
        let text = acc.finish(U256::from_u64(100)).to_string();
        for needle in ["MRED", "NMED", "ER", "MAX(RED)"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
