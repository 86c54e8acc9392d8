//! Error-metric accumulation and the finished [`ErrorMetrics`] record.

use core::fmt;

use sdlc_wideint::U256;

use crate::batch::LANES;

/// Streaming accumulator for error statistics, private to the error
/// drivers.
///
/// Feed it `(exact, approximate)` product pairs with
/// [`ErrorAccumulator::record_u64`] (fast path, products ≤ 128 bits) or
/// [`ErrorAccumulator::record`] (wide path); partial accumulators from
/// worker threads combine with [`ErrorAccumulator::merge`].
#[derive(Debug, Clone, Default)]
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

impl ErrorAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one multiplication with products that fit in `u128`,
    /// tagging it with the operand pair for worst-case reporting.
    ///
    /// A wrong product against an exact product of zero (possible for
    /// baselines like ETM whose OR chains ignore a zero operand) has no
    /// defined RED; such pairs count toward ER and the ED statistics but
    /// are excluded from the RED mean and maximum
    /// ([`ErrorMetrics::undefined_red_count`] reports how many).
    pub(crate) fn record_u64(&mut self, exact: u128, approx: u128, operands: (u64, u64)) {
        self.samples += 1;
        if exact == approx {
            return;
        }
        self.errors += 1;
        // `u64 → f64` is a single instruction while `u128 → f64` is a
        // slow libcall; both round identically for values that fit, so
        // taking the narrow path keeps results bit-identical. Error
        // distances and ≤64-bit products (the exhaustive sweeps' entire
        // diet) always fit.
        let diff = exact.abs_diff(approx);
        let ed = if diff <= u128::from(u64::MAX) {
            diff as u64 as f64
        } else {
            diff as f64
        };
        if exact == 0 {
            self.undefined_red += 1;
            self.sum_ed += ed;
            self.max_ed = self.max_ed.max(ed);
            return;
        }
        let exact_f = if exact <= u128::from(u64::MAX) {
            exact as u64 as f64
        } else {
            exact as f64
        };
        let red = ed / exact_f;
        self.bump(ed, red, (u128::from(operands.0), u128::from(operands.1)));
    }

    /// Records one *signed* multiplication with products that fit `i128`:
    /// `ED = |P − P′|` over the signed values and `RED = ED / |P|`, so a
    /// sign-magnitude model's statistics are the unsigned core's mirrored
    /// into every quadrant. Operands are tagged as full-width
    /// two's-complement patterns (see
    /// [`ErrorMetrics::worst_red_operands_signed`]); the zero-product
    /// convention matches [`ErrorAccumulator::record_u64`].
    pub(crate) fn record_i64(&mut self, exact: i128, approx: i128, operands: (i64, i64)) {
        self.samples += 1;
        if exact == approx {
            return;
        }
        self.errors += 1;
        let diff = exact.abs_diff(approx);
        let ed = if diff <= u128::from(u64::MAX) {
            diff as u64 as f64
        } else {
            diff as f64
        };
        if exact == 0 {
            self.undefined_red += 1;
            self.sum_ed += ed;
            self.max_ed = self.max_ed.max(ed);
            return;
        }
        let magnitude = exact.unsigned_abs();
        let exact_f = if magnitude <= u128::from(u64::MAX) {
            magnitude as u64 as f64
        } else {
            magnitude as f64
        };
        let red = ed / exact_f;
        self.bump(
            ed,
            red,
            (
                i128::from(operands.0) as u128,
                i128::from(operands.1) as u128,
            ),
        );
    }

    /// Records one multiplication with wide products; see
    /// [`ErrorAccumulator::record_u64`] for the zero-product convention.
    pub(crate) fn record(&mut self, exact: &U256, approx: &U256, operands: (u128, u128)) {
        self.samples += 1;
        if exact == approx {
            return;
        }
        self.errors += 1;
        let ed = exact.abs_diff(approx).to_f64();
        if exact.is_zero() {
            self.undefined_red += 1;
            self.sum_ed += ed;
            self.max_ed = self.max_ed.max(ed);
            return;
        }
        let red = ed / exact.to_f64();
        self.bump(ed, red, operands);
    }

    fn bump(&mut self, ed: f64, red: f64, operands: (u128, u128)) {
        self.sum_ed += ed;
        self.sum_red += red;
        self.sum_red_sq += red * red;
        self.max_ed = self.max_ed.max(ed);
        if red > self.max_red {
            self.max_red = red;
            self.worst_red_operands = Some(operands);
        }
    }

    /// Records one 64-lane block of the bit-sliced engines: lane `i <
    /// valid` holds the exact and approximate product patterns
    /// `products(i)`, `error` turns such a pair into its error distance
    /// and exact-product magnitude, and `operands(i)` gives lane `i`'s
    /// worst-case tag. Equivalent to calling
    /// [`ErrorAccumulator::record_u64`] (or `record_i64`) on lanes
    /// `0..valid` in order, so the float sums come out bit-identical to
    /// the scalar engine's.
    ///
    /// Both error values are `u64` — every product of a ≤ 32-bit model
    /// fits — and `u64 as f64` rounds exactly as the per-pair path does.
    /// The error mask is built branch-free over all 64 lanes (`products`
    /// must accept the idle lanes `valid..64`; they are masked off); the
    /// wrong lanes are then walked in ascending order with the sums and
    /// maxima in locals, which are written back once per block.
    #[inline]
    pub(crate) fn record_block(
        &mut self,
        valid: usize,
        products: impl Fn(usize) -> (u64, u64),
        error: impl Fn(u64, u64) -> (u64, u64),
        operands: impl FnOnce(usize) -> (u128, u128),
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
        self.errors += u64::from(wrong.count_ones());
        let (mut sum_ed, mut sum_red, mut sum_red_sq) =
            (self.sum_ed, self.sum_red, self.sum_red_sq);
        let (mut max_ed, mut max_red) = (self.max_ed, self.max_red);
        let mut worst = None;
        let mut undefined_red = 0;
        while wrong != 0 {
            let i = wrong.trailing_zeros() as usize;
            wrong &= wrong - 1;
            let (exact, approx) = products(i);
            let (ed, magnitude) = error(exact, approx);
            let ed = ed as f64;
            sum_ed += ed;
            max_ed = max_ed.max(ed);
            if magnitude == 0 {
                undefined_red += 1;
                continue;
            }
            let red = ed / magnitude as f64;
            sum_red += red;
            sum_red_sq += red * red;
            if red > max_red {
                max_red = red;
                worst = Some(i);
            }
        }
        (self.sum_ed, self.sum_red, self.sum_red_sq) = (sum_ed, sum_red, sum_red_sq);
        (self.max_ed, self.max_red) = (max_ed, max_red);
        self.undefined_red += undefined_red;
        if let Some(i) = worst {
            self.worst_red_operands = Some(operands(i));
        }
    }

    /// Combines a partial accumulator (e.g. from another thread) into this
    /// one.
    pub(crate) fn merge(&mut self, other: &ErrorAccumulator) {
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

    /// Finalizes the statistics given `Pmax = (2^N − 1)²`.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded or `pmax` is zero.
    #[must_use]
    pub(crate) fn finish(&self, pmax: U256) -> ErrorMetrics {
        self.finish_inner(pmax, false)
    }

    /// [`ErrorAccumulator::finish`] for a stream recorded through
    /// [`ErrorAccumulator::record_i64`]: `pmax` is the signed product
    /// magnitude ceiling `(2^{N−1})²` and the metrics carry the
    /// [`ErrorMetrics::signed`] marker, making the worst-operand pair
    /// decodable as two's complement.
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

    #[test]
    fn exact_stream_has_zero_errors() {
        let mut acc = ErrorAccumulator::new();
        for x in 1..100u128 {
            acc.record_u64(x, x, (x as u64, 1));
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
        let mut acc = ErrorAccumulator::new();
        acc.record_u64(10, 7, (5, 2));
        acc.record_u64(10, 10, (5, 2));
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
        let mut a = ErrorAccumulator::new();
        let mut b = ErrorAccumulator::new();
        let mut whole = ErrorAccumulator::new();
        for i in 1..50u128 {
            let approx = i * i - (i % 3);
            a.record_u64(i * i, approx, (i as u64, i as u64));
            whole.record_u64(i * i, approx, (i as u64, i as u64));
        }
        for i in 50..100u128 {
            let approx = i * i - (i % 7);
            b.record_u64(i * i, approx, (i as u64, i as u64));
            whole.record_u64(i * i, approx, (i as u64, i as u64));
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
            let mut narrow = ErrorAccumulator::new();
            let mut wide = ErrorAccumulator::new();
            for &(p, q) in pairs {
                narrow.record_u64(p, q, (1, 1));
                wide.record(&U256::from_u128(p), &U256::from_u128(q), (1, 1));
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
        let _ = ErrorAccumulator::new().finish(U256::ONE);
    }

    #[test]
    fn standard_errors_shrink_with_sample_count() {
        let run = |n: u64| {
            let mut acc = ErrorAccumulator::new();
            for i in 0..n {
                // Half the samples err with RED = 0.2.
                if i % 2 == 0 {
                    acc.record_u64(10, 8, (1, 1));
                } else {
                    acc.record_u64(10, 10, (1, 1));
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
        let mut unsigned = ErrorAccumulator::new();
        let mut signed = ErrorAccumulator::new();
        for (exact, approx) in [(100i128, 90i128), (17, 17), (55, 48)] {
            unsigned.record_u64(exact as u128, approx as u128, (5, 20));
            for (sa, sb) in [(1i128, 1i128), (-1, 1), (1, -1), (-1, -1)] {
                let sign = sa * sb;
                signed.record_i64(exact * sign, approx * sign, (5 * sa as i64, 20 * sb as i64));
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
        let mut acc = ErrorAccumulator::new();
        acc.record_i64(0, -3, (-1, 0));
        acc.record_i64(-10, -8, (5, -2));
        let m = acc.finish_signed(U256::from_u64(100));
        assert_eq!(m.undefined_red_count, 1);
        assert_eq!(m.error_rate, 1.0);
        assert!((m.max_red - 0.2).abs() < 1e-15);
        assert_eq!(m.worst_red_operands_signed(), Some((5, -2)));
    }

    #[test]
    fn display_mentions_all_metrics() {
        let mut acc = ErrorAccumulator::new();
        acc.record_u64(10, 9, (5, 2));
        let text = acc.finish(U256::from_u64(100)).to_string();
        for needle in ["MRED", "NMED", "ER", "MAX(RED)"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
