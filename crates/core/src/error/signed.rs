//! Exhaustive and Monte-Carlo error evaluation over the signed domain.
//!
//! These drivers are the signed twins of [`crate::error::exhaustive_with`]
//! and [`crate::error::sampled_with`], and run the same generic sweep: the
//! same 2^{2N} pattern space, but the patterns are interpreted as two's
//! complement, errors are measured on the signed values
//! (`ED = |P − P′|`, `RED = ED / |P|`) and NMED is normalized by the
//! signed product ceiling `Pmax = (2^{N−1})²` (see
//! [`SignedMultiplier::max_product_magnitude`]).
//!
//! Pair order is the *pattern* order `0, 1, …, 2^N − 1` — i.e. the
//! non-negative half first, then the negative half — which is exactly the
//! unsigned drivers' order. That choice makes the scalar and bit-sliced
//! signed engines bit-identical to each other (same chunking, same
//! accumulation order) and keeps thread count out of the result, just
//! like the unsigned drivers.

use crate::batch::signed::sign_extend;
use crate::batch::{BatchSignMagnitude, Batchable};
use crate::error::evaluate::{
    exhaustive_in, sampled_in, BatchDomain, Domain, EvalError, EvalOptions,
};
use crate::error::metrics::{ErrorAccumulator, ErrorMetrics};
use crate::signed::{SignMagnitude, SignedMultiplier};

/// The two's-complement domain of a [`SignedMultiplier`].
struct Signed<'m, M> {
    model: &'m M,
    width: u32,
}

impl<M: SignedMultiplier + Sync> Domain for Signed<'_, M> {
    type Operand = i64;
    type Product = i128;
    // The scalar sampler runs on the `multiply_i64` fast path.
    const SAMPLED_WIDTH_LIMIT: u32 = 32;

    fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    fn decode(&self, pattern: u64) -> i64 {
        sign_extend(pattern, self.width) as i64
    }

    #[inline]
    fn exact(a: i64, b: i64) -> i128 {
        i128::from(a) * i128::from(b)
    }

    #[inline]
    fn multiply(&self, a: i64, b: i64) -> i128 {
        self.model.multiply_i64(a, b)
    }

    #[inline]
    fn record(acc: &mut ErrorAccumulator, exact: i128, approx: i128, operands: (i64, i64)) {
        acc.record_i64(exact, approx, operands);
    }

    fn finish(&self, acc: &ErrorAccumulator) -> ErrorMetrics {
        acc.finish_signed(self.model.max_product_magnitude())
    }
}

impl<M: Batchable + Sync> BatchDomain for Signed<'_, SignMagnitude<M>> {
    type Batch = BatchSignMagnitude<M::Batch>;

    fn batch(&self) -> Self::Batch {
        self.model.batch_model()
    }

    fn sweep_row(batch: &Self::Batch, a: u64, count: u64, emit: &mut dyn FnMut(u64, &[u64])) {
        batch.sweep_operand_row_signed(a, count, emit);
    }

    fn multiply_planes(batch: &Self::Batch, a: &[u64], b: &[u64], product: &mut [u64]) {
        batch.multiply_planes_signed(a, b, product);
    }

    #[inline]
    fn exact_lane(&self, a: u64, b: u64) -> u64 {
        // A ≤ 32-bit model's product fits 2N-bit two's complement.
        let exact = self.decode(a) * self.decode(b);
        exact as u64 & (u64::MAX >> (64 - 2 * self.width))
    }

    #[inline]
    fn lane_error(&self, exact: u64, approx: u64) -> (u64, u64) {
        let [exact, approx] = [exact, approx].map(|lane| sign_extend(lane, 2 * self.width) as i64);
        (exact.abs_diff(approx), exact.unsigned_abs())
    }
}

fn signed<M: SignedMultiplier>(model: &M) -> Signed<'_, M> {
    Signed {
        model,
        width: model.width(),
    }
}

/// Exhaustively evaluates every signed operand pair on the engine and
/// thread count of `options`; both engines return bit-identical
/// [`ErrorMetrics`] wherever both accept the width.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above the selected engine's width
/// limit ([`crate::error::EXHAUSTIVE_WIDTH_LIMIT`] or
/// [`crate::error::BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`]).
pub fn exhaustive_signed_with<M>(
    multiplier: &SignMagnitude<M>,
    options: EvalOptions,
) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    exhaustive_in(&signed(multiplier), options)
}

/// Evaluates `samples` uniformly random signed operand pairs on the engine
/// and thread count of `options` (seeded, deterministic for a given
/// `(seed, samples)` regardless of thread count; bit-identical across
/// engines). The draws are the unsigned drivers' bit patterns
/// reinterpreted as two's complement, so a seed covers the same lattice of
/// pairs in both domains.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] for models wider than 32 bits (the
/// signed samplers use the `multiply_i64` fast path).
pub fn sampled_signed_with<M>(
    multiplier: &SignMagnitude<M>,
    samples: u64,
    seed: u64,
    options: EvalOptions,
) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    sampled_in(&signed(multiplier), samples, seed, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::evaluate::tests::{
        assert_blocks_match_replay, assert_engines_agree, assert_thread_count_invariant,
        signed_exhaustive_rows, signed_sampled_rows, synthetic_blocks,
    };
    use crate::error::Engine;
    use crate::signed::{signed_accurate, signed_sdlc, SignMagnitude};
    use crate::{Multiplier, SdlcMultiplier};

    fn one_thread(engine: Engine) -> EvalOptions {
        EvalOptions {
            engine,
            threads: std::num::NonZeroUsize::new(1),
        }
    }

    #[test]
    fn accurate_signed_has_no_error() {
        let m = signed_accurate(8).unwrap();
        let metrics = exhaustive_signed_with(&m, EvalOptions::default()).unwrap();
        assert_eq!(metrics.error_rate, 0.0);
        assert_eq!(metrics.samples, 1 << 16);
        assert!(metrics.signed);
    }

    #[test]
    fn signed_sweep_equals_manual_unsigned_core_cross_check() {
        // Replay the exact sweep through the *unsigned* core by hand —
        // magnitudes in, signs re-applied — and demand bit-identical
        // metrics from the signed driver on both engines (single-threaded
        // so the accumulation order matches).
        let inner = SdlcMultiplier::new(6, 2).unwrap();
        let m = SignMagnitude::new(inner.clone());
        let mut acc = ErrorAccumulator::new();
        for ua in 0..64u64 {
            for ub in 0..64u64 {
                let a = sign_extend(ua, 6) as i64;
                let b = sign_extend(ub, 6) as i64;
                let magnitude = inner.multiply_u64(a.unsigned_abs(), b.unsigned_abs()) as i128;
                let approx = if (a < 0) != (b < 0) {
                    -magnitude
                } else {
                    magnitude
                };
                acc.record_i64(i128::from(a) * i128::from(b), approx, (a, b));
            }
        }
        let manual = acc.finish_signed(m.max_product_magnitude());
        for engine in [Engine::Scalar, Engine::BitSliced] {
            let metrics = exhaustive_signed_with(&m, one_thread(engine)).unwrap();
            assert_eq!(metrics, manual, "{engine}");
        }
        assert!(manual.mred > 0.0);
    }

    #[test]
    fn record_block_matches_per_pair_replay_in_every_quadrant() {
        for width in [8, 32] {
            let m = signed_sdlc(width, 2).unwrap();
            let domain = signed(&m);
            // One sign quadrant per `(a < 0, b < 0)` draw, cycled.
            let mut quadrant = 0u64;
            let groups = synthetic_blocks(&domain, u64::from(width), |rng| {
                quadrant += 1;
                let half = |negative: u64, rng: &mut sdlc_wideint::SplitMix64| {
                    rng.next_bits(width - 1) | (negative << (width - 1))
                };
                (half(quadrant & 1, rng), half((quadrant >> 1) & 1, rng))
            });
            let quadrants: std::collections::HashSet<_> = groups
                .iter()
                .flat_map(|g| &g.blocks)
                .flat_map(|b| &b.lanes[..b.valid])
                .map(|&(a, b, _)| (domain.decode(a) < 0, domain.decode(b) < 0))
                .collect();
            assert_eq!(quadrants.len(), 4);
            assert_blocks_match_replay(&domain, &groups, |lane| sign_extend(lane, 2 * width));
        }
    }

    #[test]
    fn engines_are_bit_identical_exhaustive() {
        assert_engines_agree(&signed_exhaustive_rows());
    }

    #[test]
    fn engines_are_bit_identical_sampled() {
        assert_engines_agree(&signed_sampled_rows());
    }

    #[test]
    fn thread_count_never_changes_results() {
        assert_thread_count_invariant(&signed_exhaustive_rows(), Engine::Scalar);
        assert_thread_count_invariant(&signed_sampled_rows(), Engine::Scalar);
    }

    #[test]
    fn engine_dispatch_agrees() {
        let m = signed_sdlc(6, 2).unwrap();
        let [scalar, bitsliced] = [Engine::Scalar, Engine::BitSliced].map(EvalOptions::from);
        assert_eq!(
            exhaustive_signed_with(&m, scalar).unwrap(),
            exhaustive_signed_with(&m, bitsliced).unwrap()
        );
        assert_eq!(
            sampled_signed_with(&m, 5_000, 3, scalar).unwrap(),
            sampled_signed_with(&m, 5_000, 3, bitsliced).unwrap()
        );
    }

    #[test]
    fn width_and_sample_limits() {
        let wide = signed_sdlc(32, 2).unwrap();
        let scalar = EvalOptions::default();
        let bitsliced = EvalOptions::from(Engine::BitSliced);
        assert!(matches!(
            exhaustive_signed_with(&wide, scalar).unwrap_err(),
            EvalError::WidthTooLarge { width: 32, .. }
        ));
        assert!(matches!(
            exhaustive_signed_with(&wide, bitsliced).unwrap_err(),
            EvalError::WidthTooLarge { width: 32, limit }
                if limit == crate::error::BITSLICED_EXHAUSTIVE_WIDTH_LIMIT
        ));
        let very_wide = signed_sdlc(64, 2).unwrap();
        assert!(matches!(
            sampled_signed_with(&very_wide, 100, 1, scalar).unwrap_err(),
            EvalError::UnsupportedWidth { width: 64, .. }
        ));
        for options in [scalar, bitsliced] {
            assert_eq!(
                sampled_signed_with(&wide, 0, 1, options).unwrap_err(),
                EvalError::NoSamples
            );
        }
    }

    #[test]
    fn worst_red_pair_is_reported_signed() {
        let m = signed_sdlc(8, 4).unwrap();
        let metrics = exhaustive_signed_with(&m, EvalOptions::default()).unwrap();
        let (a, b) = metrics.worst_red_operands_signed().expect("errors exist");
        let (min, max) = crate::signed::signed_operand_range(8);
        assert!((min..=max).contains(&a) && (min..=max).contains(&b));
        // Re-check the reported pair actually achieves the reported RED.
        let exact = a * b;
        let approx = m.multiply_i64(a as i64, b as i64);
        let red = exact.abs_diff(approx) as f64 / exact.unsigned_abs() as f64;
        assert!((red - metrics.max_red).abs() < 1e-12);
    }
}
