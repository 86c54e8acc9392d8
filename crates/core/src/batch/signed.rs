//! Bit-sliced 64-lane twins of the signed sign-magnitude models.
//!
//! Sign handling on bit-planes is three word-wide conditional negations
//! ([`sdlc_wideint::bitplane::negate_planes`]): lanes whose sign plane is
//! set are two's-complement-negated in place — an XOR per plane plus a
//! carry ripple, all 64 lanes at once — so the unsigned engines (and
//! their broadcast/exhaustive-row fast paths) run unchanged on the
//! magnitude planes, exactly mirroring the word-level
//! [`SignMagnitude`](crate::SignMagnitude) adapter.

use sdlc_wideint::bitplane;

use crate::batch::{check_planes, BatchMultiplier, BATCH_MAX_WIDTH, LANES};

/// All-ones pattern mask for `width`-bit operands.
fn mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Interprets the low `bits` of a pattern as two's complement.
pub(crate) fn sign_extend(pattern: u64, bits: u32) -> i128 {
    debug_assert!(bits <= 64);
    i128::from(((pattern << (64 - bits)) as i64) >> (64 - bits))
}

/// The bit-sliced twin of [`SignMagnitude`](crate::SignMagnitude): wraps
/// any unsigned [`BatchMultiplier`] with plane-level sign handling; operands
/// and products are two's-complement bit-plane stacks, bit-exact with the
/// scalar adapter's.
///
/// # Examples
///
/// ```
/// use sdlc_core::batch::LANES;
/// use sdlc_core::{SdlcMultiplier, SignMagnitude, SignedMultiplier};
///
/// let scalar = SignMagnitude::new(SdlcMultiplier::new(8, 2)?);
/// let batch = scalar.batch_model();
/// let a: [i64; LANES] = core::array::from_fn(|i| i as i64 - 32);
/// let b: [i64; LANES] = core::array::from_fn(|i| 100 - 3 * i as i64);
/// let products = batch.multiply_lanes_signed(&a, &b);
/// for i in 0..LANES {
///     assert_eq!(products[i], scalar.multiply_i64(a[i], b[i]));
/// }
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchSignMagnitude<B> {
    inner: B,
}

impl<B: BatchMultiplier> BatchSignMagnitude<B> {
    /// Wraps an unsigned bit-sliced engine.
    pub fn new(inner: B) -> Self {
        Self { inner }
    }

    /// The wrapped unsigned engine.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Conditionally negates the `width` low planes of each operand into a
    /// magnitude stack and returns the sign mask.
    fn magnitude_planes(&self, planes: &[u64]) -> ([u64; BATCH_MAX_WIDTH as usize], u64) {
        let width = self.inner.width() as usize;
        let sign = planes[width - 1];
        let mut magnitude = [0u64; BATCH_MAX_WIDTH as usize];
        magnitude[..width].copy_from_slice(&planes[..width]);
        bitplane::negate_planes(&mut magnitude[..width], sign);
        (magnitude, sign)
    }

    /// Operand width N in bits (at most [`BATCH_MAX_WIDTH`]).
    pub fn width(&self) -> u32 {
        self.inner.width()
    }

    /// Computes 64 signed products from transposed two's-complement
    /// operands: `a` and `b` hold at least `N` planes (plane `N−1` is the
    /// sign plane) and `product` receives exactly `2N` two's-complement
    /// planes.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` holds fewer than `N` planes or `product` does
    /// not hold exactly `2N`.
    pub fn multiply_planes_signed(&self, a: &[u64], b: &[u64], product: &mut [u64]) {
        let width = self.inner.width();
        check_planes(width, a, b, product);
        let (mag_a, sign_a) = self.magnitude_planes(a);
        let (mag_b, sign_b) = self.magnitude_planes(b);
        let planes = width as usize;
        self.inner
            .multiply_planes(&mag_a[..planes], &mag_b[..planes], product);
        bitplane::negate_planes(product, sign_a ^ sign_b);
    }

    /// Evaluates one exhaustive-sweep row: the fixed two's-complement
    /// pattern `a` against every pattern `b` in `[0, count)`, walked in
    /// 64-lane blocks of consecutive patterns, calling
    /// `emit(b0, product_planes)` once per block. Walking *patterns* (not
    /// values) keeps the signed sweeps in the same order as the unsigned
    /// ones, which is what makes the scalar and bit-sliced signed error
    /// drivers bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit the width or `count` is not a positive
    /// multiple of [`LANES`].
    pub fn sweep_operand_row_signed(&self, a: u64, count: u64, emit: &mut dyn FnMut(u64, &[u64])) {
        assert!(
            count >= LANES as u64 && count.is_multiple_of(LANES as u64),
            "sweep rows take 64-aligned block counts"
        );
        let width = self.inner.width();
        let planes = width as usize;
        assert!(a <= mask(width), "left pattern does not fit {width} bits");
        // The broadcast operand's sign and magnitude are block-invariant:
        // compute them once and keep the unsigned engine's broadcast fast
        // path (SDLC's cluster pre-summation) on the magnitude.
        let a_value = sign_extend(a, width);
        let sign_a = if a_value < 0 { u64::MAX } else { 0 };
        let mag_a = a_value.unsigned_abs() as u64;
        let mut b_planes = [0u64; BATCH_MAX_WIDTH as usize];
        let mut product = [0u64; LANES];
        let mut b0 = 0u64;
        while b0 < count {
            bitplane::counter_planes(b0, width, &mut b_planes);
            let sign_b = b_planes[planes - 1];
            bitplane::negate_planes(&mut b_planes[..planes], sign_b);
            self.inner.multiply_planes_bcast(
                mag_a,
                &b_planes[..planes],
                &mut product[..2 * planes],
            );
            bitplane::negate_planes(&mut product[..2 * planes], sign_a ^ sign_b);
            emit(b0, &product[..2 * planes]);
            b0 += LANES as u64;
        }
    }

    /// Convenience wrapper: transposes 64 signed lane-form operand pairs,
    /// evaluates them, and returns the 64 signed products.
    ///
    /// # Panics
    ///
    /// Panics if any operand does not fit in [`BatchSignMagnitude::width`]
    /// signed bits.
    pub fn multiply_lanes_signed(&self, a: &[i64; LANES], b: &[i64; LANES]) -> [i128; LANES] {
        let width = self.width();
        let planes = width as usize;
        let mask = mask(width);
        let to_patterns = |lanes: &[i64; LANES], which: &str| -> [u64; LANES] {
            core::array::from_fn(|i| {
                crate::signed::check_signed_operand(width, i128::from(lanes[i]), which);
                lanes[i] as u64 & mask
            })
        };
        let a_planes = bitplane::transposed64(&to_patterns(a, "left"));
        let b_planes = bitplane::transposed64(&to_patterns(b, "right"));
        let mut product = [0u64; LANES];
        self.multiply_planes_signed(
            &a_planes[..planes],
            &b_planes[..planes],
            &mut product[..2 * planes],
        );
        let lanes = bitplane::transposed64(&product);
        core::array::from_fn(|i| sign_extend(lanes[i], 2 * width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signed::{signed_accurate, signed_sdlc, SignedMultiplier};
    use crate::SignMagnitude;

    #[test]
    fn lanes_agree_with_scalar_in_every_quadrant() {
        let scalar = signed_sdlc(8, 2).unwrap();
        let batch = scalar.batch_model();
        let a: [i64; LANES] = core::array::from_fn(|i| (i as i64 * 5 % 256) - 128);
        let b: [i64; LANES] = core::array::from_fn(|i| 127 - (i as i64 * 7 % 256));
        let products = batch.multiply_lanes_signed(&a, &b);
        for i in 0..LANES {
            assert_eq!(products[i], scalar.multiply_i64(a[i], b[i]), "lane {i}");
        }
    }

    #[test]
    fn sweep_row_matches_scalar_pattern_order() {
        let scalar = signed_accurate(6).unwrap();
        let batch = scalar.batch_model();
        let mut out = [0u64; LANES];
        for a_pattern in [0u64, 17, 32, 63] {
            let a = sign_extend(a_pattern, 6);
            batch.sweep_operand_row_signed(a_pattern, 64, &mut |b0, planes| {
                crate::batch::extract_product_lanes(planes, &mut out);
                for i in 0..LANES {
                    let b = sign_extend(b0 + i as u64, 6);
                    assert_eq!(
                        sign_extend(out[i], 12),
                        scalar.multiply_i64(a as i64, b as i64),
                        "a {a} b {b}"
                    );
                }
            });
        }
    }

    #[test]
    fn min_pattern_lanes_are_exact() {
        let scalar = signed_accurate(16).unwrap();
        let batch = scalar.batch_model();
        let a: [i64; LANES] = [-32768; LANES];
        let b: [i64; LANES] = core::array::from_fn(|i| if i % 2 == 0 { -32768 } else { 32767 });
        let products = batch.multiply_lanes_signed(&a, &b);
        for i in 0..LANES {
            assert_eq!(products[i], i128::from(a[i]) * i128::from(b[i]));
        }
    }

    #[test]
    #[should_panic(expected = "does not fit in 8 signed bits")]
    fn lane_overflow_panics() {
        let batch = signed_accurate(8).unwrap().batch_model();
        let mut a = [0i64; LANES];
        a[13] = 128;
        let _ = batch.multiply_lanes_signed(&a, &[0; LANES]);
    }

    #[test]
    #[should_panic(expected = "up to 32 bits")]
    fn wide_models_are_rejected() {
        let _ = SignMagnitude::new(crate::AccurateMultiplier::new(64).unwrap()).batch_model();
    }
}
