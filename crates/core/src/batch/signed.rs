//! Bit-sliced 64-lane twins of the signed sign-magnitude models.
//!
//! Sign handling is one per-lane rule around the unsigned twin, exactly
//! mirroring the word-level [`SignMagnitude`](crate::SignMagnitude)
//! adapter: the unsigned engine multiplies the operand magnitudes
//! (`|MIN| = 2^{N−1}` still fits its `N` bits), and the product lane is
//! that magnitude as a `2N`-bit two's-complement pattern, negated iff the
//! operand signs differ. Exhaustive rows sweep the magnitudes once through
//! the twin's lane-form row and relabel them per pattern; the plane-form
//! products of `verify` negate whole planes instead
//! ([`sdlc_wideint::bitplane::negate_planes`]).

use sdlc_wideint::bitplane;

use crate::batch::{check_row_count, multiply_block, BatchMultiplier, BATCH_MAX_WIDTH, LANES};

/// All-ones pattern mask for `width`-bit operands (`1 ≤ width ≤ 64`).
fn mask(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// Interprets the low `bits` of a pattern as two's complement.
pub(crate) fn sign_extend(pattern: u64, bits: u32) -> i128 {
    debug_assert!(bits <= 64);
    i128::from(((pattern << (64 - bits)) as i64) >> (64 - bits))
}

/// Splits a `width`-bit two's-complement pattern (bits above `width` are
/// ignored) into its magnitude and whether it is negative.
#[inline]
fn sign_and_magnitude(pattern: u64, width: u32) -> (u64, bool) {
    let value = sign_extend(pattern, width) as i64;
    (value.unsigned_abs(), value < 0)
}

/// The sign rule: the unsigned core's product of the operand magnitudes as
/// a `2N`-bit two's-complement product lane, negated iff `negative` (the
/// operand signs differ).
#[inline]
fn signed_lane(magnitude: u64, negative: bool, width: u32) -> u64 {
    let flip = u64::from(negative).wrapping_neg();
    (magnitude ^ flip).wrapping_sub(flip) & mask(2 * width)
}

/// The magnitudes of `planes`-bit two's-complement pattern planes: a copy
/// negated by its sign plane.
#[inline]
fn magnitude_planes(pattern: &[u64], planes: usize) -> [u64; BATCH_MAX_WIDTH as usize] {
    let mut out = [0u64; BATCH_MAX_WIDTH as usize];
    out[..planes].copy_from_slice(&pattern[..planes]);
    bitplane::negate_planes(&mut out[..planes], pattern[planes - 1]);
    out
}

/// The bit-sliced twin of [`SignMagnitude`](crate::SignMagnitude): wraps
/// any unsigned [`BatchMultiplier`] with per-lane sign handling; operands
/// and products are two's-complement patterns, bit-exact with the scalar
/// adapter's.
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

    /// Operand width N in bits (at most [`BATCH_MAX_WIDTH`]).
    pub fn width(&self) -> u32 {
        self.inner.width()
    }

    /// The signed [`BatchMultiplier::multiply_planes`]: 64 products of
    /// transposed two's-complement patterns (`a` and `b` hold at least `N`
    /// planes; `product` receives exactly the `2N` product planes). The
    /// magnitudes, copies of the operands negated by their sign planes, go
    /// through the inner twin, and the product is negated by
    /// `sign_a ^ sign_b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` holds fewer than `N` planes or `product` does
    /// not hold exactly `2N`.
    pub fn multiply_planes_signed(&self, a: &[u64], b: &[u64], product: &mut [u64]) {
        crate::batch::check_planes(self.width(), a, b, product);
        let planes = self.width() as usize;
        let (a_magnitude, b_magnitude) = (magnitude_planes(a, planes), magnitude_planes(b, planes));
        self.inner
            .multiply_planes(&a_magnitude[..planes], &b_magnitude[..planes], product);
        bitplane::negate_planes(product, a[planes - 1] ^ b[planes - 1]);
    }

    /// The signed [`BatchMultiplier::multiply_planes_bcast`]:
    /// [`BatchSignMagnitude::multiply_planes_signed`] with the pattern `a`
    /// in every lane, its sign and magnitude taken once.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit the width or the plane slices are
    /// missized.
    pub fn multiply_planes_bcast_signed(&self, a: u64, b: &[u64], product: &mut [u64]) {
        let width = self.width();
        assert!(a <= mask(width), "left pattern does not fit {width} bits");
        let planes = width as usize;
        assert!(b.len() >= planes, "right operand needs {planes} planes");
        let (a_magnitude, negative) = sign_and_magnitude(a, width);
        let b_magnitude = magnitude_planes(b, planes);
        self.inner
            .multiply_planes_bcast(a_magnitude, &b_magnitude[..planes], product);
        bitplane::negate_planes(product, u64::from(negative).wrapping_neg() ^ b[planes - 1]);
    }

    /// One exhaustive row in lane form: the fixed two's-complement pattern
    /// `a` against every pattern `b` in `[0, count)`, one
    /// `emit(b0, products)` per 64-lane block in ascending `b0`, lane `i`
    /// holding the `2N`-bit product pattern of `(a, b0 + i)` (`b` taken
    /// modulo `2^N`). Walking *patterns* (not values) keeps the signed
    /// sweeps in the unsigned ones' order.
    ///
    /// The inner twin's lane-form row sweeps `|a|` against the magnitudes
    /// `0..=2^{N−1}` once into `row` (reused across rows, `2^{N−1} + 64`
    /// entries); lane `i` is then the sign rule applied to
    /// `row[|b0 + i|]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit the width or `count` is not a positive
    /// multiple of [`LANES`].
    pub(crate) fn sweep_row_lanes(
        &self,
        a: u64,
        count: u64,
        row: &mut Vec<u64>,
        emit: &mut dyn FnMut(u64, &[u64; LANES]),
    ) {
        let width = self.width();
        assert!(a <= mask(width), "left pattern does not fit {width} bits");
        check_row_count(count);
        let (a_magnitude, a_negative) = sign_and_magnitude(a, width);
        // `|MIN| = 2^{N−1}` takes one block past the non-negative half.
        let magnitudes = ((1u64 << (width - 1)) + 1).next_multiple_of(LANES as u64);
        row.clear();
        self.inner
            .sweep_operand_row_lanes(a_magnitude, magnitudes, &mut |_, lanes| {
                row.extend_from_slice(lanes);
            });
        let mut out = [0u64; LANES];
        let mut b0 = 0u64;
        while b0 < count {
            for (i, slot) in out.iter_mut().enumerate() {
                let (magnitude, negative) = sign_and_magnitude(b0 + i as u64, width);
                *slot = signed_lane(row[magnitude as usize], negative != a_negative, width);
            }
            emit(b0, &out);
            b0 += LANES as u64;
        }
    }

    /// 64 signed products of two's-complement patterns: `out[i]` is the
    /// `2N`-bit product pattern of `(a[i], b[i])`. The magnitudes run
    /// through the inner twin's lane-form block product, then the sign
    /// rule. Patterns are not checked.
    pub(crate) fn multiply_patterns(&self, a: &[u64; LANES], b: &[u64; LANES]) -> [u64; LANES] {
        let width = self.width();
        let magnitudes = |lanes: &[u64; LANES]| lanes.map(|lane| sign_and_magnitude(lane, width).0);
        let products = multiply_block(&self.inner, &magnitudes(a), &magnitudes(b));
        // The signs differ iff the patterns' XOR has the sign bit set.
        let negative = |i: usize| (a[i] ^ b[i]) >> (width - 1) & 1 == 1;
        core::array::from_fn(|i| signed_lane(products[i], negative(i), width))
    }

    /// Computes 64 signed lane-form products: `product[i]` belongs to
    /// `(a[i], b[i])`.
    ///
    /// # Panics
    ///
    /// Panics if any operand does not fit in [`BatchSignMagnitude::width`]
    /// signed bits.
    pub fn multiply_lanes_signed(&self, a: &[i64; LANES], b: &[i64; LANES]) -> [i128; LANES] {
        let width = self.width();
        let mask = mask(width);
        let to_patterns = |lanes: &[i64; LANES], which: &str| -> [u64; LANES] {
            core::array::from_fn(|i| {
                crate::signed::check_signed_operand(width, i128::from(lanes[i]), which);
                lanes[i] as u64 & mask
            })
        };
        self.multiply_patterns(&to_patterns(a, "left"), &to_patterns(b, "right"))
            .map(|lane| sign_extend(lane, 2 * width))
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
        // The plane form, on lane-varying patterns.
        let planes = |lanes: &[i64; LANES]| bitplane::transposed64(&lanes.map(|v| v as u64 & 0xFF));
        let mut product = [0u64; LANES];
        batch.multiply_planes_signed(&planes(&a), &planes(&b), &mut product[..16]);
        let lanes = bitplane::transposed64(&product);
        for i in 0..LANES {
            assert_eq!(sign_extend(lanes[i], 16), products[i], "plane lane {i}");
        }
    }

    #[test]
    fn sweep_row_matches_scalar_pattern_order() {
        let scalar = signed_accurate(6).unwrap();
        let batch = scalar.batch_model();
        let mut row = Vec::new();
        for a_pattern in [0u64, 17, 32, 63] {
            let a = sign_extend(a_pattern, 6);
            batch.sweep_row_lanes(a_pattern, 64, &mut row, &mut |b0, out| {
                for (i, &lane) in out.iter().enumerate() {
                    let b = sign_extend(b0 + i as u64, 6);
                    assert_eq!(
                        sign_extend(lane, 12),
                        scalar.multiply_i64(a as i64, b as i64),
                        "a {a} b {b}"
                    );
                }
            });
        }
    }

    #[test]
    fn exhaustive_block_planes_hold_the_scalar_products() {
        // An exhaustive block: the pattern `a` against the counter
        // `b0 + i`, through the broadcast form and through the plane form
        // on `a`'s broadcast planes. Width 4 wraps the `b` patterns within
        // the block.
        for (width, a) in [(4u32, 0b1011u64), (4, 0b0011), (8, 0x80), (8, 0x7F)] {
            let scalar = signed_sdlc(width, 2).unwrap();
            let batch = scalar.batch_model();
            let planes = 2 * width as usize;
            for b0 in [0u64, 128] {
                let (mut a_planes, mut b_planes) = ([0u64; LANES], [0u64; LANES]);
                bitplane::broadcast_planes(a, width, &mut a_planes);
                bitplane::counter_planes(b0, width, &mut b_planes);
                let mut product = [0u64; LANES];
                batch.multiply_planes_bcast_signed(a, &b_planes, &mut product[..planes]);
                let mut general = [0u64; LANES];
                batch.multiply_planes_signed(&a_planes, &b_planes, &mut general[..planes]);
                assert_eq!(general, product, "{width}-bit a {a:#x} b0 {b0}");
                let lanes = bitplane::transposed64(&product);
                for (i, &lane) in lanes.iter().enumerate() {
                    let (x, y) = (sign_extend(a, width), sign_extend(b0 + i as u64, width));
                    assert_eq!(
                        sign_extend(lane, 2 * width),
                        scalar.multiply_i64(x as i64, y as i64),
                        "{x} x {y}"
                    );
                }
            }
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
