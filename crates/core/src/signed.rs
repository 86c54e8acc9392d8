//! Signed (two's-complement) multipliers via sign-magnitude adaptation.
//!
//! The paper's SDLC scheme — and every baseline it compares against — is
//! defined over unsigned dot diagrams, but the realistic consumers of an
//! approximate multiplier (edge-detection kernels with negative taps, DNN
//! inference) multiply signed operands. [`SignMagnitude`] closes that gap
//! without touching the unsigned cores: it decomposes each
//! two's-complement operand into `(sign, magnitude)`, runs the wrapped
//! unsigned [`Multiplier`] on the magnitudes, and re-applies the XOR of
//! the signs to the product. For an exact core this *is* two's-complement
//! multiplication; for an approximate core the error profile of the
//! unsigned design carries over symmetrically in every quadrant.
//!
//! The adapter accepts any unsigned model — [`AccurateMultiplier`], every
//! [`SdlcMultiplier`] variant and depth schedule,
//! and the truncated/Kulkarni/ETM baselines — and has a bit-sliced twin
//! ([`crate::batch::BatchSignMagnitude`]) plus a gate-level counterpart
//! ([`crate::circuits::signed_multiplier`]).

use sdlc_wideint::{I256, U256};

use crate::batch::{BatchSignMagnitude, Batchable};
use crate::multiplier::{AccurateMultiplier, Multiplier, SpecError, MAX_WIDTH};
use crate::sdlc::SdlcMultiplier;

/// Inclusive operand range of an `N`-bit two's-complement multiplier:
/// `[-2^{N-1}, 2^{N-1} - 1]`.
///
/// # Panics
///
/// Panics if `width` is 0 or exceeds 128.
#[must_use]
pub fn signed_operand_range(width: u32) -> (i128, i128) {
    assert!(
        (1..=MAX_WIDTH).contains(&width),
        "width {width} out of 1..=128"
    );
    if width == 128 {
        (i128::MIN, i128::MAX)
    } else {
        (-(1i128 << (width - 1)), (1i128 << (width - 1)) - 1)
    }
}

/// Validates that a signed operand fits in `width` bits two's complement.
pub(crate) fn check_signed_operand(width: u32, operand: i128, which: &str) {
    let (min, max) = signed_operand_range(width);
    assert!(
        (min..=max).contains(&operand),
        "{which} operand {operand} does not fit in {width} signed bits"
    );
}

/// A combinational N×N signed (two's-complement) multiplier model.
///
/// Operands live in `[-2^{N-1}, 2^{N-1} - 1]` — including the most
/// negative value, whose magnitude `2^{N-1}` still fits the `N`-bit
/// unsigned core. Products are returned as [`I256`] so no width silently
/// truncates; the `multiply_i64` fast path serves exhaustive signed error
/// sweeps for widths up to 32 bits.
///
/// # Examples
///
/// ```
/// use sdlc_core::{AccurateMultiplier, SignMagnitude, SignedMultiplier};
///
/// let m = SignMagnitude::new(AccurateMultiplier::new(16)?);
/// assert_eq!(m.multiply_i64(-32_768, 32_767), -32_768i128 * 32_767);
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
pub trait SignedMultiplier {
    /// Operand width N in bits, sign bit included.
    fn width(&self) -> u32;

    /// Stable human-readable identifier used in reports
    /// (e.g. `"signed_sdlc8_d2"`).
    fn name(&self) -> String;

    /// Computes the (possibly approximate) signed product.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in [`SignedMultiplier::width`]
    /// signed bits.
    fn multiply_signed(&self, a: i128, b: i128) -> I256;

    /// Fast-path product for widths ≤ 32 bits (products fit `i128`).
    ///
    /// The default implementation routes through
    /// [`SignedMultiplier::multiply_signed`]; performance-sensitive models
    /// override it.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 32 bits or an operand does not fit.
    fn multiply_i64(&self, a: i64, b: i64) -> i128 {
        assert!(
            self.width() <= 32,
            "multiply_i64 supports widths up to 32 bits, got {}",
            self.width()
        );
        self.multiply_signed(i128::from(a), i128::from(b))
            .to_i128()
            .expect("product of <=32-bit operands fits in i128")
    }

    /// Largest exact product magnitude, `(2^{N-1})² = |MIN|²` — the signed
    /// `Pmax` normalizing the signed NMED.
    fn max_product_magnitude(&self) -> U256 {
        U256::ONE << (2 * self.width() - 2)
    }
}

/// Sign-magnitude adapter turning any unsigned [`Multiplier`] into a
/// [`SignedMultiplier`].
///
/// The magnitude of every representable operand — `|MIN| = 2^{N-1}`
/// included — fits the wrapped `N`-bit unsigned model, so the full
/// two's-complement range is supported with no excluded corner. The
/// negation at `i128::MIN`-style edges is computed through
/// `unsigned_abs`, which cannot overflow.
///
/// # Examples
///
/// ```
/// use sdlc_core::{Multiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier};
///
/// let approx = SignMagnitude::new(SdlcMultiplier::new(8, 2)?);
/// assert_eq!(approx.name(), "signed_sdlc8_d2");
/// // Sign-magnitude symmetry: the error profile is the unsigned one,
/// // mirrored into every quadrant.
/// let inner = SdlcMultiplier::new(8, 2)?;
/// let magnitude = inner.multiply_u64(100, 27);
/// assert_eq!(approx.multiply_i64(-100, 27), -(magnitude as i128));
/// assert_eq!(approx.multiply_i64(-100, -27), magnitude as i128);
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignMagnitude<M> {
    inner: M,
}

impl<M: Multiplier> SignMagnitude<M> {
    /// Wraps an unsigned model; the signed width equals the inner width.
    pub fn new(inner: M) -> Self {
        Self { inner }
    }

    /// The wrapped unsigned model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Batchable> SignMagnitude<M> {
    /// Builds the bit-sliced 64-lane twin (sign planes handled with
    /// word-wide negate/select; see [`crate::batch::BatchSignMagnitude`]).
    ///
    /// # Panics
    ///
    /// Panics if the inner model is wider than
    /// [`crate::batch::BATCH_MAX_WIDTH`] bits.
    pub fn batch_model(&self) -> BatchSignMagnitude<M::Batch> {
        BatchSignMagnitude::new(self.inner.batch_model())
    }
}

impl<M: Multiplier> SignedMultiplier for SignMagnitude<M> {
    fn width(&self) -> u32 {
        self.inner.width()
    }

    fn name(&self) -> String {
        format!("signed_{}", self.inner.name())
    }

    fn multiply_signed(&self, a: i128, b: i128) -> I256 {
        let width = self.inner.width();
        check_signed_operand(width, a, "left");
        check_signed_operand(width, b, "right");
        let magnitude = self.inner.multiply(a.unsigned_abs(), b.unsigned_abs());
        I256::from_sign_magnitude(&magnitude, (a < 0) != (b < 0))
    }

    fn multiply_i64(&self, a: i64, b: i64) -> i128 {
        let width = self.inner.width();
        assert!(
            width <= 32,
            "multiply_i64 supports widths up to 32 bits, got {width}"
        );
        check_signed_operand(width, i128::from(a), "left");
        check_signed_operand(width, i128::from(b), "right");
        let magnitude = self.inner.multiply_u64(a.unsigned_abs(), b.unsigned_abs());
        let magnitude = i128::try_from(magnitude).expect("magnitude product fits i128");
        if (a < 0) != (b < 0) {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// Builds the exact signed reference multiplier — shorthand for
/// `SignMagnitude::new(AccurateMultiplier::new(width)?)` that surfaces the
/// width validation (0, odd and over-wide specs are rejected) on the
/// signed API.
///
/// # Errors
///
/// Returns [`SpecError`] if the width is odd or outside `2..=128`.
pub fn signed_accurate(width: u32) -> Result<SignMagnitude<AccurateMultiplier>, SpecError> {
    Ok(SignMagnitude::new(AccurateMultiplier::new(width)?))
}

/// Builds a signed SDLC multiplier with uniform cluster `depth` —
/// shorthand for `SignMagnitude::new(SdlcMultiplier::new(width, depth)?)`.
///
/// # Errors
///
/// Returns [`SpecError`] for invalid widths or depths.
pub fn signed_sdlc(width: u32, depth: u32) -> Result<SignMagnitude<SdlcMultiplier>, SpecError> {
    Ok(SignMagnitude::new(SdlcMultiplier::new(width, depth)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};

    #[test]
    fn accurate_signed_matches_primitive_in_all_quadrants() {
        let m = signed_accurate(8).unwrap();
        for (a, b) in [(5i64, 7i64), (-5, 7), (5, -7), (-5, -7), (-128, -128)] {
            assert_eq!(m.multiply_i64(a, b), i128::from(a) * i128::from(b));
        }
        assert_eq!(m.name(), "signed_accurate8");
        assert_eq!(m.width(), 8);
    }

    #[test]
    fn min_magnitude_is_handled_at_full_width() {
        let m = signed_accurate(128).unwrap();
        // |i128::MIN| = 2^127 does not fit i128 — unsigned_abs avoids the
        // overflow and the product is exact.
        let p = m.multiply_signed(i128::MIN, -1);
        assert_eq!(p.magnitude(), U256::from_u128(1) << 127);
        assert!(!p.is_negative());
        let pp = m.multiply_signed(i128::MIN, i128::MIN);
        assert_eq!(pp.magnitude(), U256::from_u64(1) << 254);
        assert_eq!(pp.to_twos_complement(), m.max_product_magnitude());
    }

    #[test]
    fn sign_magnitude_mirrors_the_unsigned_error_profile() {
        let unsigned = SdlcMultiplier::new(8, 3).unwrap();
        let signed = SignMagnitude::new(unsigned.clone());
        for (a, b) in [(100i64, 77i64), (13, 99), (127, 127)] {
            let magnitude = unsigned.multiply_u64(a as u64, b as u64) as i128;
            assert_eq!(signed.multiply_i64(a, b), magnitude);
            assert_eq!(signed.multiply_i64(-a, b), -magnitude);
            assert_eq!(signed.multiply_i64(a, -b), -magnitude);
            assert_eq!(signed.multiply_i64(-a, -b), magnitude);
        }
    }

    #[test]
    fn adapter_accepts_every_baseline() {
        let a = -77i64;
        let b = 33i64;
        let exact = i128::from(a * b);
        for m in [
            Box::new(SignMagnitude::new(TruncatedMultiplier::new(8, 4).unwrap()))
                as Box<dyn SignedMultiplier>,
            Box::new(SignMagnitude::new(KulkarniMultiplier::new(8).unwrap())),
            Box::new(SignMagnitude::new(EtmMultiplier::new(8).unwrap())),
        ] {
            let p = m.multiply_i64(a, b);
            assert!(p <= 0, "{}: sign must survive approximation", m.name());
            assert!(
                (exact - p).abs() < 1 << 12,
                "{}: error unexpectedly large",
                m.name()
            );
        }
    }

    #[test]
    fn spec_errors_propagate_through_the_signed_constructors() {
        assert!(matches!(
            signed_accurate(0).unwrap_err(),
            SpecError::Width { width: 0, .. }
        ));
        assert!(signed_accurate(130).is_err());
        assert!(signed_sdlc(7, 2).is_err());
        assert!(signed_sdlc(8, 9).is_err());
    }

    #[test]
    fn signed_range_and_pmax() {
        assert_eq!(signed_operand_range(8), (-128, 127));
        assert_eq!(signed_operand_range(128), (i128::MIN, i128::MAX));
        let m = signed_accurate(8).unwrap();
        assert_eq!(m.max_product_magnitude(), U256::from_u64(128 * 128));
    }

    #[test]
    #[should_panic(expected = "does not fit in 8 signed bits")]
    fn overflowing_operand_panics() {
        let m = signed_accurate(8).unwrap();
        let _ = m.multiply_i64(128, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit in 8 signed bits")]
    fn underflowing_operand_panics() {
        let m = signed_accurate(8).unwrap();
        let _ = m.multiply_signed(-129, 1);
    }
}
