//! Two's-complement signed view over [`U256`].
//!
//! The signed multiplier layer works on two's-complement operands up to
//! 128 bits, whose products need up to 255 magnitude bits — [`I256`] holds
//! any such product exactly. It is a thin interpretation layer: the bits
//! are stored as a [`U256`] and every arithmetic helper is phrased in
//! terms of the unsigned ops, so the unsigned core stays the single source
//! of arithmetic truth.

use core::cmp::Ordering;
use core::fmt;

use crate::U256;

/// 256-bit signed integer in two's-complement representation.
///
/// # Examples
///
/// ```
/// use sdlc_wideint::{I256, U256};
///
/// let a = I256::from_i128(-7);
/// let b = I256::from_sign_magnitude(&U256::from_u64(3), false);
/// assert!(a < b);
/// assert_eq!(a.to_string(), "-7");
/// assert_eq!(a.magnitude(), U256::from_u64(7));
/// assert_eq!(b.to_i128(), Some(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct I256 {
    bits: U256,
}

impl I256 {
    /// The value 0.
    pub const ZERO: Self = Self { bits: U256::ZERO };

    /// Sign-extends an `i128` into the full 256-bit representation.
    #[must_use]
    pub fn from_i128(value: i128) -> Self {
        Self::from_twos_complement(&U256::from_u128(value as u128), 128)
    }

    /// Builds a value from an unsigned magnitude and a sign — the shape
    /// sign-magnitude multipliers produce. `(magnitude, true)` yields
    /// `-magnitude`; a zero magnitude is zero regardless of sign.
    ///
    /// # Panics
    ///
    /// Panics if the magnitude does not fit: 255 bits for positive values,
    /// 2^255 for negative ones.
    #[must_use]
    pub fn from_sign_magnitude(magnitude: &U256, negative: bool) -> Self {
        if negative {
            let neg = U256::ZERO.wrapping_sub(magnitude);
            assert!(
                magnitude.is_zero() || neg.bit(255),
                "magnitude {magnitude} overflows I256"
            );
            Self { bits: neg }
        } else {
            assert!(!magnitude.bit(255), "magnitude {magnitude} overflows I256");
            Self { bits: *magnitude }
        }
    }

    /// Sign-extends the low `width` bits of a raw two's-complement pattern
    /// (e.g. a product bus read back from a netlist).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 256.
    #[must_use]
    pub fn from_twos_complement(bits: &U256, width: u32) -> Self {
        assert!((1..=256).contains(&width), "width {width} out of 1..=256");
        let low = *bits & (U256::MAX >> (256 - width));
        Self {
            bits: if bits.bit(width - 1) {
                low | (U256::MAX << width)
            } else {
                low
            },
        }
    }

    /// Raw two's-complement bit pattern.
    #[must_use]
    pub fn to_twos_complement(&self) -> U256 {
        self.bits
    }

    /// True for values below zero.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.bits.bit(255)
    }

    /// Absolute value as an unsigned integer (`|-2^255|` = `2^255` is
    /// representable, so this never overflows).
    #[must_use]
    pub fn magnitude(&self) -> U256 {
        if self.is_negative() {
            U256::ZERO.wrapping_sub(&self.bits)
        } else {
            self.bits
        }
    }

    /// Converts to `i128` if the value fits.
    #[must_use]
    pub fn to_i128(&self) -> Option<i128> {
        let low = (self.bits & (U256::MAX >> 128)).to_u128()? as i128;
        // The value fits exactly when sign-extending its low 128 bits
        // reproduces it.
        (Self::from_i128(low) == *self).then_some(low)
    }
}

impl Ord for I256 {
    fn cmp(&self, other: &Self) -> Ordering {
        // Negative values first; within one sign, two's-complement order
        // is unsigned order.
        other
            .is_negative()
            .cmp(&self.is_negative())
            .then_with(|| self.bits.cmp(&other.bits))
    }
}

impl PartialOrd for I256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for I256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "-{}", self.magnitude())
        } else {
            write!(f, "{}", self.bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i128_round_trip_covers_extremes() {
        for v in [0i128, 1, -1, 42, -42, i128::MAX, i128::MIN, i128::MIN + 1] {
            let wide = I256::from_i128(v);
            assert_eq!(wide.to_i128(), Some(v), "value {v}");
            assert_eq!(wide.is_negative(), v < 0);
            assert_eq!(wide.to_string(), v.to_string());
            assert_eq!(wide.magnitude(), U256::from_u128(v.unsigned_abs()));
        }
    }

    #[test]
    fn magnitude_of_min_is_exact() {
        let min = I256::from_i128(i128::MIN);
        assert_eq!(min.magnitude(), U256::from_u128(1) << 127);
        let extreme = I256::from_sign_magnitude(&(U256::ONE << 255), true);
        assert_eq!(extreme.magnitude(), U256::ONE << 255);
    }

    #[test]
    fn sign_magnitude_construction() {
        let m = U256::from_u64(500);
        assert_eq!(I256::from_sign_magnitude(&m, false).to_i128(), Some(500));
        assert_eq!(I256::from_sign_magnitude(&m, true).to_i128(), Some(-500));
        assert_eq!(
            I256::from_sign_magnitude(&U256::ZERO, true),
            I256::ZERO,
            "negative zero normalizes"
        );
        // The extreme magnitude 2^255 is representable only negated.
        let extreme = U256::from_u64(1) << 255;
        let v = I256::from_sign_magnitude(&extreme, true);
        assert!(v.is_negative());
        assert_eq!(v.magnitude(), extreme);
    }

    #[test]
    #[should_panic(expected = "overflows I256")]
    fn positive_extreme_magnitude_panics() {
        let extreme = U256::from_u64(1) << 255;
        let _ = I256::from_sign_magnitude(&extreme, false);
    }

    #[test]
    fn twos_complement_sign_extension() {
        // 0xF at width 4 is -1; at width 5 it is +15.
        let raw = U256::from_u64(0xF);
        assert_eq!(I256::from_twos_complement(&raw, 4).to_i128(), Some(-1));
        assert_eq!(I256::from_twos_complement(&raw, 5).to_i128(), Some(15));
        // Bits above the width are ignored.
        let dirty = raw | (U256::ONE << 200);
        assert_eq!(I256::from_twos_complement(&dirty, 4).to_i128(), Some(-1));
        assert_eq!(I256::from_twos_complement(&dirty, 8).to_i128(), Some(15));
        // Full-width patterns pass through.
        let neg = I256::from_i128(-123);
        assert_eq!(
            I256::from_twos_complement(&neg.to_twos_complement(), 256),
            neg
        );
        assert_eq!(
            I256::from_twos_complement(&U256::MAX, 1).to_i128(),
            Some(-1)
        );
    }

    #[test]
    fn to_i128_rejects_wide_values() {
        let big = U256::from_u64(1) << 200;
        assert_eq!(I256::from_sign_magnitude(&big, false).to_i128(), None);
        assert_eq!(I256::from_sign_magnitude(&big, true).to_i128(), None);
        // One past i128::MAX, and exactly i128::MIN.
        let just_over = U256::from_u64(1) << 127;
        assert_eq!(I256::from_sign_magnitude(&just_over, false).to_i128(), None);
        assert_eq!(
            I256::from_sign_magnitude(&just_over, true).to_i128(),
            Some(i128::MIN)
        );
        // One past i128::MIN.
        let below_min = just_over + U256::ONE;
        assert_eq!(I256::from_sign_magnitude(&below_min, true).to_i128(), None);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = I256::from_i128(-100);
        let b = I256::from_i128(30);
        assert!(a < b);
        assert!(I256::from_i128(-2) < I256::from_i128(-1));
        assert!(I256::from_i128(1) > I256::from_i128(-1));
        assert!(I256::from_i128(i128::MIN) < I256::ZERO);
        let extreme = I256::from_sign_magnitude(&(U256::ONE << 255), true);
        let top = I256::from_sign_magnitude(&(U256::MAX >> 1), false);
        assert!(extreme < I256::from_i128(i128::MIN));
        assert!(top > I256::from_i128(i128::MAX));
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
