//! Representation and bit-level accessors of [`U256`].

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs —
/// wide enough for any product of two 128-bit operands.
///
/// `U256` behaves like the primitive unsigned integers: it is `Copy`,
/// ordered and hashable. The `+`/`-` operators panic on overflow in debug
/// builds and wrap in release builds; [`U256::wrapping_add`] and
/// [`U256::wrapping_mul`] always wrap modulo 2^256.
///
/// # Examples
///
/// ```
/// use sdlc_wideint::U256;
///
/// let a = U256::from_u128(u128::MAX);
/// let p = a.wrapping_mul(&a); // (2^128 − 1)^2 = 2^256 − 2^129 + 1 fits
/// assert_eq!(p >> 128, U256::from_u128(u128::MAX - 1));
/// assert_eq!(p & U256::from_u128(u128::MAX), U256::ONE);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct U256 {
    pub(crate) limbs: [u64; 4],
}

impl U256 {
    /// The value `0`.
    pub const ZERO: Self = Self { limbs: [0; 4] };

    /// The value `1`.
    pub const ONE: Self = Self {
        limbs: [1, 0, 0, 0],
    };

    /// The largest representable value, 2^256 − 1.
    pub const MAX: Self = Self {
        limbs: [u64::MAX; 4],
    };

    /// Returns `true` when the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Reads bit `i` (bit 0 is the least significant).
    pub(crate) fn bit(&self, i: u32) -> bool {
        assert!(i < 256, "bit index {i} out of range for 256 bits");
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` (bit 0 is the least significant) to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn set_bit(&mut self, i: u32, value: bool) {
        assert!(i < 256, "bit index {i} out of range for 256 bits");
        let limb = &mut self.limbs[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        if value {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
    }

    /// Position of the most significant set bit plus one; `0` for zero.
    pub(crate) fn bit_len(&self) -> u32 {
        (0..4)
            .rev()
            .find(|&i| self.limbs[i] != 0)
            .map_or(0, |i| 64 * i as u32 + 64 - self.limbs[i].leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use crate::U256;

    #[test]
    fn constants() {
        assert!(U256::ZERO.is_zero());
        assert_eq!(U256::ZERO, U256::default());
        assert_eq!(U256::ONE.bit_len(), 1);
        assert_eq!(U256::MAX.bit_len(), 256);
        assert_eq!(U256::MAX.wrapping_add(&U256::ONE), U256::ZERO);
    }

    #[test]
    fn bit_get_set_roundtrip() {
        let mut x = U256::ZERO;
        for i in [0u32, 1, 63, 64, 127, 128, 255] {
            x.set_bit(i, true);
            assert!(x.bit(i), "bit {i} should be set");
            assert_eq!(x.bit_len(), i + 1);
        }
        for i in [0u32, 1, 63, 64, 127, 128, 255] {
            x.set_bit(i, false);
        }
        assert!(x.is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let mut x = U256::ZERO;
        x.set_bit(256, true);
    }
}
