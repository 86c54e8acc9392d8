//! Conversions between [`U256`] and primitive integers and floats.

use crate::U256;

impl U256 {
    /// Constructs from a `u64`.
    #[must_use]
    pub fn from_u64(value: u64) -> Self {
        Self {
            limbs: [value, 0, 0, 0],
        }
    }

    /// Constructs from a `u128`.
    #[must_use]
    pub fn from_u128(value: u128) -> Self {
        Self {
            limbs: [value as u64, (value >> 64) as u64, 0, 0],
        }
    }

    /// Converts to `u128`, returning `None` when the value does not fit.
    #[must_use]
    pub fn to_u128(&self) -> Option<u128> {
        let [lo, hi, 0, 0] = self.limbs else {
            return None;
        };
        Some(u128::from(lo) | (u128::from(hi) << 64))
    }

    /// Converts to the nearest `f64` (ties to even), rounding exactly as
    /// `u128 as f64` does for values that fit.
    ///
    /// # Examples
    ///
    /// ```
    /// # use sdlc_wideint::U256;
    /// let x = U256::from_u64(1) << 200;
    /// assert_eq!(x.to_f64(), 2f64.powi(200));
    /// let y = (1u128 << 117) + (1 << 64) + 1;
    /// assert_eq!(U256::from_u128(y).to_f64(), y as f64);
    /// ```
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let len = self.bit_len();
        if len <= 64 {
            return self.limbs[0] as f64;
        }
        // The top 64 significant bits carry the 53-bit mantissa and the
        // round bit; the bits below only decide ties. OR-ing a sticky bit
        // for them into bit 0 (never the round bit) makes the `u64 → f64`
        // cast round as if it saw them all.
        let shift = len - 64;
        let top = (*self >> shift).limbs[0];
        let sticky = u64::from(*self != (*self >> shift) << shift);
        ((top | sticky) as f64) * 2f64.powi(shift as i32)
    }
}

#[cfg(test)]
mod tests {
    use crate::U256;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(U256::from_u64(42).to_u128(), Some(42));
        assert_eq!(U256::from_u128(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(
            U256::from_u128(u128::from(u64::MAX)),
            U256::from_u64(u64::MAX)
        );
        let big = U256::from_u64(1) << 130;
        assert_eq!(big.to_u128(), None);
        assert_eq!((U256::ONE << 128).to_u128(), None);
        assert_eq!(((U256::ONE << 128) >> 1).to_u128(), Some(1 << 127));
    }

    #[test]
    fn to_f64_precision() {
        assert_eq!(U256::from_u64(12345).to_f64(), 12345.0);
        let x = U256::from_u128((1u128 << 90) + (1 << 30));
        assert_eq!(x.to_f64(), ((1u128 << 90) + (1 << 30)) as f64);
        assert_eq!(U256::ZERO.to_f64(), 0.0);
        // 2^256 − 1 rounds up to 2^256, as the nearest f64 is.
        assert_eq!(U256::MAX.to_f64(), 2f64.powi(256));
    }

    #[test]
    fn to_f64_rounds_ties_with_the_discarded_bits() {
        // Bits 117 and 64 make the top-64 window an exact half-ulp tie;
        // the +1 below the window breaks it upward. Truncating the window
        // first rounded this to even (down).
        let witness = (1u128 << 117) + (1 << 64) + 1;
        assert_eq!(U256::from_u128(witness).to_f64(), witness as f64);
        assert_eq!(
            U256::from_u128(witness).to_f64(),
            1.661_534_994_731_145_2e35
        );
        // Without the +1 the tie stays and rounds to even.
        let tie = (1u128 << 117) + (1 << 64);
        assert_eq!(U256::from_u128(tie).to_f64(), tie as f64);
        // The same tie above 128 bits, where no primitive cast exists.
        let wide = (U256::from_u128(witness) << 100).to_f64();
        assert_eq!(wide, witness as f64 * 2f64.powi(100));
    }
}
