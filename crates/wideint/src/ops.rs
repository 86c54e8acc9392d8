//! Arithmetic, bitwise, shift and comparison operations for [`U256`].

use core::cmp::Ordering;
use core::ops::{Add, BitAnd, BitOr, Shl, Shr, Sub};

use crate::U256;

impl U256 {
    /// Adds, reporting whether the sum wrapped.
    fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
        let mut out = Self::ZERO;
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            out.limbs[i] = s2;
            carry = c1 || c2;
        }
        (out, carry)
    }

    /// Subtracts, reporting whether the difference wrapped below zero.
    fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
        let mut out = Self::ZERO;
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            out.limbs[i] = d2;
            borrow = b1 || b2;
        }
        (out, borrow)
    }

    /// Adds with wraparound modulo 2^256.
    #[must_use]
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Subtracts with wraparound modulo 2^256.
    pub(crate) fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Absolute difference, `|self − rhs|`; never overflows.
    ///
    /// This is the *error distance* primitive of the error-analysis engine.
    #[must_use]
    pub fn abs_diff(&self, rhs: &Self) -> Self {
        if self >= rhs {
            self.wrapping_sub(rhs)
        } else {
            rhs.wrapping_sub(self)
        }
    }

    /// Schoolbook multiply modulo 2^256. Exact for any product of two
    /// 128-bit operands.
    ///
    /// # Examples
    ///
    /// ```
    /// # use sdlc_wideint::U256;
    /// let big = U256::from_u128(u128::MAX);
    /// assert_eq!(big.wrapping_mul(&U256::from_u64(2)), big << 1);
    /// assert_eq!(U256::MAX.wrapping_mul(&U256::MAX), U256::ONE); // mod 2^256
    /// ```
    #[must_use]
    pub fn wrapping_mul(&self, rhs: &Self) -> Self {
        let mut out = Self::ZERO;
        for i in 0..4 {
            let a = u128::from(self.limbs[i]);
            let mut carry = 0u128;
            // (2^64−1)^2 + 2·(2^64−1) = 2^128 − 1: `t` never overflows.
            for j in 0..4 - i {
                let t = a * u128::from(rhs.limbs[j]) + u128::from(out.limbs[i + j]) + carry;
                out.limbs[i + j] = t as u64;
                carry = t >> 64;
            }
        }
        out
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.limbs.iter().rev().cmp(other.limbs.iter().rev())
    }
}

impl Add for U256 {
    type Output = U256;

    /// Panics on overflow in debug builds and wraps in release builds,
    /// like the primitive integers.
    fn add(self, rhs: U256) -> U256 {
        let (sum, overflow) = self.overflowing_add(&rhs);
        debug_assert!(!overflow, "attempt to add with overflow");
        sum
    }
}

impl Sub for U256 {
    type Output = U256;

    /// Panics on underflow in debug builds and wraps in release builds,
    /// like the primitive integers.
    fn sub(self, rhs: U256) -> U256 {
        let (diff, overflow) = self.overflowing_sub(&rhs);
        debug_assert!(!overflow, "attempt to subtract with overflow");
        diff
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256 {
            limbs: core::array::from_fn(|i| self.limbs[i] & rhs.limbs[i]),
        }
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256 {
            limbs: core::array::from_fn(|i| self.limbs[i] | rhs.limbs[i]),
        }
    }
}

impl Shl<u32> for U256 {
    type Output = U256;

    /// Logical shift left; shifts of 256 or more yield zero.
    fn shl(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let (limb_shift, bit_shift) = ((shift / 64) as usize, shift % 64);
        let mut out = U256::ZERO;
        for i in limb_shift..4 {
            out.limbs[i] = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out.limbs[i] |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        out
    }
}

impl Shr<u32> for U256 {
    type Output = U256;

    /// Logical shift right; shifts of 256 or more yield zero.
    fn shr(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let (limb_shift, bit_shift) = ((shift / 64) as usize, shift % 64);
        let mut out = U256::ZERO;
        for i in 0..4 - limb_shift {
            out.limbs[i] = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                out.limbs[i] |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::U256;

    #[test]
    fn add_sub_roundtrip() {
        let a = U256::from_u128(u128::MAX) << 17;
        let b = U256::from_u64(0x1234_5678_9abc_def0);
        assert_eq!((a + b) - b, a);
        assert_eq!((a + b) - a, b);
    }

    #[test]
    fn overflow_flags() {
        // The wrapping forms wrap modulo 2^256 at both ends of the range.
        assert_eq!(U256::MAX.wrapping_add(&U256::ONE), U256::ZERO);
        assert_eq!(U256::MAX.wrapping_add(&U256::MAX), U256::MAX - U256::ONE);
        assert_eq!(U256::MAX.wrapping_mul(&U256::MAX), U256::ONE);
        assert_eq!(
            (U256::ONE << 255).wrapping_mul(&U256::from_u64(2)),
            U256::ZERO
        );
        assert_eq!(U256::ZERO.abs_diff(&U256::MAX), U256::MAX);
    }

    #[test]
    fn mul_matches_u128() {
        for (a, b) in [
            (3u64, 5u64),
            (u64::MAX, u64::MAX),
            (0, 77),
            (1 << 40, 1 << 41),
        ] {
            let expect = u128::from(a) * u128::from(b);
            let got = U256::from_u64(a).wrapping_mul(&U256::from_u64(b));
            assert_eq!(got, U256::from_u128(expect), "{a} * {b}");
        }
    }

    #[test]
    fn widening_mul_carries_into_high() {
        // (2^128 − 1)^2 = 2^256 − 2^129 + 1: every partial product
        // carries into the high 128 bits, and nothing is lost.
        let max = U256::from_u128(u128::MAX);
        let p = max.wrapping_mul(&max);
        assert_eq!(p & max, U256::ONE);
        assert_eq!(p >> 128, U256::from_u128(u128::MAX - 1));
    }

    #[test]
    fn shifts() {
        let x = U256::from_u64(1);
        assert_eq!((x << 255) >> 255, x);
        assert_eq!(x << 256, U256::ZERO);
        assert_eq!(U256::MAX >> 256, U256::ZERO);
        let y = U256::from_u128(0xdead_beef_cafe_babe_1234_5678_9abc_def0);
        assert_eq!((y << 64) >> 64, y);
        assert_eq!((y << 3) >> 3, y);
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = U256::from_u64(100);
        let b = U256::from_u64(300);
        assert_eq!(a.abs_diff(&b), U256::from_u64(200));
        assert_eq!(b.abs_diff(&a), U256::from_u64(200));
        assert_eq!(a.abs_diff(&a), U256::ZERO);
    }

    #[test]
    fn ordering() {
        let a = U256::from_u64(5) << 200;
        let b = U256::from_u64(6) << 100;
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
        assert!(U256::from_u128(1 << 64) > U256::from_u64(u64::MAX));
    }

    #[test]
    fn bitwise_ops() {
        let a = U256::from_u128(0xf0f0) << 130;
        let b = U256::from_u128(0x0ff0) << 130;
        assert_eq!(a & b, U256::from_u128(0x00f0) << 130);
        assert_eq!(a | b, U256::from_u128(0xfff0) << 130);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflow")]
    fn debug_add_overflow_panics() {
        let _ = U256::MAX + U256::ONE;
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflow")]
    fn debug_sub_overflow_panics() {
        let _ = U256::ZERO - U256::ONE;
    }
}
