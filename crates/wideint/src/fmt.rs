//! Decimal `Display` formatting.

use core::fmt::{self, Write};

use crate::U256;

/// 10^19, the largest power of ten below 2^64.
const TEN_19: u128 = 10_000_000_000_000_000_000;

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Peel 19-digit groups off the bottom by long division of the
        // limbs, most significant first.
        let mut groups = Vec::new();
        let mut rest = self.limbs;
        loop {
            let mut rem = 0u128;
            for limb in rest.iter_mut().rev() {
                let cur = (rem << 64) | u128::from(*limb);
                *limb = (cur / TEN_19) as u64;
                rem = cur % TEN_19;
            }
            groups.push(rem as u64);
            if rest == [0; 4] {
                break;
            }
        }
        let mut digits = groups.pop().expect("at least one group").to_string();
        for group in groups.iter().rev() {
            write!(digits, "{group:019}")?;
        }
        f.pad_integral(true, "", &digits)
    }
}

#[cfg(test)]
mod tests {
    use crate::U256;

    #[test]
    fn decimal_display() {
        assert_eq!(U256::ZERO.to_string(), "0");
        assert_eq!(U256::from_u64(12345).to_string(), "12345");
        let big = U256::from_u128(u128::MAX);
        assert_eq!(big.to_string(), u128::MAX.to_string());
        // (2^128 − 1) · 10 + 5 needs 129 bits.
        let x = big.wrapping_mul(&U256::from_u64(10)) + U256::from_u64(5);
        assert_eq!(x.to_string(), "3402823669209384634633746074317682114555");
        // A group boundary with inner zeros: 10^19 and 10^38.
        assert_eq!(
            U256::from_u64(10_000_000_000_000_000_000).to_string(),
            "10000000000000000000"
        );
        assert_eq!(
            U256::from_u128(10u128.pow(38)).to_string(),
            10u128.pow(38).to_string()
        );
        assert_eq!(
            U256::MAX.to_string(),
            "115792089237316195423570985008687907853269984665640564039457584007913129639935"
        );
    }

    #[test]
    fn padding_works() {
        assert_eq!(format!("{:>8}", U256::from_u64(42)), "      42");
        assert_eq!(format!("{:08}", U256::from_u64(42)), "00000042");
        assert_eq!(format!("{:<4}|", U256::ZERO), "0   |");
    }
}
