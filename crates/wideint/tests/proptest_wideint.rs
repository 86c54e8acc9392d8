//! Property-based tests: `U256` arithmetic must agree with `u128`
//! arithmetic on every operation for values that fit in 128 bits, and must
//! satisfy algebraic laws at full width.

use proptest::prelude::*;
use sdlc_wideint::U256;

fn u256(x: u128) -> U256 {
    U256::from_u128(x)
}

/// A uniformly random full-width value from two `u128` halves.
fn arb_u256() -> impl Strategy<Value = U256> {
    (any::<u128>(), any::<u128>()).prop_map(|(hi, lo)| (u256(hi) << 128) | u256(lo))
}

/// The high and low 128-bit halves of a value.
fn halves(x: U256) -> (u128, u128) {
    let low = U256::from_u128(u128::MAX);
    ((x >> 128).to_u128().unwrap(), (x & low).to_u128().unwrap())
}

/// Full 256-bit product of two `u128`s from four 64×64 partial products,
/// as `(high, low)` halves.
fn schoolbook(a: u128, b: u128) -> (u128, u128) {
    let (a1, a0) = (a >> 64, a & u128::from(u64::MAX));
    let (b1, b0) = (b >> 64, b & u128::from(u64::MAX));
    let (p00, p01, p10, p11) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
    // Middle column: the high half of p00 plus the low halves of the cross
    // terms; it needs at most 66 bits.
    let mid = (p00 >> 64) + (p01 & u128::from(u64::MAX)) + (p10 & u128::from(u64::MAX));
    let low = (p00 & u128::from(u64::MAX)) | (mid << 64);
    let high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (high, low)
}

proptest! {
    #[test]
    fn add_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let (expect, overflow) = a.overflowing_add(b);
        let sum = u256(a) + u256(b);
        prop_assert_eq!(sum, u256(a).wrapping_add(&u256(b)));
        // The carry out of bit 127 lands in bit 128.
        prop_assert_eq!(halves(sum), (u128::from(overflow), expect));
    }

    #[test]
    fn sub_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(u256(hi) - u256(lo), u256(hi - lo));
        prop_assert_eq!(u256(hi).abs_diff(&u256(lo)), u256(hi - lo));
        prop_assert_eq!(u256(lo).abs_diff(&u256(hi)), u256(hi - lo));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(
            u256(u128::from(a)).wrapping_mul(&u256(u128::from(b))),
            u256(u128::from(a) * u128::from(b))
        );
    }

    #[test]
    fn full_width_product_matches_schoolbook(a in any::<u128>(), b in any::<u128>()) {
        let product = u256(a).wrapping_mul(&u256(b));
        prop_assert_eq!(halves(product), schoolbook(a, b));
    }

    #[test]
    fn wrapping_mul_is_commutative_and_distributive(
        a in arb_u256(),
        b in arb_u256(),
        c in arb_u256(),
    ) {
        prop_assert_eq!(a.wrapping_mul(&b), b.wrapping_mul(&a));
        prop_assert_eq!(
            a.wrapping_mul(&b.wrapping_add(&c)),
            a.wrapping_mul(&b).wrapping_add(&a.wrapping_mul(&c))
        );
    }

    #[test]
    fn shifts_match_u128(a in any::<u128>(), s in 0u32..128) {
        // The low 128 bits of the 256-bit shift equal the truncating u128 shift.
        prop_assert_eq!(halves(u256(a) << s).1, a.wrapping_shl(s));
        // And nothing is lost at 256-bit capacity for s < 128.
        prop_assert_eq!((u256(a) << s) >> s, u256(a));
        prop_assert_eq!(u256(a) >> s, u256(a >> s));
    }

    #[test]
    fn shl_then_shr_is_identity(a in arb_u256(), s in 0u32..=256) {
        // Shifting out the top `s` bits and back keeps the low 256 − s.
        prop_assert_eq!((a << s) >> s, a & (U256::MAX >> s));
        prop_assert_eq!((a >> s) << s, a & (U256::MAX << s));
    }

    #[test]
    fn bitwise_laws(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        prop_assert_eq!(a & b, b & a);
        prop_assert_eq!(a | b, b | a);
        prop_assert_eq!(a & (a | b), a);
        prop_assert_eq!(a | (a & b), a);
        prop_assert_eq!(a & (b | c), (a & b) | (a & c));
        prop_assert_eq!(a & U256::MAX, a);
        prop_assert_eq!(a | U256::ZERO, a);
        // Bitwise on the halves.
        let ((ah, al), (bh, bl)) = (halves(a), halves(b));
        prop_assert_eq!(halves(a & b), (ah & bh, al & bl));
        prop_assert_eq!(halves(a | b), (ah | bh, al | bl));
    }

    #[test]
    fn ordering_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(u256(a).cmp(&u256(b)), a.cmp(&b));
    }

    #[test]
    fn ordering_is_lexicographic_in_the_halves(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.cmp(&b), halves(a).cmp(&halves(b)));
    }

    #[test]
    fn display_matches_u128(a in any::<u128>()) {
        prop_assert_eq!(u256(a).to_string(), a.to_string());
    }

    #[test]
    fn decimal_roundtrip(a in arb_u256()) {
        // Read the decimal string back with the wide arithmetic itself.
        let ten = U256::from_u64(10);
        let back = a.to_string().bytes().fold(U256::ZERO, |acc, digit| {
            acc.wrapping_mul(&ten) + U256::from_u64(u64::from(digit - b'0'))
        });
        prop_assert_eq!(back, a);
    }

    #[test]
    fn to_f64_matches_u128_cast(a in any::<u128>(), s in 0u32..128) {
        // Every magnitude, from exact small values to 128-bit ones.
        prop_assert_eq!(u256(a >> s).to_f64(), (a >> s) as f64);
        // Above 2^53 a sticky low bit must still break the ties.
        let tie = ((a | (1 << 127)) & !((1u128 << 75) - 1)) | (1 << 74);
        prop_assert_eq!(u256(tie).to_f64(), tie as f64);
        prop_assert_eq!(u256(tie | 1).to_f64(), (tie | 1) as f64);
    }

    #[test]
    fn to_f64_relative_error(a in arb_u256()) {
        prop_assume!(!a.is_zero());
        let f = a.to_f64();
        // The correctly rounded halves give a reference within 2^-52.
        let (hi, lo) = halves(a);
        let reference = hi as f64 * 2f64.powi(128) + lo as f64;
        let rel = (f - reference).abs() / reference;
        prop_assert!(rel < 1e-15, "rel error {rel}");
        // Scaling by a power of two is exact, so the wide conversion
        // commutes with the shift for values that fit u128.
        prop_assert_eq!((u256(hi) << 128).to_f64(), hi as f64 * 2f64.powi(128));
    }
}
