//! Property-based invariants of the signed multiplier layer.

use proptest::prelude::*;
use sdlc::core::batch::LANES;
use sdlc::core::signed::{signed_accurate, signed_operand_range};
use sdlc::core::{
    AccurateMultiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier, PAPER_WIDTHS,
};
use sdlc::wideint::{I256, U256};

/// Any supported (width, depth) pair, widths 2..=16.
fn arb_spec() -> impl Strategy<Value = (u32, u32)> {
    (1u32..=8)
        .prop_map(|half| half * 2)
        .prop_flat_map(|width| (Just(width), 1u32..=width))
}

/// Interprets the low `width` bits of a pattern as two's complement.
fn sign_extend(pattern: u64, width: u32) -> i64 {
    ((pattern << (64 - width)) as i64) >> (64 - width)
}

proptest! {
    /// Sign-magnitude round-trip at the wide-integer layer: decomposing
    /// any representable value into `(sign, magnitude)` and recomposing
    /// is the identity, across the full i128 range.
    #[test]
    fn sign_magnitude_round_trip_i256(raw in any::<u128>()) {
        let value = I256::from_i128(raw as i128);
        let recomposed = I256::from_sign_magnitude(&value.magnitude(), value.is_negative());
        prop_assert_eq!(recomposed, value);
        prop_assert_eq!(recomposed.to_i128(), Some(raw as i128));
    }

    /// Sign-magnitude round-trip at the operand layer: any `width`-bit
    /// two's-complement pattern, decomposed into magnitude and sign the
    /// way the adapter does it, recomposes to the same pattern.
    #[test]
    fn sign_magnitude_round_trip_operands((width, _) in arb_spec(), raw in any::<u64>()) {
        let mask = (1u64 << width) - 1;
        let pattern = raw & mask;
        let value = sign_extend(pattern, width);
        let magnitude = value.unsigned_abs();
        // Magnitude always fits the unsigned core...
        prop_assert!(magnitude <= mask);
        // ...and re-applying the sign restores the exact pattern.
        let recomposed = if value < 0 {
            magnitude.wrapping_neg() & mask
        } else {
            magnitude
        };
        prop_assert_eq!(recomposed, pattern);
    }

    /// Negation symmetry of the accurate path:
    /// `signed(a, b) == -signed(-a, b) == -signed(a, -b)`.
    #[test]
    fn accurate_negation_symmetry((width, _) in arb_spec(), ra in any::<u64>(), rb in any::<u64>()) {
        let m = signed_accurate(width).unwrap();
        let (min, _) = signed_operand_range(width);
        let a = sign_extend(ra & ((1 << width) - 1), width);
        let b = sign_extend(rb & ((1 << width) - 1), width);
        // −MIN does not fit the width, so the symmetry is quantified over
        // the negation-closed subrange.
        prop_assume!(i128::from(a) != min && i128::from(b) != min);
        let p = m.multiply_i64(a, b);
        prop_assert_eq!(p, -m.multiply_i64(-a, b));
        prop_assert_eq!(p, -m.multiply_i64(a, -b));
        prop_assert_eq!(p, m.multiply_i64(-a, -b));
    }

    /// The same symmetry holds for every approximate sign-magnitude model
    /// by construction (the sign never feeds the magnitude datapath).
    #[test]
    fn approximate_negation_symmetry((width, depth) in arb_spec(), ra in any::<u64>(), rb in any::<u64>()) {
        let m = SignMagnitude::new(SdlcMultiplier::new(width, depth).unwrap());
        let (min, _) = signed_operand_range(width);
        let a = sign_extend(ra & ((1 << width) - 1), width);
        let b = sign_extend(rb & ((1 << width) - 1), width);
        prop_assume!(i128::from(a) != min && i128::from(b) != min);
        prop_assert_eq!(m.multiply_i64(a, b), -m.multiply_i64(-a, b));
    }

    /// Lane independence of the signed batch twins: lane `i`'s product
    /// depends only on lane `i`'s operands.
    #[test]
    fn signed_batch_lanes_are_independent(
        (width, depth) in arb_spec(),
        a_raw in prop::collection::vec(any::<u64>(), LANES),
        b_raw in prop::collection::vec(any::<u64>(), LANES),
        noise in prop::collection::vec(any::<u64>(), LANES),
        lane in 0usize..LANES,
    ) {
        let model = SignMagnitude::new(SdlcMultiplier::new(width, depth).unwrap());
        let batch = model.batch_model();
        let mask = (1u64 << width) - 1;
        let a: [i64; LANES] = core::array::from_fn(|i| sign_extend(a_raw[i] & mask, width));
        let b: [i64; LANES] = core::array::from_fn(|i| sign_extend(b_raw[i] & mask, width));
        let baseline = batch.multiply_lanes_signed(&a, &b)[lane];
        // Scramble every other lane; the chosen lane's product must not move.
        let a2: [i64; LANES] = core::array::from_fn(|i| {
            if i == lane { a[i] } else { sign_extend(noise[i] & mask, width) }
        });
        let b2: [i64; LANES] = core::array::from_fn(|i| {
            if i == lane { b[i] } else { sign_extend(noise[LANES - 1 - i] & mask, width) }
        });
        prop_assert_eq!(batch.multiply_lanes_signed(&a2, &b2)[lane], baseline);
        prop_assert_eq!(baseline, model.multiply_i64(a[lane], b[lane]));
    }
}

/// `i128`-style boundary operands (`MIN`, `MIN+1`, `MAX`) at every
/// supported width — deterministic corners rather than sampled ones.
#[test]
fn boundary_operands_at_every_supported_width() {
    for width in PAPER_WIDTHS {
        let m = signed_accurate(width).unwrap();
        let (min, max) = signed_operand_range(width);
        for &a in &[min, min + 1, -1, 0, 1, max] {
            for &b in &[min, min + 1, -1, 0, 1, max] {
                let product = m.multiply_signed(a, b);
                let expect_magnitude = U256::from_u128(a.unsigned_abs())
                    .wrapping_mul(&U256::from_u128(b.unsigned_abs()));
                assert_eq!(product.magnitude(), expect_magnitude, "{width}-bit {a}×{b}");
                assert_eq!(
                    product.is_negative(),
                    (a < 0) != (b < 0) && a != 0 && b != 0,
                    "{width}-bit {a}×{b}"
                );
                if width <= 32 {
                    assert_eq!(
                        m.multiply_i64(a as i64, b as i64),
                        i128::from(a as i64) * i128::from(b as i64)
                    );
                }
            }
        }
        // MIN × MIN is the largest signed product: (2^{N-1})² = Pmax.
        assert_eq!(
            m.multiply_signed(min, min).magnitude(),
            m.max_product_magnitude(),
            "width {width}"
        );
    }
    // Width 128 hits the literal i128 boundaries.
    let m = signed_accurate(128).unwrap();
    assert_eq!(
        m.multiply_signed(i128::MIN + 1, -1).to_i128(),
        Some(i128::MAX)
    );
    assert_eq!(m.multiply_signed(i128::MAX, 1).to_i128(), Some(i128::MAX));
    assert!(!m.multiply_signed(i128::MIN, i128::MIN).is_negative());
}

/// The adapter preserves the wrapped model (`inner`/`into_inner`).
#[test]
fn adapter_round_trips_the_inner_model() {
    let inner = AccurateMultiplier::new(8).unwrap();
    let signed = SignMagnitude::new(inner.clone());
    assert_eq!(signed.inner(), &inner);
    assert_eq!(signed.into_inner(), inner);
    assert_eq!(
        SignMagnitude::new(AccurateMultiplier::new(8).unwrap()).width(),
        8
    );
}
