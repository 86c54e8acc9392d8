//! Error-path coverage: the `SpecError`/`EvalError` surfaces and the
//! driver panic contracts, for both evaluation engines. (A zero thread
//! count is unrepresentable: `EvalOptions::threads` is a `NonZeroUsize`.)

use std::num::NonZeroUsize;

use sdlc_core::error::{
    exhaustive, exhaustive_with, sampled, sampled_with, Engine, EvalError, EvalOptions,
    BITSLICED_EXHAUSTIVE_WIDTH_LIMIT, EXHAUSTIVE_WIDTH_LIMIT,
};
use sdlc_core::{AccurateMultiplier, SdlcMultiplier, SpecError};

#[test]
fn spec_error_messages_name_the_constraint() {
    let err = SdlcMultiplier::new(7, 2).unwrap_err();
    assert!(matches!(err, SpecError::Width { width: 7, .. }));
    assert!(err.to_string().contains("even"), "{err}");

    let err = SdlcMultiplier::new(130, 2).unwrap_err();
    assert!(err.to_string().contains("2..=128"), "{err}");

    let err = SdlcMultiplier::new(8, 0).unwrap_err();
    assert!(matches!(err, SpecError::Depth { depth: 0, .. }));
    assert!(err.to_string().contains("at least 1"), "{err}");

    let err = SdlcMultiplier::new(8, 9).unwrap_err();
    assert!(err.to_string().contains("must not exceed"), "{err}");
}

#[test]
fn width_too_large_messages_state_both_limits() {
    let m = SdlcMultiplier::new(32, 2).unwrap();
    let scalar = exhaustive(&m).unwrap_err();
    assert_eq!(
        scalar,
        EvalError::WidthTooLarge {
            width: 32,
            limit: EXHAUSTIVE_WIDTH_LIMIT
        }
    );
    assert!(scalar.to_string().contains("2^64 cases"), "{scalar}");
    assert!(scalar.to_string().contains("at most 16-bit"), "{scalar}");

    let bitsliced = exhaustive_with(&m, Engine::BitSliced.into()).unwrap_err();
    assert_eq!(
        bitsliced,
        EvalError::WidthTooLarge {
            width: 32,
            limit: BITSLICED_EXHAUSTIVE_WIDTH_LIMIT
        }
    );
    assert!(
        bitsliced.to_string().contains("at most 20-bit"),
        "{bitsliced}"
    );
}

#[test]
fn bitsliced_sampling_rejects_models_beyond_the_plane_stack() {
    let wide = AccurateMultiplier::new(64).unwrap();
    let err = sampled_with(&wide, 10, 1, Engine::BitSliced.into()).unwrap_err();
    assert_eq!(
        err,
        EvalError::UnsupportedWidth {
            width: 64,
            limit: 32,
            engine: Engine::BitSliced,
        }
    );
    assert!(err.to_string().contains("up to 32-bit"), "{err}");
    assert!(err.to_string().contains("64-bit"), "{err}");
}

#[test]
fn zero_samples_are_rejected_by_every_sampler() {
    let m = SdlcMultiplier::new(8, 2).unwrap();
    let two = NonZeroUsize::new(2);
    let mut errors = vec![sampled(&m, 0, 1).unwrap_err()];
    for engine in [Engine::Scalar, Engine::BitSliced] {
        errors.push(sampled_with(&m, 0, 1, engine.into()).unwrap_err());
        let options = EvalOptions {
            engine,
            threads: two,
        };
        errors.push(sampled_with(&m, 0, 1, options).unwrap_err());
    }
    for err in errors {
        assert_eq!(err, EvalError::NoSamples);
        assert!(err.to_string().contains("must be positive"), "{err}");
    }
}

#[test]
#[should_panic(expected = "bit-sliced engines support widths up to 32 bits")]
fn batch_model_rejects_wide_models() {
    use sdlc_core::Batchable;
    let _ = SdlcMultiplier::new(64, 2).unwrap().batch_model();
}

mod signed_paths {
    //! Error-path coverage of the signed API surface: rejected specs,
    //! `i128::MIN`-style edges, and the signed drivers' limits.

    use sdlc_core::error::{
        exhaustive_signed_with, sampled_signed_with, Engine, EvalError,
        BITSLICED_EXHAUSTIVE_WIDTH_LIMIT, EXHAUSTIVE_WIDTH_LIMIT,
    };
    use sdlc_core::signed::{signed_accurate, signed_operand_range, signed_sdlc};
    use sdlc_core::{SignedMultiplier, SpecError};

    #[test]
    fn signed_constructors_reject_bad_specs() {
        // Width 0 and over-wide widths surface the same SpecError the
        // unsigned layer produces.
        for width in [0u32, 130, 200] {
            let err = signed_accurate(width).unwrap_err();
            assert!(matches!(err, SpecError::Width { .. }));
            assert!(err.to_string().contains("2..=128"), "{err}");
        }
        assert!(signed_accurate(7).unwrap_err().to_string().contains("even"));
        assert!(matches!(
            signed_sdlc(8, 0).unwrap_err(),
            SpecError::Depth { depth: 0, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "width 0 out of 1..=128")]
    fn signed_range_rejects_width_zero() {
        let _ = signed_operand_range(0);
    }

    #[test]
    #[should_panic(expected = "width 129 out of 1..=128")]
    fn signed_range_rejects_over_wide() {
        let _ = signed_operand_range(129);
    }

    #[test]
    fn i128_min_edges_do_not_overflow() {
        // |i128::MIN| overflows i128 — the adapter must route through
        // unsigned_abs and produce the exact 2^254 product.
        let m = signed_accurate(128).unwrap();
        let p = m.multiply_signed(i128::MIN, i128::MIN);
        assert!(!p.is_negative());
        assert_eq!(p.magnitude(), m.max_product_magnitude());
        assert_eq!(m.multiply_signed(i128::MIN, 0).to_i128(), Some(0));
        assert_eq!(
            m.multiply_signed(i128::MIN, 1).to_i128(),
            Some(i128::MIN),
            "MIN × 1 round-trips through sign-magnitude"
        );
        // The same edge at every narrower width: MIN × MIN = Pmax.
        for width in [8u32, 16, 32, 64] {
            let m = signed_accurate(width).unwrap();
            let (min, _) = signed_operand_range(width);
            assert_eq!(
                m.multiply_signed(min, min).magnitude(),
                m.max_product_magnitude(),
                "width {width}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not fit in 16 signed bits")]
    fn operands_beyond_the_signed_range_panic() {
        let m = signed_accurate(16).unwrap();
        let _ = m.multiply_signed(-32_769, 1);
    }

    #[test]
    #[should_panic(expected = "multiply_i64 supports widths up to 32 bits")]
    fn fast_path_rejects_wide_models() {
        let m = signed_accurate(64).unwrap();
        let _ = m.multiply_i64(1, 1);
    }

    #[test]
    fn signed_driver_limits_mirror_the_unsigned_ones() {
        let scalar = Engine::Scalar.into();
        let bitsliced = Engine::BitSliced.into();
        let wide = signed_sdlc(32, 2).unwrap();
        assert_eq!(
            exhaustive_signed_with(&wide, scalar).unwrap_err(),
            EvalError::WidthTooLarge {
                width: 32,
                limit: EXHAUSTIVE_WIDTH_LIMIT
            }
        );
        assert_eq!(
            exhaustive_signed_with(&wide, bitsliced).unwrap_err(),
            EvalError::WidthTooLarge {
                width: 32,
                limit: BITSLICED_EXHAUSTIVE_WIDTH_LIMIT
            }
        );
        assert_eq!(
            sampled_signed_with(&wide, 0, 1, scalar).unwrap_err(),
            EvalError::NoSamples
        );
        let very_wide = signed_sdlc(64, 2).unwrap();
        let err = sampled_signed_with(&very_wide, 100, 1, scalar).unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedWidth { width: 64, .. }));
        let err = sampled_signed_with(&very_wide, 100, 1, bitsliced).unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedWidth { width: 64, .. }));
    }
}
