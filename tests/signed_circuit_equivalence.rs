//! Cross-crate integration for the signed hardware layer: the
//! sign-magnitude circuit generators must agree with their word-level
//! `SignMagnitude` models through the gate-level simulator — exhaustively
//! at 8 bits, sampled at 16 — and counterexamples must be reported with
//! signed operand formatting.

use sdlc::core::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};
use sdlc::core::circuits::{
    accurate_multiplier, etm_multiplier, kulkarni_multiplier, signed_accurate_multiplier,
    signed_multiplier, signed_sdlc_multiplier, truncated_multiplier, ReductionScheme,
};
use sdlc::core::{
    AccurateMultiplier, ClusterVariant, SdlcMultiplier, SignMagnitude, SignedMultiplier,
};
use sdlc::netlist::passes;
use sdlc::sim::equiv::{check_planes_signed, check_signed, Coverage, OperandPlanes};
use sdlc::sim::Engine;
use sdlc::wideint::I256;

#[test]
fn signed_accurate_is_exhaustively_exact_to_8_bits() {
    for width in [4u32, 6, 8] {
        for scheme in [ReductionScheme::RippleRows, ReductionScheme::Wallace] {
            let netlist = signed_accurate_multiplier(width, scheme).unwrap();
            netlist.validate().unwrap();
            check_signed(
                &netlist,
                width,
                Coverage::Exhaustive,
                Engine::Scalar,
                |a, b| I256::from_i128(a * b),
            )
            .unwrap_or_else(|e| panic!("{width}-bit {scheme:?}: {e}"));
        }
    }
}

#[test]
fn signed_sdlc_matches_its_model_exhaustively_at_8_bits() {
    for depth in [2u32, 3, 4] {
        for variant in [ClusterVariant::Progressive, ClusterVariant::FullOr] {
            let model = SdlcMultiplier::with_variant(8, depth, variant).unwrap();
            let netlist = signed_sdlc_multiplier(&model, ReductionScheme::RippleRows);
            netlist.validate().unwrap();
            let signed = SignMagnitude::new(model);
            check_signed(&netlist, 8, Coverage::Exhaustive, Engine::Scalar, |a, b| {
                signed.multiply_signed(a, b)
            })
            .unwrap_or_else(|e| panic!("{}: {e}", netlist.name()));
        }
    }
}

#[test]
fn signed_baselines_match_exhaustively_at_8_bits() {
    let scheme = ReductionScheme::RippleRows;

    let etm = SignMagnitude::new(EtmMultiplier::new(8).unwrap());
    let netlist = signed_multiplier(&etm_multiplier(8, scheme).unwrap(), 8);
    check_signed(&netlist, 8, Coverage::Exhaustive, Engine::Scalar, |a, b| {
        etm.multiply_signed(a, b)
    })
    .unwrap();

    let kulkarni = SignMagnitude::new(KulkarniMultiplier::new(8).unwrap());
    let netlist = signed_multiplier(&kulkarni_multiplier(8, scheme).unwrap(), 8);
    check_signed(&netlist, 8, Coverage::Exhaustive, Engine::Scalar, |a, b| {
        kulkarni.multiply_signed(a, b)
    })
    .unwrap();

    for dropped in [3u32, 7] {
        let model = TruncatedMultiplier::new(8, dropped).unwrap();
        let netlist = signed_multiplier(&truncated_multiplier(&model, scheme), 8);
        let signed = SignMagnitude::new(model);
        check_signed(&netlist, 8, Coverage::Exhaustive, Engine::Scalar, |a, b| {
            signed.multiply_signed(a, b)
        })
        .unwrap_or_else(|e| panic!("trunc {dropped}: {e}"));
    }
}

#[test]
fn sampled_equivalence_at_16_bits() {
    let coverage = Coverage::Sampled {
        samples: 400,
        seed: 5,
    };
    // 2^32 pairs are out of reach; seeded sampling plus the signed corner
    // patterns (0, ±1, MAX, MIN crossed) stand in.
    let exact = signed_accurate_multiplier(16, ReductionScheme::RippleRows).unwrap();
    check_signed(&exact, 16, coverage, Engine::Scalar, |a, b| {
        I256::from_i128(a * b)
    })
    .unwrap();

    for depth in [2u32, 4] {
        let model = SdlcMultiplier::new(16, depth).unwrap();
        let netlist = signed_sdlc_multiplier(&model, ReductionScheme::Dadda);
        let signed = SignMagnitude::new(model);
        check_signed(&netlist, 16, coverage, Engine::Scalar, |a, b| {
            signed.multiply_signed(a, b)
        })
        .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
    }
}

#[test]
fn optimization_passes_preserve_signed_behavior() {
    let model = SdlcMultiplier::new(8, 3).unwrap();
    let mut netlist = signed_sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let before = netlist.cell_count();
    passes::optimize(&mut netlist);
    assert!(netlist.cell_count() <= before);
    let signed = SignMagnitude::new(model);
    check_signed(&netlist, 8, Coverage::Exhaustive, Engine::Scalar, |a, b| {
        signed.multiply_signed(a, b)
    })
    .unwrap();
}

#[test]
fn mismatches_report_signed_counterexamples() {
    // Check the signed accurate netlist against a model that is wrong
    // exactly where the product is negative: the first counterexample in
    // pattern order is a = 1 (pattern 1) × b = −8 (pattern 8 = 0b1000).
    let netlist = signed_accurate_multiplier(4, ReductionScheme::RippleRows).unwrap();
    let err = check_signed(&netlist, 4, Coverage::Exhaustive, Engine::Scalar, |a, b| {
        if a * b < 0 {
            I256::ZERO // deliberately wrong
        } else {
            I256::from_i128(a * b)
        }
    })
    .unwrap_err();
    assert_eq!((err.a, err.b), (1, -8));
    assert_eq!(err.netlist_product.to_i128(), Some(-8));
    assert_eq!(err.model_product, I256::ZERO);
    let text = err.to_string();
    assert!(text.contains("signed netlist(1, -8) = -8"), "{text}");

    // The plane checker, with the same bug planted in the bit-sliced model
    // (negative lanes zeroed), reports the whole per-pair counterexample
    // on both engines. Widths 2 and 4 fill partial blocks: the lanes past
    // 2^width are garbage the valid-lane mask must hide.
    for width in [2u32, 4, 8] {
        let netlist = signed_accurate_multiplier(width, ReductionScheme::RippleRows).unwrap();
        let batch = SignMagnitude::new(AccurateMultiplier::new(width).unwrap()).batch_model();
        let count = 1u64 << width;
        let wrong = |a: i128, b: i128| {
            if a * b < 0 {
                I256::ZERO
            } else {
                I256::from_i128(a * b)
            }
        };
        let wrong_planes = |ops: OperandPlanes<'_>, planes: &mut [u64]| {
            let a = ops.row.expect("exhaustive blocks are rows");
            batch.multiply_planes_bcast_signed(a, ops.b, planes);
            let negative = planes[planes.len() - 1];
            // A lane past 2^width sits in the row's one block.
            let garbage = (0..64u64)
                .filter(|&i| i >= count)
                .fold(0u64, |mask, i| mask | 1 << i);
            for plane in planes.iter_mut() {
                *plane = (*plane & !negative) | garbage;
            }
        };
        let reference =
            check_signed(&netlist, width, Coverage::Exhaustive, Engine::Scalar, wrong).unwrap_err();
        assert_eq!((reference.a, reference.b), (1, -(1 << (width - 1))));
        for engine in [Engine::Scalar, Engine::Compiled] {
            let coverage = Coverage::Exhaustive;
            let planes = check_planes_signed(&netlist, width, coverage, engine, wrong_planes);
            assert_eq!(planes, Err(reference.clone()), "{width}-bit on {engine}");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2^24 pairs want the release suite")]
fn signed_sdlc_matches_its_model_exhaustively_at_12_bits() {
    // 2^24 signed pattern pairs — the compiled signed exhaustive ceiling,
    // reached by comparing product planes against the bit-sliced
    // sign-magnitude twin (its broadcast form, one row per block) instead
    // of calling the scalar model per pair, as `sdlc-cli verify` does.
    for depth in [2u32, 4] {
        let model = SdlcMultiplier::new(12, depth).unwrap();
        let netlist = signed_sdlc_multiplier(&model, ReductionScheme::Wallace);
        let batch = SignMagnitude::new(model).batch_model();
        let pairs = check_planes_signed(
            &netlist,
            12,
            Coverage::Exhaustive,
            Engine::Compiled,
            |ops, product| match ops.row {
                Some(a) => batch.multiply_planes_bcast_signed(a, ops.b, product),
                None => batch.multiply_planes_signed(ops.a, ops.b, product),
            },
        )
        .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
        assert_eq!(pairs, 1 << 24);
    }
}

#[test]
fn signed_wrapper_cost_is_peripheral() {
    // The sign/magnitude periphery must stay small next to the array it
    // wraps: three conditional negates (~4 gates/bit) plus one XOR.
    let width = 8u32;
    let unsigned = accurate_multiplier(width, ReductionScheme::RippleRows).unwrap();
    let signed = signed_multiplier(&unsigned, width);
    let overhead = signed.cell_count() - unsigned.cell_count();
    // 2 input negates (N bits) + 1 product negate (2N bits) ≈ 4N·4 gates.
    assert!(
        overhead <= 16 * width as usize + 8,
        "peripheral overhead {overhead} gates is out of scale"
    );
    // And the wrapper must not have touched the unsigned core's size.
    let _ = SignMagnitude::new(AccurateMultiplier::new(width).unwrap()).name();
}
