//! Differential harness: the bit-sliced 64-lane batch engine against the
//! scalar `Multiplier` reference, with zero tolerance.
//!
//! Two layers of evidence that the batch engine is a bit-exact twin:
//!
//! 1. seeded SplitMix64 operand sweeps over every (width, depth, variant)
//!    combination of the SDLC design plus all baselines — every lane's
//!    product must equal the scalar product exactly;
//! 2. full exhaustive 8-bit and 10-bit cross-checks: the error drivers'
//!    finished `ErrorMetrics` must be **bit-identical** between the two
//!    engines (same floats, same counters, same worst-case operands) for
//!    every `ClusterVariant` and every baseline.

use sdlc::core::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};
use sdlc::core::batch::{BatchMultiplier, Batchable, LANES};
use sdlc::core::error::{exhaustive_with, Engine, EvalOptions};
use sdlc::core::{AccurateMultiplier, ClusterVariant, Multiplier, SdlcMultiplier};
use sdlc::wideint::SplitMix64;

const WIDTHS: [u32; 6] = [4, 6, 8, 12, 16, 32];
const DEPTHS: [u32; 3] = [2, 3, 4];
const VARIANTS: [ClusterVariant; 4] = [
    ClusterVariant::Progressive,
    ClusterVariant::CeilTails,
    ClusterVariant::PairTails,
    ClusterVariant::FullOr,
];

/// Number of 64-lane blocks each configuration is swept with.
const BLOCKS: u64 = 8;

/// Asserts scalar/batch agreement on `BLOCKS × 64` seeded pairs.
fn assert_lanes_agree<M>(model: &M, seed: u64)
where
    M: Multiplier + Batchable,
{
    let batch = model.batch_model();
    assert_eq!(batch.width(), model.width());
    let mut rng = SplitMix64::new(seed);
    for block in 0..BLOCKS {
        let a: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(model.width()));
        let b: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(model.width()));
        let products = batch.multiply_lanes(&a, &b);
        for i in 0..LANES {
            assert_eq!(
                products[i],
                model.multiply_u64(a[i], b[i]),
                "{} block {block} lane {i}: a={:#x} b={:#x}",
                model.name(),
                a[i],
                b[i]
            );
        }
    }
}

#[test]
fn sdlc_every_width_depth_variant_combination() {
    for width in WIDTHS {
        for depth in DEPTHS {
            for variant in VARIANTS {
                let model = SdlcMultiplier::with_variant(width, depth, variant).unwrap();
                let seed =
                    u64::from(width) << 16 | u64::from(depth) << 8 | variant.tag().len() as u64;
                assert_lanes_agree(&model, 0x5D1C_0000 | seed);
            }
        }
    }
}

#[test]
fn sdlc_mixed_depth_schedules() {
    for (width, depths) in [
        (8u32, &[4u32, 2, 2][..]),
        (8, &[2, 3, 3]),
        (12, &[4, 4, 2, 2]),
        (16, &[2, 2, 4, 4, 4]),
    ] {
        let model = SdlcMultiplier::with_group_depths(width, depths).unwrap();
        assert_lanes_agree(&model, u64::from(width) ^ 0xD1FF);
    }
}

#[test]
fn accurate_and_baselines_every_width() {
    for width in WIDTHS {
        assert_lanes_agree(&AccurateMultiplier::new(width).unwrap(), 1);
        assert_lanes_agree(&EtmMultiplier::new(width).unwrap(), 2);
        for dropped in [0, width / 2, width] {
            assert_lanes_agree(&TruncatedMultiplier::new(width, dropped).unwrap(), 3);
        }
        if width.is_power_of_two() {
            assert_lanes_agree(&KulkarniMultiplier::new(width).unwrap(), 4);
        }
    }
}

/// The edge operands that exercise every compression corner.
#[test]
fn boundary_operands_agree() {
    for width in WIDTHS {
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let edge = [
            0u64,
            1,
            2,
            3,
            mask,
            mask - 1,
            mask >> 1,
            1u64 << (width - 1),
        ];
        for depth in DEPTHS {
            let model = SdlcMultiplier::new(width, depth).unwrap();
            let batch = model.batch_model();
            let a: [u64; LANES] = core::array::from_fn(|i| edge[i % edge.len()]);
            let b: [u64; LANES] = core::array::from_fn(|i| edge[(i / edge.len()) % edge.len()]);
            let products = batch.multiply_lanes(&a, &b);
            for i in 0..LANES {
                assert_eq!(products[i], model.multiply_u64(a[i], b[i]));
            }
        }
    }
}

/// Runs one exhaustive sweep through both engines and asserts
/// bit-identical `ErrorMetrics`. Matching thread counts keep the float
/// merge order identical.
fn assert_engines_agree<M: Batchable + Sync>(model: &M) {
    let run = |engine| {
        let threads = std::num::NonZeroUsize::new(4);
        exhaustive_with(model, EvalOptions { engine, threads }).unwrap()
    };
    let scalar = run(Engine::Scalar);
    assert_eq!(scalar, run(Engine::BitSliced), "{}", model.name());
    assert_eq!(scalar.samples, 1 << (2 * model.width()));
}

/// The acceptance cross-check: a full exhaustive 8-bit sweep through both
/// engines must finish with bit-identical `ErrorMetrics` for every
/// `ClusterVariant` at every depth, for mixed schedules with clusters on
/// both sides of the 64-lane block stride (bit 6), and for the baselines.
#[test]
fn exhaustive_8bit_metrics_bit_identical() {
    for variant in VARIANTS {
        for depth in 1..=6 {
            assert_engines_agree(&SdlcMultiplier::with_variant(8, depth, variant).unwrap());
        }
    }
    for depths in [&[6u32, 2][..], &[1; 8]] {
        assert_engines_agree(&SdlcMultiplier::with_group_depths(8, depths).unwrap());
    }
    assert_engines_agree(&AccurateMultiplier::new(8).unwrap());
    assert_engines_agree(&EtmMultiplier::new(8).unwrap());
    assert_engines_agree(&KulkarniMultiplier::new(8).unwrap());
    assert_engines_agree(&TruncatedMultiplier::new(8, 6).unwrap());
}

/// The 10-bit sibling: at depths 4 and 5 one cluster straddles bit 6, so
/// the bit-sliced row sweep splits it between its per-row lane table and
/// the per-block rows. Both engines must still agree bit for bit.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2^20 scalar pairs per design want the release suite"
)]
fn exhaustive_10bit_straddling_clusters_bit_identical() {
    for variant in VARIANTS {
        for depth in [4, 5] {
            assert_engines_agree(&SdlcMultiplier::with_variant(10, depth, variant).unwrap());
        }
    }
    assert_engines_agree(&SdlcMultiplier::with_group_depths(10, &[1, 4, 3, 2]).unwrap());
}
