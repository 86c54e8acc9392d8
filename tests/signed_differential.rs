//! Signed differential harness: scalar signed, bit-sliced signed, and the
//! raw unsigned core cross-checked against each other with zero
//! tolerance.
//!
//! Three layers of evidence that the signed subsystem is coherent:
//!
//! 1. an exhaustive 8-bit three-way cross-check — for every
//!    two's-complement pair, the scalar `SignMagnitude` product, the
//!    bit-sliced `BatchSignMagnitude` product and a hand-built
//!    sign-magnitude composition of the *unsigned* core must agree
//!    pair-for-pair;
//! 2. bit-identical `ErrorMetrics` between the scalar and bit-sliced
//!    signed error drivers (same floats, same counters, same worst-case
//!    operands) on exhaustive 8-bit sweeps over every `ClusterVariant`;
//! 3. seeded SplitMix64 sweeps at widths {4, 6, 8, 12, 16} × depths
//!    {2, 3, 4} × all four cluster variants, plus the baselines.

use sdlc::core::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};
use sdlc::core::batch::LANES;
use sdlc::core::error::{exhaustive_signed_with, sampled_signed_with, Engine, EvalOptions};
use sdlc::core::signed::signed_operand_range;
use sdlc::core::{
    AccurateMultiplier, Batchable, ClusterVariant, Multiplier, SdlcMultiplier, SignMagnitude,
    SignedMultiplier,
};
use sdlc::wideint::{bitplane, SplitMix64};

const WIDTHS: [u32; 5] = [4, 6, 8, 12, 16];
const DEPTHS: [u32; 3] = [2, 3, 4];
const VARIANTS: [ClusterVariant; 4] = [
    ClusterVariant::Progressive,
    ClusterVariant::CeilTails,
    ClusterVariant::PairTails,
    ClusterVariant::FullOr,
];

/// `engine` on `threads` worker threads.
fn threads(engine: Engine, threads: usize) -> EvalOptions {
    EvalOptions {
        engine,
        threads: std::num::NonZeroUsize::new(threads),
    }
}

/// Number of 64-lane blocks each configuration is swept with.
const BLOCKS: u64 = 8;

/// Draws a uniformly random signed operand of the given width.
fn draw_signed(rng: &mut SplitMix64, width: u32) -> i64 {
    let pattern = rng.next_bits(width);
    ((pattern << (64 - width)) as i64) >> (64 - width)
}

/// Asserts scalar-signed / batch-signed / unsigned-core agreement on
/// `BLOCKS × 64` seeded pairs, boundary operands included.
fn assert_signed_lanes_agree<M>(inner: &M, seed: u64)
where
    M: Multiplier + Batchable + Clone,
{
    let width = inner.width();
    let signed = SignMagnitude::new(inner.clone());
    let batch = signed.batch_model();
    assert_eq!(batch.width(), width);
    let (min, max) = signed_operand_range(width);
    let mut rng = SplitMix64::new(seed);
    for block in 0..BLOCKS {
        let mut a: [i64; LANES] = core::array::from_fn(|_| draw_signed(&mut rng, width));
        let mut b: [i64; LANES] = core::array::from_fn(|_| draw_signed(&mut rng, width));
        // Pin the signed boundary operands into the first block.
        if block == 0 {
            a[0] = min as i64;
            b[0] = min as i64;
            a[1] = min as i64;
            b[1] = max as i64;
            a[2] = max as i64;
            b[2] = -1;
            a[3] = 0;
            b[3] = min as i64;
        }
        let products = batch.multiply_lanes_signed(&a, &b);
        for i in 0..LANES {
            let scalar = signed.multiply_i64(a[i], b[i]);
            // Unsigned-core cross-check: magnitudes through the raw
            // unsigned model, sign re-applied by hand.
            let magnitude = inner.multiply_u64(a[i].unsigned_abs(), b[i].unsigned_abs());
            let reference = if (a[i] < 0) != (b[i] < 0) {
                -(magnitude as i128)
            } else {
                magnitude as i128
            };
            assert_eq!(
                scalar,
                reference,
                "{} block {block} lane {i}: scalar vs unsigned core, a={} b={}",
                signed.name(),
                a[i],
                b[i]
            );
            assert_eq!(
                products[i],
                scalar,
                "{} block {block} lane {i}: batch vs scalar, a={} b={}",
                signed.name(),
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
                assert_signed_lanes_agree(&model, 0x51D0_0000 | seed);
            }
        }
    }
}

#[test]
fn accurate_and_baselines() {
    for width in WIDTHS {
        assert_signed_lanes_agree(
            &AccurateMultiplier::new(width).unwrap(),
            0xACC0 + u64::from(width),
        );
        assert_signed_lanes_agree(
            &TruncatedMultiplier::new(width, width / 2).unwrap(),
            0x7210 + u64::from(width),
        );
        assert_signed_lanes_agree(
            &EtmMultiplier::new(width).unwrap(),
            0xE700 + u64::from(width),
        );
    }
    for width in [4u32, 8, 16] {
        // Kulkarni needs power-of-two widths.
        assert_signed_lanes_agree(
            &KulkarniMultiplier::new(width).unwrap(),
            0x1_0000 + u64::from(width),
        );
    }
}

#[test]
fn exhaustive_8bit_three_way_cross_check() {
    // Every two's-complement 8-bit pair, all three evaluation paths.
    let inner = SdlcMultiplier::new(8, 2).unwrap();
    let signed = SignMagnitude::new(inner.clone());
    let batch = signed.batch_model();
    let mut planes = [0u64; 16];
    let mut lanes_out = [0u64; LANES];
    let (mut a_planes, mut b_planes) = ([0u64; 8], [0u64; 8]);
    for ua in 0..256u64 {
        let a = ((ua as i64) << 56) >> 56;
        bitplane::broadcast_planes(ua, 8, &mut a_planes);
        for b0 in (0..256u64).step_by(LANES) {
            // The plane models `verify --signed` checks netlists against:
            // the broadcast form of its exhaustive rows, and the plane
            // form of its sampled blocks.
            bitplane::counter_planes(b0, 8, &mut b_planes);
            batch.multiply_planes_signed(&a_planes, &b_planes, &mut planes);
            let mut row_planes = [0u64; 16];
            batch.multiply_planes_bcast_signed(ua, &b_planes, &mut row_planes);
            assert_eq!(row_planes, planes, "row {a}, block {b0}");
            sdlc::core::batch::extract_product_lanes(&planes, &mut lanes_out);
            for (i, &lane) in lanes_out.iter().enumerate() {
                let ub = b0 + i as u64;
                let b = ((ub as i64) << 56) >> 56;
                let scalar = signed.multiply_i64(a, b);
                let magnitude = inner.multiply_u64(a.unsigned_abs(), b.unsigned_abs()) as i128;
                let reference = if (a < 0) != (b < 0) {
                    -magnitude
                } else {
                    magnitude
                };
                let batch_product = i128::from(((lane << 48) as i64) >> 48);
                assert_eq!(scalar, reference, "scalar vs core at ({a}, {b})");
                assert_eq!(batch_product, scalar, "batch vs scalar at ({a}, {b})");
            }
        }
    }
}

#[test]
fn exhaustive_8bit_metrics_are_bit_identical_for_all_variants() {
    for variant in VARIANTS {
        for depth in DEPTHS {
            let signed =
                SignMagnitude::new(SdlcMultiplier::with_variant(8, depth, variant).unwrap());
            let scalar = exhaustive_signed_with(&signed, threads(Engine::Scalar, 3)).unwrap();
            let bitsliced = exhaustive_signed_with(&signed, threads(Engine::BitSliced, 3)).unwrap();
            assert_eq!(scalar, bitsliced, "{} (depth {depth})", signed.name());
            assert!(scalar.signed);
            assert_eq!(scalar.samples, 1 << 16);
        }
    }
    // The baselines, including ETM whose zero-product errors take the
    // undefined-RED path.
    for signed in [
        Box::new(SignMagnitude::new(EtmMultiplier::new(8).unwrap())) as Box<dyn ErasedExhaustive>,
        Box::new(SignMagnitude::new(KulkarniMultiplier::new(8).unwrap())),
        Box::new(SignMagnitude::new(TruncatedMultiplier::new(8, 4).unwrap())),
    ] {
        signed.assert_engines_agree();
    }
}

/// Object-safe helper so the baseline list above can hold differently
/// typed `SignMagnitude` adapters.
trait ErasedExhaustive {
    fn assert_engines_agree(&self);
}

impl<M> ErasedExhaustive for SignMagnitude<M>
where
    M: Multiplier + Batchable + Sync,
{
    fn assert_engines_agree(&self) {
        let scalar = exhaustive_signed_with(self, threads(Engine::Scalar, 2)).unwrap();
        let bitsliced = exhaustive_signed_with(self, threads(Engine::BitSliced, 2)).unwrap();
        assert_eq!(scalar, bitsliced, "{}", self.name());
    }
}

#[test]
fn sampled_metrics_are_bit_identical_at_every_width() {
    for width in WIDTHS {
        let signed = SignMagnitude::new(SdlcMultiplier::new(width, 2).unwrap());
        let run = |engine| sampled_signed_with(&signed, 30_000, 0xBEEF, threads(engine, 4));
        let (scalar, bitsliced) = (
            run(Engine::Scalar).unwrap(),
            run(Engine::BitSliced).unwrap(),
        );
        assert_eq!(scalar, bitsliced, "width {width}");
        assert_eq!(scalar.samples, 30_000);
    }
}

#[test]
fn mixed_depth_schedules_stay_coherent() {
    for (width, depths) in [
        (8u32, &[4u32, 2, 2][..]),
        (12, &[4, 4, 2, 2]),
        (16, &[2, 2, 4, 4, 4]),
    ] {
        let model = SdlcMultiplier::with_group_depths(width, depths).unwrap();
        assert_signed_lanes_agree(&model, u64::from(width) ^ 0x51D_D1FF);
    }
}
