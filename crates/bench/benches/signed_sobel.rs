//! Micro-benchmarks of the signed subsystem: the sign-magnitude scalar
//! and bit-sliced paths (overhead vs their unsigned cores) and the Sobel
//! / Scharr gradient-magnitude pipelines end to end. Each row is a
//! [`per_iter`] median.

use sdlc_bench::per_iter;
use sdlc_core::batch::{BatchMultiplier, LANES};
use sdlc_core::error::{exhaustive_signed_with, Engine, EvalOptions};
use sdlc_core::signed::signed_sdlc;
use sdlc_core::{Batchable, Multiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier};
use sdlc_imgproc::{scenes, scharr_magnitude, sobel_magnitude};
use sdlc_wideint::SplitMix64;

/// Scalar path: signed multiply vs its unsigned core (the sign handling
/// is two branches and a negate — this quantifies it).
fn bench_scalar_signed_overhead() {
    let inner = SdlcMultiplier::new(16, 2).unwrap();
    let signed = SignMagnitude::new(inner.clone());
    let mut rng = SplitMix64::new(7);
    let unsigned_ops: Vec<(u64, u64)> = (0..1024)
        .map(|_| (rng.next_bits(15), rng.next_bits(15)))
        .collect();
    let signed_ops: Vec<(i64, i64)> = unsigned_ops
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            let (a, b) = (a as i64, b as i64);
            match i % 4 {
                0 => (a, b),
                1 => (-a, b),
                2 => (a, -b),
                _ => (-a, -b),
            }
        })
        .collect();
    let mut i = 0;
    per_iter("scalar_16bit/unsigned_core", Some(1), || {
        let (x, y) = unsigned_ops[i & 1023];
        i += 1;
        std::hint::black_box(inner.multiply_u64(x, y))
    });
    let mut i = 0;
    per_iter("scalar_16bit/sign_magnitude", Some(1), || {
        let (x, y) = signed_ops[i & 1023];
        i += 1;
        std::hint::black_box(signed.multiply_i64(x, y))
    });
}

/// Bit-sliced path: 64-lane signed blocks vs unsigned blocks (the sign
/// rule on every lane of overhead).
fn bench_bitsliced_signed_overhead() {
    let inner = SdlcMultiplier::new(16, 2).unwrap();
    let signed = SignMagnitude::new(inner.clone());
    let unsigned_batch = inner.batch_model();
    let signed_batch = signed.batch_model();
    let mut rng = SplitMix64::new(9);
    let a: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(16));
    let b: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(16));
    let [a_signed, b_signed] = [a, b].map(|lanes| lanes.map(|x| i64::from(x as u16 as i16)));
    let lanes = Some(LANES as u64);
    per_iter("bitsliced_16bit_block/unsigned_core", lanes, || {
        std::hint::black_box(unsigned_batch.multiply_lanes(&a, &b)[LANES - 1])
    });
    per_iter("bitsliced_16bit_block/sign_magnitude", lanes, || {
        std::hint::black_box(signed_batch.multiply_lanes_signed(&a_signed, &b_signed)[LANES - 1])
    });
}

/// The signed exhaustive drivers end to end: scalar vs bit-sliced on a
/// full 12-bit signed sweep (16.8 M pairs).
fn bench_signed_exhaustive_drivers() {
    let model = signed_sdlc(12, 2).unwrap();
    for (name, engine) in [("scalar", Engine::Scalar), ("bitsliced", Engine::BitSliced)] {
        let options = EvalOptions {
            engine,
            threads: std::num::NonZeroUsize::new(1),
        };
        per_iter(
            &format!("signed_exhaustive_12bit/{name}"),
            Some(1 << 24),
            || std::hint::black_box(exhaustive_signed_with(&model, options).unwrap()),
        );
    }
}

/// The Sobel/Scharr pipelines over a 200×200 scene — the workload the
/// signed subsystem exists to serve.
fn bench_gradient_pipelines() {
    let image = scenes::blobs(200, 200, 7);
    let pixels = Some(u64::from(image.width()) * u64::from(image.height()));
    let exact = SignMagnitude::new(sdlc_core::AccurateMultiplier::new(16).unwrap());
    let approx = signed_sdlc(16, 2).unwrap();
    let configs: [(String, &dyn SignedMultiplier); 2] =
        [("accurate".into(), &exact), (approx.name(), &approx)];
    for (name, model) in configs {
        per_iter(&format!("gradient_200x200/sobel/{name}"), pixels, || {
            std::hint::black_box(sobel_magnitude(&image, model))
        });
        per_iter(&format!("gradient_200x200/scharr/{name}"), pixels, || {
            std::hint::black_box(scharr_magnitude(&image, model))
        });
    }
}

fn main() {
    bench_scalar_signed_overhead();
    bench_bitsliced_signed_overhead();
    bench_signed_exhaustive_drivers();
    bench_gradient_pipelines();
}
