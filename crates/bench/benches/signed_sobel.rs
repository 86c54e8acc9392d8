//! Micro-benchmarks of the signed subsystem: the sign-magnitude scalar
//! and bit-sliced paths (overhead vs their unsigned cores) and the Sobel
//! / Scharr gradient-magnitude pipelines end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdlc_core::batch::{BatchMultiplier, LANES};
use sdlc_core::error::{exhaustive_signed_with, Engine, EvalOptions};
use sdlc_core::signed::signed_sdlc;
use sdlc_core::{Batchable, Multiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier};
use sdlc_imgproc::{scenes, scharr_magnitude, sobel_magnitude};
use sdlc_wideint::SplitMix64;

/// Scalar path: signed multiply vs its unsigned core (the sign handling
/// is two branches and a negate — this quantifies it).
fn bench_scalar_signed_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalar_16bit");
    group.throughput(Throughput::Elements(1));
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
    group.bench_with_input(
        BenchmarkId::from_parameter("unsigned_core"),
        &unsigned_ops,
        |b, ops| {
            let mut i = 0;
            b.iter(|| {
                let (x, y) = ops[i & 1023];
                i += 1;
                std::hint::black_box(inner.multiply_u64(x, y))
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("sign_magnitude"),
        &signed_ops,
        |b, ops| {
            let mut i = 0;
            b.iter(|| {
                let (x, y) = ops[i & 1023];
                i += 1;
                std::hint::black_box(signed.multiply_i64(x, y))
            });
        },
    );
    group.finish();
}

/// Bit-sliced path: 64-lane signed blocks vs unsigned blocks (three
/// word-wide conditional negates of overhead).
fn bench_bitsliced_signed_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitsliced_16bit_block");
    group.throughput(Throughput::Elements(LANES as u64));
    let inner = SdlcMultiplier::new(16, 2).unwrap();
    let signed = SignMagnitude::new(inner.clone());
    let unsigned_batch = inner.batch_model();
    let signed_batch = signed.batch_model();
    let mut rng = SplitMix64::new(9);
    let a_planes: [u64; 16] = core::array::from_fn(|_| rng.next_u64());
    let b_planes: [u64; 16] = core::array::from_fn(|_| rng.next_u64());
    let mut product = [0u64; 32];
    group.bench_function("unsigned_core", |b| {
        b.iter(|| {
            unsigned_batch.multiply_planes(&a_planes, &b_planes, &mut product);
            std::hint::black_box(product[31])
        });
    });
    group.bench_function("sign_magnitude", |b| {
        b.iter(|| {
            signed_batch.multiply_planes_signed(&a_planes, &b_planes, &mut product);
            std::hint::black_box(product[31])
        });
    });
    group.finish();
}

/// The signed exhaustive drivers end to end: scalar vs bit-sliced on a
/// full 12-bit signed sweep (16.8 M pairs).
fn bench_signed_exhaustive_drivers(c: &mut Criterion) {
    let mut group = c.benchmark_group("signed_exhaustive_12bit");
    group.throughput(Throughput::Elements(1u64 << 24));
    group.sample_size(10);
    let model = signed_sdlc(12, 2).unwrap();
    for (name, engine) in [("scalar", Engine::Scalar), ("bitsliced", Engine::BitSliced)] {
        let options = EvalOptions {
            engine,
            threads: std::num::NonZeroUsize::new(1),
        };
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(exhaustive_signed_with(&model, options).unwrap()));
        });
    }
    group.finish();
}

/// The Sobel/Scharr pipelines over a 200×200 scene — the workload the
/// signed subsystem exists to serve.
fn bench_gradient_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("gradient_200x200");
    let image = scenes::blobs(200, 200, 7);
    group.throughput(Throughput::Elements(
        u64::from(image.width()) * u64::from(image.height()),
    ));
    let exact = SignMagnitude::new(sdlc_core::AccurateMultiplier::new(16).unwrap());
    let approx = signed_sdlc(16, 2).unwrap();
    let configs: [(&str, &dyn SignedMultiplier); 2] =
        [("accurate", &exact), (approx_name(&approx), &approx)];
    for (name, model) in configs {
        group.bench_with_input(BenchmarkId::new("sobel", name), &image, |b, img| {
            b.iter(|| std::hint::black_box(sobel_magnitude(img, model)));
        });
        group.bench_with_input(BenchmarkId::new("scharr", name), &image, |b, img| {
            b.iter(|| std::hint::black_box(scharr_magnitude(img, model)));
        });
    }
    group.finish();
}

/// Leaks the model name into a `'static` str for `BenchmarkId` labels.
fn approx_name(model: &dyn SignedMultiplier) -> &'static str {
    Box::leak(model.name().into_boxed_str())
}

criterion_group!(
    benches,
    bench_scalar_signed_overhead,
    bench_bitsliced_signed_overhead,
    bench_signed_exhaustive_drivers,
    bench_gradient_pipelines
);
criterion_main!(benches);
