//! Criterion micro-benchmarks of the functional models and engines — not
//! a paper experiment, but the performance budget that makes the
//! exhaustive sweeps above practical.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdlc_core::baselines::{EtmMultiplier, KulkarniMultiplier};
use sdlc_core::batch::{BatchMultiplier, Batchable, LANES};
use sdlc_core::error::{exhaustive_with, Engine, EvalOptions};
use sdlc_core::{AccurateMultiplier, Multiplier, SdlcMultiplier};
use sdlc_netlist::GateKind;
use sdlc_sim::{CompiledNetlist, CompiledSim, Lanes, LogicSim};
use sdlc_wideint::{SplitMix64, U256};

fn bench_multipliers(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiply_u64_16bit");
    group.throughput(Throughput::Elements(1));
    let mut rng = SplitMix64::new(1);
    let operands: Vec<(u64, u64)> = (0..1024)
        .map(|_| (rng.next_bits(16), rng.next_bits(16)))
        .collect();
    let accurate = AccurateMultiplier::new(16).unwrap();
    let sdlc = SdlcMultiplier::new(16, 2).unwrap();
    let kulkarni = KulkarniMultiplier::new(16).unwrap();
    let etm = EtmMultiplier::new(16).unwrap();
    let models: [(&str, &dyn Multiplier); 4] = [
        ("accurate", &accurate),
        ("sdlc_d2", &sdlc),
        ("kulkarni", &kulkarni),
        ("etm", &etm),
    ];
    for (name, model) in models {
        group.bench_with_input(BenchmarkId::from_parameter(name), &operands, |b, ops| {
            let mut i = 0;
            b.iter(|| {
                let (x, y) = ops[i & 1023];
                i += 1;
                std::hint::black_box(model.multiply_u64(x, y))
            });
        });
    }
    group.finish();
}

/// The headline engine comparison, part 1 — raw multiplication
/// throughput: the full 8-bit exhaustive product sweep (65 536 pairs,
/// every product materialized and folded into a checksum), scalar
/// `multiply_u64` vs the lane-form row sweep
/// (`sweep_operand_row_lanes`) that the bit-sliced `errors` flow runs.
/// This is the work the batch engine actually accelerates, and where the
/// ≥10× per-core speedup shows.
fn bench_exhaustive_products(c: &mut Criterion) {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let batch = model.batch_model();
    let mut group = c.benchmark_group("exhaustive_products_8bit_sdlc_d2");
    group.throughput(Throughput::Elements(1 << 16));
    group.bench_function("engine_scalar", |b| {
        b.iter(|| {
            let mut fold = 0u128;
            for a in 0..256u64 {
                for bb in 0..256u64 {
                    fold ^= model.multiply_u64(a, bb);
                }
            }
            fold
        })
    });
    group.bench_function("engine_bitsliced", |b| {
        b.iter(|| {
            let mut fold = 0u64;
            for a in 0..256u64 {
                batch.sweep_operand_row_lanes(a, 256, &mut |_b0, lanes| {
                    for &lane in lanes {
                        fold ^= lane;
                    }
                });
            }
            fold
        })
    });
    group.finish();
}

/// Part 2 — the same sweep driven all the way into finished
/// `ErrorMetrics`, on a single worker thread. The two runs produce
/// bit-identical metrics (`tests/batch_differential.rs`); only the time
/// differs. The ratio is smaller than the product sweep's because both
/// engines add the errors of the paper's 49 % wrong pairs at 8 bits in
/// the same scalar order. The bit-sliced engine does so per 64-lane
/// block, with the sums and maxima held in registers; even so, the
/// accounting takes most of its sweep.
fn bench_exhaustive_metrics(c: &mut Criterion) {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let mut group = c.benchmark_group("exhaustive_metrics_8bit_sdlc_d2");
    group.throughput(Throughput::Elements(1 << 16));
    for (name, engine) in [
        ("engine_scalar", Engine::Scalar),
        ("engine_bitsliced", Engine::BitSliced),
    ] {
        let options = EvalOptions {
            engine,
            threads: std::num::NonZeroUsize::new(1),
        };
        group.bench_function(name, |b| {
            b.iter(|| exhaustive_with(&model, options).unwrap())
        });
    }
    group.finish();
}

/// Raw model evaluation with the error accounting factored out: 64
/// scalar `multiply_u64` calls vs one 64-lane batch pass.
fn bench_batch_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiply_64pairs_16bit");
    group.throughput(Throughput::Elements(LANES as u64));
    let mut rng = SplitMix64::new(6);
    let a: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(16));
    let b: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(16));
    let scalar = SdlcMultiplier::new(16, 2).unwrap();
    let batch = scalar.batch_model();
    group.bench_function("sdlc_d2_scalar", |bench| {
        bench.iter(|| {
            let mut acc = 0u128;
            for i in 0..LANES {
                acc ^= scalar.multiply_u64(a[i], b[i]);
            }
            acc
        })
    });
    group.bench_function("sdlc_d2_bitsliced", |bench| {
        bench.iter(|| batch.multiply_lanes(&a, &b))
    });
    let etm = EtmMultiplier::new(16).unwrap();
    let etm_batch = etm.batch_model();
    group.bench_function("etm_scalar", |bench| {
        bench.iter(|| {
            let mut acc = 0u128;
            for i in 0..LANES {
                acc ^= etm.multiply_u64(a[i], b[i]);
            }
            acc
        })
    });
    group.bench_function("etm_bitsliced", |bench| {
        bench.iter(|| etm_batch.multiply_lanes(&a, &b))
    });
    group.finish();
}

fn bench_wide_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiply_wide_128bit");
    group.throughput(Throughput::Elements(1));
    let mut rng = SplitMix64::new(2);
    let operands: Vec<(u128, u128)> = (0..1024)
        .map(|_| {
            let hi =
                |r: &mut SplitMix64| (u128::from(r.next_u64()) << 64) | u128::from(r.next_u64());
            (hi(&mut rng), hi(&mut rng))
        })
        .collect();
    let accurate = AccurateMultiplier::new(128).unwrap();
    let sdlc = SdlcMultiplier::new(128, 2).unwrap();
    for (name, model) in [
        ("accurate", &accurate as &dyn Multiplier),
        ("sdlc_d2", &sdlc),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &operands, |b, ops| {
            let mut i = 0;
            b.iter(|| {
                let (x, y) = ops[i & 1023];
                i += 1;
                std::hint::black_box(model.multiply(x, y))
            });
        });
    }
    group.finish();
}

fn bench_wideint(c: &mut Criterion) {
    let mut group = c.benchmark_group("wideint_u256");
    // Full-width 128-bit operands: the products the wide models form.
    let mut rng = SplitMix64::new(3);
    let mut draw =
        || U256::from_u128(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()));
    let (a, b) = (draw(), draw());
    group.bench_function("mul", |bench| {
        bench.iter(|| std::hint::black_box(a.wrapping_mul(&b)))
    });
    group.bench_function("add", |bench| {
        bench.iter(|| std::hint::black_box(a.wrapping_add(&b)))
    });
    group.bench_function("to_string", |bench| {
        bench.iter(|| std::hint::black_box(a.to_string()))
    });
    group.finish();
}

fn bench_simulators(c: &mut Criterion) {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let netlist = sdlc_core::circuits::sdlc_multiplier(
        &model,
        sdlc_core::circuits::ReductionScheme::RippleRows,
    );
    let inputs = netlist.inputs().len();
    let mut group = c.benchmark_group("simulate_sdlc8_per_vector");
    group.throughput(Throughput::Elements(1));
    group.bench_function("scalar", |b| {
        let mut sim = LogicSim::new(&netlist);
        let mut rng = SplitMix64::new(4);
        b.iter(|| {
            let stimulus: Vec<bool> = (0..inputs).map(|_| rng.next_u64() & 1 == 1).collect();
            sim.apply(&stimulus);
            std::hint::black_box(sim.outputs())
        });
    });
    group.bench_function("compiled_64x", |b| {
        let program = CompiledNetlist::compile(&netlist);
        let mut sim = CompiledSim::new(&program);
        let mut rng = SplitMix64::new(5);
        b.iter(|| {
            let stimulus: Vec<u64> = (0..inputs).map(|_| rng.next_u64()).collect();
            sim.apply(&stimulus);
            std::hint::black_box(&mut sim);
        });
    });
    // The same program on `Lanes` planes, as `verify`'s compiled sweep
    // runs it: four 64-lane words per op.
    group.bench_function("compiled_256x", |b| {
        let program = CompiledNetlist::compile(&netlist);
        let mut sim = CompiledSim::<Lanes>::new(&program);
        let mut rng = SplitMix64::new(5);
        b.iter(|| {
            let stimulus: Vec<Lanes> = (0..inputs)
                .map(|_| Lanes(std::array::from_fn(|_| rng.next_u64())))
                .collect();
            sim.apply(&stimulus);
            std::hint::black_box(&mut sim);
        });
    });
    group.finish();
    // Sanity: the netlist under benchmark is the real thing.
    assert!(netlist.gate_count(GateKind::Or2) >= 22);
}

criterion_group!(
    benches,
    bench_multipliers,
    bench_exhaustive_products,
    bench_exhaustive_metrics,
    bench_batch_models,
    bench_wide_path,
    bench_wideint,
    bench_simulators
);
criterion_main!(benches);
