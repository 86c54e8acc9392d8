//! Micro-benchmarks of the functional models and engines — not a paper
//! experiment, but the performance budget that makes the exhaustive
//! sweeps above practical. Each row is a [`per_iter`] median.

use sdlc_bench::per_iter;
use sdlc_core::baselines::{EtmMultiplier, KulkarniMultiplier};
use sdlc_core::batch::{BatchMultiplier, Batchable, LANES};
use sdlc_core::error::{exhaustive_with, Engine, EvalOptions};
use sdlc_core::{AccurateMultiplier, Multiplier, SdlcMultiplier};
use sdlc_netlist::GateKind;
use sdlc_sim::{CompiledNetlist, CompiledSim, Lanes, LogicSim};
use sdlc_wideint::{SplitMix64, U256};

fn bench_multipliers() {
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
        let mut i = 0;
        per_iter(&format!("multiply_u64_16bit/{name}"), Some(1), || {
            let (x, y) = operands[i & 1023];
            i += 1;
            std::hint::black_box(model.multiply_u64(x, y))
        });
    }
}

/// The headline engine comparison, part 1 — raw multiplication
/// throughput: the full 8-bit exhaustive product sweep (65 536 pairs,
/// every product materialized and folded into a checksum), scalar
/// `multiply_u64` vs the lane-form row sweep
/// (`sweep_operand_row_lanes`) that the bit-sliced `errors` flow runs.
/// This is the work the batch engine actually accelerates, and where the
/// ≥10× per-core speedup shows.
fn bench_exhaustive_products() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let batch = model.batch_model();
    let group = "exhaustive_products_8bit_sdlc_d2";
    per_iter(&format!("{group}/engine_scalar"), Some(1 << 16), || {
        let mut fold = 0u128;
        for a in 0..256u64 {
            for bb in 0..256u64 {
                fold ^= model.multiply_u64(a, bb);
            }
        }
        fold
    });
    per_iter(&format!("{group}/engine_bitsliced"), Some(1 << 16), || {
        let mut fold = 0u64;
        for a in 0..256u64 {
            batch.sweep_operand_row_lanes(a, 256, &mut |_b0, lanes| {
                for &lane in lanes {
                    fold ^= lane;
                }
            });
        }
        fold
    });
}

/// Part 2 — the same sweep driven all the way into finished
/// `ErrorMetrics`, on a single worker thread. The two runs produce
/// bit-identical metrics (`tests/batch_differential.rs`); only the time
/// differs. The ratio is smaller than the product sweep's because both
/// engines add the errors of the paper's 49 % wrong pairs at 8 bits in
/// the same scalar order. The bit-sliced engine does so per 64-lane
/// block, with the sums and maxima held in registers; even so, the
/// accounting takes most of its sweep.
fn bench_exhaustive_metrics() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    for (name, engine) in [
        ("engine_scalar", Engine::Scalar),
        ("engine_bitsliced", Engine::BitSliced),
    ] {
        let options = EvalOptions {
            engine,
            threads: std::num::NonZeroUsize::new(1),
        };
        per_iter(
            &format!("exhaustive_metrics_8bit_sdlc_d2/{name}"),
            Some(1 << 16),
            || exhaustive_with(&model, options).unwrap(),
        );
    }
}

/// Raw model evaluation with the error accounting factored out: 64
/// scalar `multiply_u64` calls vs one 64-lane batch pass.
fn bench_batch_models() {
    let group = "multiply_64pairs_16bit";
    let lanes = Some(LANES as u64);
    let mut rng = SplitMix64::new(6);
    let a: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(16));
    let b: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(16));
    let scalar = SdlcMultiplier::new(16, 2).unwrap();
    let batch = scalar.batch_model();
    per_iter(&format!("{group}/sdlc_d2_scalar"), lanes, || {
        let mut acc = 0u128;
        for i in 0..LANES {
            acc ^= scalar.multiply_u64(a[i], b[i]);
        }
        acc
    });
    per_iter(&format!("{group}/sdlc_d2_bitsliced"), lanes, || {
        batch.multiply_lanes(&a, &b)
    });
    let etm = EtmMultiplier::new(16).unwrap();
    let etm_batch = etm.batch_model();
    per_iter(&format!("{group}/etm_scalar"), lanes, || {
        let mut acc = 0u128;
        for i in 0..LANES {
            acc ^= etm.multiply_u64(a[i], b[i]);
        }
        acc
    });
    per_iter(&format!("{group}/etm_bitsliced"), lanes, || {
        etm_batch.multiply_lanes(&a, &b)
    });
}

fn bench_wide_path() {
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
        let mut i = 0;
        per_iter(&format!("multiply_wide_128bit/{name}"), Some(1), || {
            let (x, y) = operands[i & 1023];
            i += 1;
            std::hint::black_box(model.multiply(x, y))
        });
    }
}

fn bench_wideint() {
    // Full-width 128-bit operands: the products the wide models form.
    let mut rng = SplitMix64::new(3);
    let mut draw =
        || U256::from_u128(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()));
    let (a, b) = (draw(), draw());
    per_iter("wideint_u256/mul", None, || {
        std::hint::black_box(a.wrapping_mul(&b))
    });
    per_iter("wideint_u256/add", None, || {
        std::hint::black_box(a.wrapping_add(&b))
    });
    per_iter("wideint_u256/to_string", None, || {
        std::hint::black_box(a.to_string())
    });
}

fn bench_simulators() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let netlist = sdlc_core::circuits::sdlc_multiplier(
        &model,
        sdlc_core::circuits::ReductionScheme::RippleRows,
    );
    let inputs = netlist.inputs().len();
    let group = "simulate_sdlc8_per_vector";
    let mut sim = LogicSim::new(&netlist);
    let mut rng = SplitMix64::new(4);
    per_iter(&format!("{group}/scalar"), Some(1), || {
        let stimulus: Vec<bool> = (0..inputs).map(|_| rng.next_u64() & 1 == 1).collect();
        sim.apply(&stimulus);
        std::hint::black_box(sim.outputs())
    });
    let program = CompiledNetlist::compile(&netlist);
    let mut sim = CompiledSim::new(&program);
    let mut rng = SplitMix64::new(5);
    per_iter(&format!("{group}/compiled_64x"), Some(1), || {
        let stimulus: Vec<u64> = (0..inputs).map(|_| rng.next_u64()).collect();
        sim.apply(&stimulus);
        std::hint::black_box(&mut sim);
    });
    // The same program on `Lanes` planes, as `verify`'s compiled sweep
    // runs it: four 64-lane words per op.
    let mut sim = CompiledSim::<Lanes>::new(&program);
    let mut rng = SplitMix64::new(5);
    per_iter(&format!("{group}/compiled_256x"), Some(1), || {
        let stimulus: Vec<Lanes> = (0..inputs)
            .map(|_| Lanes(std::array::from_fn(|_| rng.next_u64())))
            .collect();
        sim.apply(&stimulus);
        std::hint::black_box(&mut sim);
    });
    // Sanity: the netlist under benchmark is the real thing.
    assert!(netlist.gate_count(GateKind::Or2) >= 22);
}

fn main() {
    bench_multipliers();
    bench_exhaustive_products();
    bench_exhaustive_metrics();
    bench_batch_models();
    bench_wide_path();
    bench_wideint();
    bench_simulators();
}
