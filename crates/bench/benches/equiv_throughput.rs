//! Gate-level engine throughput: scalar vs compiled equivalence checking
//! and activity estimation — not a paper experiment, but the performance
//! budget that turns exhaustive netlist-vs-model verification from an
//! 8-bit ceiling into routine 10-bit (and large sampled) material.
//!
//! For each width in {4, 6, 8, 10} and each design family (accurate,
//! SDLC d2, SDLC d4), the harness times `check_exhaustive` on both
//! engines and reports vectors/s plus the compiled speedup; then sampled
//! equivalence at 16 bits — per-pair model calls on both engines, and the
//! compiled engine against the bit-sliced twin through `check_planes`, as
//! `sdlc-cli verify` runs it — and switching-activity sweeps. The
//! verdicts (and toggle totals) are asserted identical along the way, so
//! the bench doubles as a coarse differential test.
//!
//! `SDLC_FAST=1` drops the 10-bit scalar sweep (the slow tail).

use std::time::Instant;

use sdlc_bench::{banner, fast_mode};
use sdlc_core::batch::{BatchMultiplier, Batchable};
use sdlc_core::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use sdlc_core::{AccurateMultiplier, Multiplier, SdlcMultiplier};
use sdlc_netlist::Netlist;
use sdlc_sim::activity::random_activity_with_engine;
use sdlc_sim::equiv::{check, check_planes, Coverage, OperandPlanes};
use sdlc_sim::Engine;
use sdlc_wideint::U256;

/// An unsigned functional model, checked against its netlist.
type Oracle = Box<dyn Fn(u128, u128) -> U256 + Sync>;

/// The model's bit-sliced twin, as a plane model of `check_planes`.
type PlaneOracle = Box<dyn Fn(OperandPlanes<'_>, &mut [u64]) + Sync>;

/// `batch` as a plane model.
fn plane_oracle(batch: impl BatchMultiplier + Sync + 'static) -> PlaneOracle {
    Box::new(move |ops, product| match ops.row {
        Some(a) => batch.multiply_planes_bcast(a, ops.b, product),
        None => batch.multiply_planes(ops.a, ops.b, product),
    })
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn designs(width: u32) -> Vec<(String, Netlist, Oracle, PlaneOracle)> {
    let scheme = ReductionScheme::RippleRows;
    let accurate = AccurateMultiplier::new(width).expect("valid width");
    let mut out: Vec<(String, Netlist, Oracle, PlaneOracle)> = vec![(
        "accurate".into(),
        accurate_multiplier(width, scheme).expect("valid width"),
        Box::new(|a, b| U256::from_u128(a).wrapping_mul(&U256::from_u128(b))),
        plane_oracle(accurate.batch_model()),
    )];
    for depth in [2u32, 4] {
        match SdlcMultiplier::new(width, depth) {
            Ok(model) => {
                let netlist = sdlc_multiplier(&model, scheme);
                let planes = plane_oracle(model.batch_model());
                out.push((
                    format!("sdlc_d{depth}"),
                    netlist,
                    Box::new(move |a, b| U256::from_u128(model.multiply_u64(a as u64, b as u64))),
                    planes,
                ));
            }
            Err(_) => continue, // depth exceeds what this width supports
        }
    }
    out
}

fn main() {
    banner(
        "Equivalence & activity throughput: scalar vs compiled gate engine",
        "engineering benchmark (no paper counterpart)",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("machine: {cores} cores\n");

    println!("== exhaustive netlist-vs-model equivalence ==");
    let mut headline: Option<f64> = None;
    for width in [4u32, 6, 8, 10] {
        let pairs = 1u64 << (2 * width);
        for (name, netlist, model, _) in designs(width) {
            if width == 10 && fast_mode() {
                println!("  {width:2}-bit {name:<9} skipped (SDLC_FAST)");
                continue;
            }
            let (scalar, t_scalar) = timed(|| {
                check(
                    &netlist,
                    width,
                    Coverage::Exhaustive,
                    Engine::Scalar,
                    &model,
                )
            });
            let (compiled, t_compiled) = timed(|| {
                check(
                    &netlist,
                    width,
                    Coverage::Exhaustive,
                    Engine::Compiled,
                    &model,
                )
            });
            assert_eq!(scalar.is_ok(), compiled.is_ok(), "{name}: verdicts diverge");
            scalar.expect("generators match their models");
            let speedup = t_scalar / t_compiled;
            if width == 8 && name == "sdlc_d2" {
                headline = Some(speedup);
            }
            println!(
                "  {width:2}-bit {name:<9} {pairs:>9} pairs  scalar {:>8.1} kpairs/s  \
                 compiled {:>9.1} kpairs/s  speedup {speedup:>6.1}x",
                pairs as f64 / t_scalar / 1e3,
                pairs as f64 / t_compiled / 1e3,
            );
        }
    }
    if let Some(speedup) = headline {
        println!(
            "\n  headline: 8-bit SDLC d2 exhaustive check runs {speedup:.1}x faster compiled \
             (acceptance floor: 20x on multi-core)"
        );
        assert!(
            cores == 1 || speedup >= 20.0,
            "compiled engine regressed below the 20x floor: {speedup:.1}x on {cores} cores"
        );
    }

    println!("\n== sampled equivalence (16-bit, 9 corners + 20000 seeded pairs) ==");
    for (name, netlist, model, plane_model) in designs(16) {
        let coverage = Coverage::Sampled {
            samples: 20_000,
            seed: 7,
        };
        let (scalar, t_scalar) = timed(|| check(&netlist, 16, coverage, Engine::Scalar, &model));
        let (compiled, t_compiled) =
            timed(|| check(&netlist, 16, coverage, Engine::Compiled, &model));
        let (planes, t_planes) =
            timed(|| check_planes(&netlist, 16, coverage, Engine::Compiled, &plane_model));
        assert_eq!(scalar.is_ok(), compiled.is_ok(), "{name}: verdicts diverge");
        assert_eq!(scalar, planes, "{name}: plane model diverges");
        scalar.expect("generators match their models");
        println!(
            "  {name:<9} scalar {:>7.1} kpairs/s  compiled {:>9.1} kpairs/s  speedup {:>6.1}x  \
             compiled+plane model {:>9.1} kpairs/s  speedup {:>6.1}x",
            20_009.0 / t_scalar / 1e3,
            20_009.0 / t_compiled / 1e3,
            t_scalar / t_compiled,
            20_009.0 / t_planes / 1e3,
            t_scalar / t_planes,
        );
    }

    println!("\n== switching-activity estimation (65536 random vectors) ==");
    // The scalar oracle runs each of the 64 lane streams through its own
    // `LogicSim`; the compiled engine packs them into one sweep, with
    // bit-identical toggle totals.
    for width in [8u32, 16] {
        for (name, netlist, _, _) in designs(width) {
            let vectors = 1u64 << 16;
            let (scalar, t_scalar) =
                timed(|| random_activity_with_engine(&netlist, 0xAC, vectors, Engine::Scalar));
            let (compiled, t_compiled) =
                timed(|| random_activity_with_engine(&netlist, 0xAC, vectors, Engine::Compiled));
            assert_eq!(scalar, compiled, "{name}: toggle totals diverge");
            println!(
                "  {width:2}-bit {name:<9} scalar {:>7.2} Mvec/s  compiled {:>7.2} Mvec/s  \
                 speedup {:>5.2}x",
                vectors as f64 / t_scalar / 1e6,
                vectors as f64 / t_compiled / 1e6,
                t_scalar / t_compiled,
            );
        }
    }
}
