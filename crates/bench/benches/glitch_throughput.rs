//! Glitch-engine throughput: scalar event-driven `TimingSim` vs the
//! compiled word-parallel `GlitchSim` — the performance budget that stops
//! `glitch_power` from being the slow tail of `sdlc-cli synth`.
//!
//! Drives 8/12/16-bit SDLC and accurate multipliers through both timing
//! engines on ONE thread each (the compiled engine sharing each op
//! evaluation across its 256 lanes, walking ops instead of popping
//! events, is the whole win measured here; multi-threading its runs only
//! multiplies it). The 12-bit SDLC case is the acceptance headline: the
//! compiled backend must be at least 10× faster single-core (asserted).
//! A 32-bit row times the compiled engine alone, between 16 bits and the
//! paper's widths (the scalar engine would take minutes there).
//!
//! `SDLC_FAST=1` shrinks the vector budgets and skips the assertions.

use sdlc_bench::{banner, fast_mode, stopwatch};
use sdlc_core::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use sdlc_core::SdlcMultiplier;
use sdlc_netlist::Netlist;
use sdlc_sim::{ab_stimulus, GlitchSim, TimedProgram, TimingSim, WHEEL_LANES, WHEEL_WORDS};
use sdlc_techlib::Library;
use sdlc_wideint::SplitMix64;

fn designs(width: u32) -> Vec<(String, Netlist)> {
    let scheme = ReductionScheme::RippleRows;
    let mut out = vec![(
        "accurate".to_string(),
        accurate_multiplier(width, scheme).expect("valid width"),
    )];
    let model = SdlcMultiplier::new(width, 2).expect("valid width");
    out.push((format!("sdlc_d{}", 2), sdlc_multiplier(&model, scheme)));
    out
}

/// One scalar `TimingSim` stream of `vectors` seeded random transitions.
fn scalar_transitions(netlist: &Netlist, library: &Library, seed: u64, vectors: u64) -> u64 {
    let width = netlist.bus("a").unwrap().len() as u32;
    let mut rng = SplitMix64::new(seed);
    let mut draw = move || {
        (
            u128::from(rng.next_bits(width)),
            u128::from(rng.next_bits(width)),
        )
    };
    let mut sim = TimingSim::new(netlist, library);
    let (a0, b0) = draw();
    sim.settle(&ab_stimulus(netlist, a0, b0));
    let mut transitions = 0;
    for _ in 0..vectors {
        let (a, b) = draw();
        transitions += sim.apply(&ab_stimulus(netlist, a, b)).transitions;
    }
    transitions
}

/// Input planes the compiled engine applies for `vectors` vectors, one
/// per lane stream.
fn compiled_applies(vectors: u64) -> u64 {
    vectors.div_ceil(WHEEL_LANES as u64)
}

/// The compiled equivalent: `WHEEL_LANES` lane streams,
/// [`compiled_applies`] planes, one thread.
fn compiled_transitions(netlist: &Netlist, library: &Library, seed: u64, vectors: u64) -> u64 {
    let width = netlist.bus("a").unwrap().len() as u32;
    let program = TimedProgram::compile(netlist, library);
    let mut rngs: Vec<SplitMix64> = (0..WHEEL_LANES as u64)
        .map(|lane| SplitMix64::new(seed ^ (lane * 0x9e37_79b9_7f4a_7c15)))
        .collect();
    let inputs = netlist.inputs().len();
    let mut stimulus = vec![[0u64; WHEEL_WORDS]; inputs];
    let mut draw_plane = |stimulus: &mut [[u64; WHEEL_WORDS]]| {
        stimulus.fill([0; WHEEL_WORDS]);
        for (lane, rng) in rngs.iter_mut().enumerate() {
            let a = rng.next_bits(width);
            let b = rng.next_bits(width);
            for (j, plane) in stimulus.iter_mut().enumerate() {
                let bit = if (j as u32) < width {
                    (a >> j) & 1
                } else {
                    (b >> (j as u32 - width)) & 1
                };
                plane[lane / 64] |= bit << (lane % 64);
            }
        }
    };
    let mut sim = GlitchSim::new(&program);
    draw_plane(&mut stimulus);
    sim.settle(&stimulus);
    let mut transitions = 0;
    for _ in 0..compiled_applies(vectors) {
        draw_plane(&mut stimulus);
        transitions += sim.apply(&stimulus).transitions;
    }
    transitions
}

fn main() {
    banner(
        "Glitch-activity throughput: scalar TimingSim vs compiled GlitchSim",
        "engineering benchmark (no paper counterpart)",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("machine: {cores} cores\n");
    let lib = Library::generic_90nm();

    println!("== glitch-aware activity, single-core (256-lane op walks are the win) ==");
    let mut headline = None;
    for width in [8u32, 12, 16] {
        let vectors: u64 = match width {
            8 => 4096,
            12 => 2048,
            _ => 1024,
        } / if fast_mode() { 4 } else { 1 };
        for (name, netlist) in designs(width) {
            let (scalar, t_scalar) =
                stopwatch(|| scalar_transitions(&netlist, &lib, 0xAC, vectors));
            let (compiled, t_compiled) =
                stopwatch(|| compiled_transitions(&netlist, &lib, 0xAC, vectors));
            let speedup = t_scalar / t_compiled;
            if width == 12 && name.starts_with("sdlc") {
                headline = Some(speedup);
            }
            println!(
                "  {width:2}-bit {name:<9} {vectors:>5} vec  scalar {:>7.1} kvec/s ({:>5.2} trans/vec)  \
                 compiled {:>8.1} kvec/s ({:>5.2} trans/vec)  speedup {speedup:>5.1}x",
                vectors as f64 / t_scalar / 1e3,
                scalar as f64 / vectors as f64,
                vectors as f64 / t_compiled / 1e3,
                compiled as f64 / (compiled_applies(vectors) * WHEEL_LANES as u64) as f64,
            );
        }
    }
    let vectors: u64 = if fast_mode() { 256 } else { 1024 };
    for (name, netlist) in designs(32) {
        let (compiled, t_compiled) =
            stopwatch(|| compiled_transitions(&netlist, &lib, 0xAC, vectors));
        println!(
            "  32-bit {name:<9} {vectors:>5} vec  scalar     (not run)                   \
             compiled {:>8.1} kvec/s ({:>5.2} trans/vec)",
            vectors as f64 / t_compiled / 1e3,
            compiled as f64 / (compiled_applies(vectors) * WHEEL_LANES as u64) as f64,
        );
    }
    if let Some(speedup) = headline {
        println!(
            "\n  headline: 12-bit SDLC glitch activity runs {speedup:.1}x faster compiled, \
             single-core (acceptance floor: 10x)"
        );
        assert!(
            fast_mode() || speedup >= 10.0,
            "compiled glitch engine regressed below the 10x floor: {speedup:.1}x"
        );
    }
}
