//! Differential proof that the compiled glitch engine is a bit-exact
//! twin of the scalar event-driven [`TimingSim`]: identical per-net
//! transition totals (functional toggles *and* glitches), identical total
//! transition counts and settle times for identical per-lane streams —
//! plus the folding contract of the zero-delay compiled engine
//! (const-prop/CSE programs bit-identical to 64 scalar `LogicSim` lane
//! streams, toggles included).

use proptest::prelude::*;
use sdlc::core::baselines::TruncatedMultiplier;
use sdlc::core::circuits::{
    accurate_multiplier, etm_multiplier, kulkarni_multiplier, sdlc_multiplier, signed_multiplier,
    truncated_multiplier, ReductionScheme,
};
use sdlc::core::SdlcMultiplier;
use sdlc::netlist::{passes, Netlist};
use sdlc::sim::activity::{random_activity_with_engine, timing_activity_with_engine};
use sdlc::sim::{
    CompiledNetlist, CompiledSim, Engine, GlitchSim, LogicSim, TimedProgram, TimingSim, WHEEL_WORDS,
};
use sdlc::techlib::Library;
use sdlc::wideint::SplitMix64;

/// Builds a random feed-forward gate DAG (same shape as the zero-delay
/// engine suite): `inputs` primary inputs, then `ops` gates decoded from
/// the seeds — buffers, constants and muxes included, so delay-bearing
/// buffers and const-fed gates are exercised, not just arithmetic cells.
///
/// Event-driven simulation of an *arbitrary* DAG can amplify
/// exponentially (an XOR tree doubles its waveform event count per
/// level), so gate sources are redirected to primary inputs whenever a
/// candidate gate's worst-case event bound would exceed a cap — the DAGs
/// keep reconvergent, glitchy structure without pathological cases that
/// would stall the differential sweep.
fn random_dag(inputs: u32, ops: &[(u8, u32, u32, u32)]) -> Netlist {
    const EVENT_CAP: u64 = 64;
    let mut n = Netlist::new("dag");
    let mut nets = n.add_input_bus("a", inputs);
    // Worst-case events per net and per vector transition: one per input,
    // the sum of the source bounds per gate output.
    let mut events: Vec<u64> = vec![1; nets.len()];
    for &(kind, s0, s1, s2) in ops {
        let pick = |s: u32| -> usize { s as usize % nets.len() };
        let (mut ia, mut ib, mut ic) = (pick(s0), pick(s1), pick(s2));
        if events[ia] + events[ib] + events[ic] > EVENT_CAP {
            (ia, ib, ic) = (
                ia % inputs as usize,
                ib % inputs as usize,
                ic % inputs as usize,
            );
        }
        events.push(events[ia] + events[ib] + events[ic]);
        let (a, b, c) = (nets[ia], nets[ib], nets[ic]);
        let out = match kind % 11 {
            0 => n.buf(a),
            1 => n.not(a),
            2 => n.and2(a, b),
            3 => n.or2(a, b),
            4 => n.nand2(a, b),
            5 => n.nor2(a, b),
            6 => n.xor2(a, b),
            7 => n.xnor2(a, b),
            8 => n.mux2(a, b, c),
            9 => {
                let zero = n.const0();
                n.or2(a, zero)
            }
            _ => {
                let one = n.const1();
                n.and2(b, one)
            }
        };
        nets.push(out);
    }
    let outs: Vec<_> = nets.iter().rev().take(8).copied().collect();
    n.set_output_bus("p", outs);
    n
}

/// One stimulus plane of the compiled glitch engine.
type Plane = [u64; WHEEL_WORDS];

/// Runs `planes` through the compiled glitch engine and through scalar
/// [`TimingSim`] streams, asserting exact per-net/total agreement. Each
/// word `w` of a plane must carry `streams` distinct lane streams
/// replicated across its 64 lanes (lane `i` of word `w` = stream `(w, i %
/// streams)`), so every wheel word holds streams of its own and the
/// compiled totals are exactly `64 / streams` times the scalar sum.
fn assert_glitch_match(n: &Netlist, lib: &Library, planes: &[Vec<Plane>], streams: u32) {
    assert_eq!(64 % streams, 0);
    let replication = u64::from(64 / streams);
    let program = TimedProgram::compile(n, lib);
    let mut compiled = GlitchSim::new(&program);
    compiled.settle(&planes[0]);
    let mut compiled_transitions = 0u64;
    let mut compiled_settle = 0.0f64;
    for plane in &planes[1..] {
        let result = compiled.apply(plane);
        compiled_transitions += result.transitions;
        compiled_settle = compiled_settle.max(result.settle_ps);
    }
    let mut scalar_totals = vec![0u64; n.net_count()];
    let mut scalar_transitions = 0u64;
    let mut scalar_settle = 0.0f64;
    for word in 0..WHEEL_WORDS {
        for lane in 0..streams {
            let bits = |plane: &Vec<Plane>| -> Vec<bool> {
                plane.iter().map(|w| (w[word] >> lane) & 1 == 1).collect()
            };
            let mut sim = TimingSim::new(n, lib);
            sim.settle(&bits(&planes[0]));
            for plane in &planes[1..] {
                let result = sim.apply(&bits(plane));
                scalar_transitions += result.transitions;
                scalar_settle = scalar_settle.max(result.settle_ps);
            }
            for (total, &t) in scalar_totals.iter_mut().zip(sim.toggles()) {
                *total += t;
            }
            // Final lane values match the scalar steady state.
            for gate in n.gates() {
                assert_eq!(
                    compiled.lane_value(gate.output, 64 * word as u32 + lane),
                    sim.value(gate.output),
                    "net {} word {word} lane {lane}",
                    gate.output
                );
            }
        }
    }
    let scaled: Vec<u64> = scalar_totals.iter().map(|&t| t * replication).collect();
    assert_eq!(compiled.toggles_per_net(), scaled);
    assert_eq!(compiled_transitions, scalar_transitions * replication);
    assert!((compiled_settle - scalar_settle).abs() < 1e-9);
    // No event can land past the STA arrival bound.
    assert!(compiled_settle <= program.critical_arrival_ps() + 1e-6);
}

/// `count` planes per input, each word drawn by `word(rng)`.
fn draw_planes(
    inputs: usize,
    count: usize,
    rng: &mut SplitMix64,
    word: impl Fn(&mut SplitMix64) -> u64,
) -> Vec<Vec<Plane>> {
    (0..count)
        .map(|_| {
            (0..inputs)
                .map(|_| std::array::from_fn(|_| word(rng)))
                .collect()
        })
        .collect()
}

/// Replicates an 8-bit pattern into all 8 byte lanes, so a word's 64 lanes
/// carry 8 distinct streams.
fn replicate8(byte: u64) -> u64 {
    (byte & 0xFF) * 0x0101_0101_0101_0101
}

proptest! {
    /// On random gate DAGs, the compiled glitch engine counts exactly the
    /// transitions (glitches included) that scalar TimingSim streams do.
    #[test]
    fn compiled_glitches_match_timing_sim_on_random_dags(
        inputs in 1u32..7,
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..40),
        seed in any::<u64>(),
    ) {
        let n = random_dag(inputs, &ops);
        n.validate().unwrap();
        let mut rng = SplitMix64::new(seed);
        let planes = draw_planes(inputs as usize, 4, &mut rng, |rng| replicate8(rng.next_u64()));
        assert_glitch_match(&n, &Library::generic_90nm(), &planes, 8);
    }

    /// Deeper zero-delay folding stays bit-identical to 64 scalar
    /// `LogicSim` lane streams on DAGs stuffed with const feeds and
    /// duplicate gates.
    #[test]
    fn folding_keeps_values_and_toggles_bit_identical(
        inputs in 1u32..6,
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..48),
        seed in any::<u64>(),
    ) {
        let mut n = random_dag(inputs, &ops);
        // Duplicate every third op's signature on purpose (CSE bait) and
        // re-emit const-fed gates.
        let nets: Vec<_> = n.gates().iter().map(|g| g.output).collect();
        let mut dup = Vec::new();
        for (i, gate) in n.gates().iter().enumerate().skip(inputs as usize) {
            if i % 3 == 0 && gate.inputs.len() == 2 {
                dup.push((gate.kind, gate.inputs[0], gate.inputs[1]));
            }
        }
        for (kind, a, b) in dup {
            let redone = n.add_gate(kind, &[b, a]); // swapped: still CSE-able
            let zero = n.const0();
            let _ = n.or2(redone, zero);
        }
        let tail: Vec<_> = nets.iter().rev().take(4).copied().collect();
        n.set_output_bus("q", tail);
        n.validate().unwrap();

        let program = CompiledNetlist::compile(&n);
        prop_assert!(program.op_count() <= n.cell_count());
        let mut compiled = CompiledSim::new(&program);
        let mut rng = SplitMix64::new(seed);
        let words: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..inputs).map(|_| rng.next_u64()).collect())
            .collect();
        for word in &words {
            compiled.apply(word);
        }
        let mut toggles = vec![0u64; n.net_count()];
        for lane in 0..64 {
            let mut scalar = LogicSim::new(&n);
            for word in &words {
                let bits: Vec<bool> = word.iter().map(|&w| (w >> lane) & 1 == 1).collect();
                scalar.apply(&bits);
            }
            for gate in n.gates() {
                let net = gate.output;
                prop_assert_eq!(
                    compiled.lane_value(net, lane),
                    scalar.value(net),
                    "net {} lane {}", net, lane
                );
            }
            for (total, &t) in toggles.iter_mut().zip(scalar.toggles()) {
                *total += t;
            }
        }
        prop_assert_eq!(compiled.toggles_per_net(), toggles);
    }
}

/// One small design per circuit generator family.
fn generator_families() -> Vec<Netlist> {
    let scheme = ReductionScheme::RippleRows;
    let sdlc2 = SdlcMultiplier::new(6, 2).unwrap();
    let sdlc4 = SdlcMultiplier::new(6, 4).unwrap();
    let trunc = TruncatedMultiplier::new(6, 3).unwrap();
    vec![
        accurate_multiplier(6, scheme).unwrap(),
        accurate_multiplier(6, ReductionScheme::Wallace).unwrap(),
        sdlc_multiplier(&sdlc2, scheme),
        sdlc_multiplier(&sdlc4, ReductionScheme::Dadda),
        truncated_multiplier(&trunc, scheme),
        etm_multiplier(6, scheme).unwrap(),
        kulkarni_multiplier(8, scheme).unwrap(),
        signed_multiplier(&sdlc_multiplier(&sdlc2, scheme), 6),
    ]
}

/// Runs every generator family through [`assert_glitch_match`] under `lib`.
fn assert_families_match(lib: &Library) {
    for n in &generator_families() {
        let mut rng = SplitMix64::new(0x6117C4);
        let planes = draw_planes(n.inputs().len(), 4, &mut rng, |rng| {
            replicate8(rng.next_u64())
        });
        assert_glitch_match(n, lib, &planes, 8);
    }
}

/// A library whose cell `name` has intrinsic delay `delay(name)` and load
/// slope `drive(name)` (input caps and wire caps of 1 fF).
fn delay_library(delay: impl Fn(&str) -> f64, drive: impl Fn(&str) -> f64) -> Library {
    let mut text = String::from("library delays { wire_cap_per_fanout_ff 1\n");
    for cell in [
        "BUF", "INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "MUX2",
    ] {
        text += &format!(
            "cell {cell} {{ area 1 cap 1 delay {} drive {} energy 1 leak 1 }}\n",
            delay(cell),
            drive(cell)
        );
    }
    Library::from_text(&(text + "}")).unwrap()
}

/// Every circuit generator family produces identical glitch totals on the
/// compiled engine and on scalar TimingSim streams.
#[test]
fn every_generator_family_agrees_with_timing_sim() {
    assert_families_match(&Library::generic_90nm());
}

/// One cell four orders of magnitude faster than the rest: the wheel's
/// bucket span follows the critical path (`critical / 4096`), not that
/// cell, so its events land in the bucket being drained. That holds once
/// the critical path passes 64 ps, as every design here does; a unit test
/// in `glitch.rs` asserts it for this library.
#[test]
fn skewed_delays_agree_with_timing_sim() {
    let fast = |cell: &str| cell == "AND2";
    assert_families_match(&delay_library(
        |cell| if fast(cell) { 0.01 } else { 100.0 },
        |cell| if fast(cell) { 0.0 } else { 2.5 },
    ));
}

/// Equal delays and no load slope: whole logic levels switch at the same
/// tick, so many ops share one time and reconvergent paths schedule the
/// same `(time, op)` key more than once.
#[test]
fn uniform_delays_agree_with_timing_sim() {
    assert_families_match(&delay_library(|_| 40.0, |_| 0.0));
}

/// The full stream layout (no replication: all 64 lanes of every wheel
/// word distinct) matches as many scalar sims on a real multiplier.
#[test]
fn full_64_lane_streams_match_on_an_sdlc_multiplier() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let n = sdlc_multiplier(&model, ReductionScheme::Wallace);
    let mut rng = SplitMix64::new(0xFEED);
    let planes = draw_planes(n.inputs().len(), 3, &mut rng, SplitMix64::next_u64);
    assert_glitch_match(&n, &Library::generic_90nm(), &planes, 64);
}

/// The glitch-activity driver: deterministic, glitch-aware, and identical
/// to the scalar reference driving the same lane streams.
#[test]
fn glitch_activity_driver_contract() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let n = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let lib = Library::generic_90nm();
    let compiled = timing_activity_with_engine(&n, &lib, 0x5D1C, 512, Engine::Compiled);
    assert_eq!(
        compiled,
        timing_activity_with_engine(&n, &lib, 0x5D1C, 512, Engine::Compiled)
    );
    assert!(compiled.includes_glitches);
    assert_eq!(compiled.transition_count, 512);
    let scalar = timing_activity_with_engine(&n, &lib, 0x5D1C, 512, Engine::Scalar);
    assert_eq!(compiled, scalar);
    // Glitch-aware totals dominate the zero-delay estimate.
    let zero_delay = random_activity_with_engine(&n, 0x5D1C, 512, Engine::Compiled);
    assert!(compiled.mean_activity() >= zero_delay.mean_activity());
}

/// TimingSim's own settle times also respect the TimedProgram's arrival
/// metadata — the two engines share one delay model.
#[test]
fn arrival_metadata_bounds_both_engines() {
    let model = SdlcMultiplier::new(8, 3).unwrap();
    let n = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let lib = Library::generic_90nm();
    let program = TimedProgram::compile(&n, &lib);
    let bound = program.critical_arrival_ps();
    let mut sim = TimingSim::new(&n, &lib);
    let stim = |a: u128, b: u128| sdlc::sim::ab_stimulus(&n, a, b);
    sim.settle(&stim(0, 0));
    let mut rng = SplitMix64::new(0xB0B);
    for _ in 0..50 {
        let a = u128::from(rng.next_bits(8));
        let b = u128::from(rng.next_bits(8));
        let result = sim.apply(&stim(a, b));
        assert!(result.settle_ps <= bound + 1e-6);
    }
}

/// The glitch-activity drivers at the benchmark's `synth` configuration:
/// optimized 16-bit designs, seed `0x5D1C`, as the synthesis flow runs
/// them (at 512 vectors), counting every one of `vectors`.
fn assert_engines_agree_at_16_bits(mut n: Netlist, vectors: u64) {
    let _ = passes::optimize(&mut n);
    let lib = Library::generic_90nm();
    let compiled = timing_activity_with_engine(&n, &lib, 0x5D1C, vectors, Engine::Compiled);
    let scalar = timing_activity_with_engine(&n, &lib, 0x5D1C, vectors, Engine::Scalar);
    assert_eq!(compiled, scalar, "{vectors} vectors");
    assert_eq!(compiled.transition_count, vectors);
}

#[test]
#[ignore = "scalar event simulation of a 16-bit array; run in release"]
fn release_accurate_ripple_16_bit_engines_agree() {
    assert_engines_agree_at_16_bits(
        accurate_multiplier(16, ReductionScheme::RippleRows).unwrap(),
        512,
    );
}

#[test]
#[ignore = "scalar event simulation of a 16-bit array; run in release"]
fn release_signed_sdlc_csa_16_bit_engines_agree() {
    let model = SdlcMultiplier::new(16, 4).unwrap();
    let core = sdlc_multiplier(&model, ReductionScheme::CarrySaveArray);
    assert_engines_agree_at_16_bits(signed_multiplier(&core, 16), 512);
}

/// Vector counts that leave words of the activity driver's wheels idle
/// (64, 192 and 320 vectors: 1, 3 and 5 groups of 64 lanes) or, on one or
/// two cores, none (512): idle wheel words count nothing.
#[test]
#[ignore = "scalar event simulation of a 16-bit array; run in release"]
fn release_partly_filled_wheels_agree_on_a_16_bit_sdlc_multiplier() {
    let model = SdlcMultiplier::new(16, 4).unwrap();
    for vectors in [64, 192, 320, 512] {
        assert_engines_agree_at_16_bits(sdlc_multiplier(&model, ReductionScheme::Dadda), vectors);
    }
}
