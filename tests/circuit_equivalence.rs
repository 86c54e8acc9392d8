//! Cross-crate integration: every circuit generator must agree with its
//! functional model through the gate-level simulator, and the three
//! simulation engines must agree with each other on real multipliers.

use sdlc::core::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};
use sdlc::core::batch::BatchMultiplier;
use sdlc::core::circuits::{
    accurate_multiplier, etm_multiplier, kulkarni_multiplier, sdlc_multiplier,
    truncated_multiplier, ReductionScheme,
};
use sdlc::core::{Batchable, ClusterVariant, Multiplier, SdlcMultiplier};
use sdlc::netlist::passes;
use sdlc::sim::equiv::{check, Coverage, OperandPlanes};
use sdlc::sim::{
    ab_stimulus, CompiledNetlist, CompiledSim, Engine, GlitchSim, LogicSim, TimedProgram,
    TimingSim, WHEEL_LANES, WHEEL_WORDS,
};
use sdlc::techlib::Library;
use sdlc::wideint::SplitMix64;
use sdlc::wideint::U256;

#[test]
fn every_generator_matches_its_model_at_6_bits() {
    let scheme = ReductionScheme::RippleRows;
    // SDLC at every depth and variant.
    for depth in [1u32, 2, 3, 4, 6] {
        for variant in [
            ClusterVariant::Progressive,
            ClusterVariant::CeilTails,
            ClusterVariant::PairTails,
            ClusterVariant::FullOr,
        ] {
            let model = SdlcMultiplier::with_variant(6, depth, variant).unwrap();
            let netlist = sdlc_multiplier(&model, scheme);
            check(&netlist, 6, Coverage::Exhaustive, Engine::Scalar, |a, b| {
                model.multiply(a, b)
            })
            .unwrap_or_else(|e| panic!("sdlc d{depth} {variant:?}: {e}"));
        }
    }
    // ETM and truncation.
    let etm = EtmMultiplier::new(6).unwrap();
    check(
        &etm_multiplier(6, scheme).unwrap(),
        6,
        Coverage::Exhaustive,
        Engine::Scalar,
        |a, b| etm.multiply(a, b),
    )
    .unwrap();
    for dropped in [0u32, 3, 7] {
        let model = TruncatedMultiplier::new(6, dropped).unwrap();
        check(
            &truncated_multiplier(&model, scheme),
            6,
            Coverage::Exhaustive,
            Engine::Scalar,
            |a, b| model.multiply(a, b),
        )
        .unwrap_or_else(|e| panic!("trunc {dropped}: {e}"));
    }
}

#[test]
fn optimization_passes_preserve_multiplier_behavior() {
    let model = SdlcMultiplier::new(8, 3).unwrap();
    let mut netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let before = netlist.cell_count();
    let stats = passes::optimize(&mut netlist);
    assert!(stats.dead_gates_removed + stats.gates_simplified > 0);
    assert!(netlist.cell_count() <= before);
    check(
        &netlist,
        8,
        Coverage::Exhaustive,
        Engine::Compiled,
        |a, b| model.multiply(a, b),
    )
    .unwrap();
}

#[test]
fn sdlc_circuit_matches_model_exhaustively_at_10_bits() {
    // 2^20 = 1,048,576 operand pairs. On the scalar engine this sweep
    // capped circuit equivalence at 8 bits; the compiled word-parallel
    // engine packs 64 pairs per sweep and shards rows across cores,
    // making the 10-bit exhaustive check routine CI material.
    for depth in [2u32, 4] {
        let model = SdlcMultiplier::new(10, depth).unwrap();
        let netlist = sdlc_multiplier(&model, ReductionScheme::Wallace);
        check(
            &netlist,
            10,
            Coverage::Exhaustive,
            Engine::Compiled,
            |a, b| U256::from_u128(model.multiply_u64(a as u64, b as u64)),
        )
        .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2^24 pairs want the release suite")]
fn sdlc_circuit_matches_model_exhaustively_at_12_bits() {
    // 2^24 = 16.8 M operand pairs — the compiled-equivalence ceiling.
    // At this size the per-pair scalar model call dominates the compiled
    // netlist sweep, so the model side rides its bit-sliced 64-lane twin
    // (its broadcast form, one row per block) and products are compared as
    // bit-planes, as `sdlc-cli verify` does (identical verdict semantics,
    // proven against the per-pair checks at 8 bits below).
    for depth in [2u32, 4] {
        let model = SdlcMultiplier::new(12, depth).unwrap();
        let batch = model.batch_model();
        let netlist = sdlc_multiplier(&model, ReductionScheme::Wallace);
        let pairs = sdlc::sim::equiv::check_planes(
            &netlist,
            12,
            Coverage::Exhaustive,
            Engine::Compiled,
            |ops, product| plane_model(&batch, ops, product),
        )
        .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
        assert_eq!(pairs, 1 << 24);
    }
}

/// `batch` as `sdlc-cli verify`'s plane model: the broadcast form on
/// exhaustive rows, the plane form on listed pairs.
fn plane_model(batch: &impl BatchMultiplier, ops: OperandPlanes<'_>, product: &mut [u64]) {
    match ops.row {
        Some(a) => batch.multiply_planes_bcast(a, ops.b, product),
        None => batch.multiply_planes(ops.a, ops.b, product),
    }
}

#[test]
fn batched_and_per_pair_checks_agree_at_8_bits() {
    // The batched model paths, lane form and plane form, must be
    // drop-in twins of the per-pair model calls: same pass verdicts here,
    // and the engine-differential suite proves same first counterexamples
    // on planted bugs.
    let model = SdlcMultiplier::new(8, 3).unwrap();
    let batch = model.batch_model();
    let netlist = sdlc_multiplier(&model, ReductionScheme::Dadda);
    for engine in [Engine::Scalar, Engine::Compiled] {
        sdlc::sim::equiv::check_exhaustive_batched(
            &netlist,
            8,
            |a, b0, out| sdlc::core::batch::exhaustive_block(&batch, a, b0, out),
            engine,
        )
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
        let pairs = sdlc::sim::equiv::check_planes(
            &netlist,
            8,
            Coverage::Exhaustive,
            engine,
            |ops, product| plane_model(&batch, ops, product),
        )
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(pairs, 1 << 16);
    }
}

#[test]
fn kulkarni_circuit_matches_model_at_16_bits() {
    let coverage = Coverage::Sampled {
        samples: 300,
        seed: 7,
    };
    let model = KulkarniMultiplier::new(16).unwrap();
    let netlist = kulkarni_multiplier(16, ReductionScheme::RippleRows).unwrap();
    check(&netlist, 16, coverage, Engine::Scalar, |a, b| {
        model.multiply(a, b)
    })
    .unwrap();
    // The compiled engine covers the identical sampled sequence.
    check(&netlist, 16, coverage, Engine::Compiled, |a, b| {
        model.multiply(a, b)
    })
    .unwrap();
}

#[test]
fn wide_sdlc_circuit_matches_model_at_32_bits() {
    let model = SdlcMultiplier::new(32, 2).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    check(
        &netlist,
        32,
        Coverage::Sampled {
            samples: 200,
            seed: 13,
        },
        Engine::Scalar,
        |a, b| model.multiply(a, b),
    )
    .unwrap();
}

#[test]
fn all_four_engines_agree_on_an_sdlc_multiplier() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
    let lib = Library::generic_90nm();
    let program = CompiledNetlist::compile(&netlist);
    let timed = TimedProgram::compile(&netlist, &lib);
    let mut scalar = LogicSim::new(&netlist);
    let mut compiled = CompiledSim::new(&program);
    let mut timing = TimingSim::new(&netlist, &lib);
    let mut glitch = GlitchSim::new(&timed);
    timing.settle(&ab_stimulus(&netlist, 0, 0));
    glitch.settle(&vec![[0; WHEEL_WORDS]; netlist.inputs().len()]);

    let mut rng = SplitMix64::new(0xE9417);
    for _ in 0..300 {
        let a = u128::from(rng.next_bits(8));
        let b = u128::from(rng.next_bits(8));
        let stimulus = ab_stimulus(&netlist, a, b);
        scalar.apply(&stimulus);
        let word_stimulus: Vec<u64> = stimulus
            .iter()
            .map(|&bit| if bit { u64::MAX } else { 0 })
            .collect();
        let plane_stimulus: Vec<[u64; WHEEL_WORDS]> =
            word_stimulus.iter().map(|&w| [w; WHEEL_WORDS]).collect();
        compiled.apply(&word_stimulus);
        timing.apply(&stimulus);
        glitch.apply(&plane_stimulus);

        let expect = model.multiply(a, b).to_u128().unwrap();
        assert_eq!(scalar.read_bus("p"), expect);
        assert_eq!(timing.read_bus("p"), expect);
        let p_bus = netlist.bus("p").unwrap();
        let lane17 = |value: &dyn Fn(&sdlc::netlist::NetId) -> bool| -> u128 {
            p_bus
                .iter()
                .enumerate()
                .map(|(i, net)| u128::from(value(net)) << i)
                .sum()
        };
        assert_eq!(lane17(&|net| compiled.lane_value(*net, 17)), expect);
        assert_eq!(lane17(&|net| glitch.lane_value(*net, 17)), expect);
        assert_eq!(lane17(&|net| glitch.lane_value(*net, 255)), expect);
    }
    // Every lane carries the scalar stream, so each word-wide engine
    // counts exactly its lane count times its scalar twin's toggles.
    let times =
        |lanes: u64, toggles: &[u64]| -> Vec<u64> { toggles.iter().map(|&t| lanes * t).collect() };
    assert_eq!(compiled.toggles_per_net(), times(64, scalar.toggles()));
    assert_eq!(
        glitch.toggles_per_net(),
        times(WHEEL_LANES as u64, timing.toggles())
    );
}

#[test]
fn wallace_and_dadda_give_identical_functions_different_structures() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let wallace = sdlc_multiplier(&model, ReductionScheme::Wallace);
    let dadda = sdlc_multiplier(&model, ReductionScheme::Dadda);
    assert_ne!(wallace.cell_count(), dadda.cell_count());
    for netlist in [&wallace, &dadda] {
        check(
            netlist,
            8,
            Coverage::Sampled {
                samples: 400,
                seed: 3,
            },
            Engine::Scalar,
            |a, b| model.multiply(a, b),
        )
        .unwrap();
    }
}

#[test]
fn accurate_reference_is_exact_for_every_scheme_at_4_bits() {
    for scheme in [
        ReductionScheme::RippleRows,
        ReductionScheme::Wallace,
        ReductionScheme::Dadda,
    ] {
        let netlist = accurate_multiplier(4, scheme).unwrap();
        check(&netlist, 4, Coverage::Exhaustive, Engine::Scalar, |a, b| {
            sdlc::wideint::U256::from_u128(a).wrapping_mul(&sdlc::wideint::U256::from_u128(b))
        })
        .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
    }
}

#[test]
fn heterogeneous_depth_circuits_match_their_models() {
    for depths in [vec![4u32, 2, 2], vec![2, 2, 4], vec![6, 2], vec![2, 3, 3]] {
        let model = SdlcMultiplier::with_group_depths(8, &depths).unwrap();
        let netlist = sdlc_multiplier(&model, ReductionScheme::RippleRows);
        check(
            &netlist,
            8,
            Coverage::Exhaustive,
            Engine::Compiled,
            |a, b| model.multiply(a, b),
        )
        .unwrap_or_else(|e| panic!("{depths:?}: {e}"));
    }
}

#[test]
fn carry_save_scheme_matches_models() {
    let model = SdlcMultiplier::new(8, 2).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::CarrySaveArray);
    check(
        &netlist,
        8,
        Coverage::Exhaustive,
        Engine::Compiled,
        |a, b| model.multiply(a, b),
    )
    .unwrap();
    let exact = accurate_multiplier(6, ReductionScheme::CarrySaveArray).unwrap();
    check(&exact, 6, Coverage::Exhaustive, Engine::Scalar, |a, b| {
        sdlc::wideint::U256::from_u128(a).wrapping_mul(&sdlc::wideint::U256::from_u128(b))
    })
    .unwrap();
}

#[test]
fn verilog_export_covers_optimized_designs() {
    // The exporter must emit one primitive per logic cell and declare every
    // internal net, for every design family we generate.
    for netlist in [
        accurate_multiplier(8, ReductionScheme::Wallace).unwrap(),
        sdlc_multiplier(
            &SdlcMultiplier::new(8, 3).unwrap(),
            ReductionScheme::RippleRows,
        ),
        etm_multiplier(8, ReductionScheme::RippleRows).unwrap(),
        kulkarni_multiplier(8, ReductionScheme::RippleRows).unwrap(),
    ] {
        let mut optimized = netlist;
        passes::optimize(&mut optimized);
        let verilog = sdlc::netlist::to_verilog(&optimized);
        assert!(verilog.contains("module "), "{}", optimized.name());
        assert!(verilog.contains("input  [7:0] a;"));
        assert!(verilog.contains("output [15:0] p;"));
        let primitive_lines = verilog
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                ["and", "or ", "nand", "nor", "xor", "xnor", "not", "buf"]
                    .iter()
                    .any(|p| t.starts_with(p))
                    || t.starts_with("assign")
            })
            .count();
        assert!(
            primitive_lines >= optimized.cell_count(),
            "{}: {} lines vs {} cells",
            optimized.name(),
            primitive_lines,
            optimized.cell_count()
        );
    }
}
