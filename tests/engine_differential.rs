//! Differential proof that the compiled gate-sim engine is a bit-exact
//! twin of 64 scalar `LogicSim` lane streams: identical values on every
//! net, identical per-net toggle totals, identical equivalence verdicts —
//! including the *same first* counterexample when a bug is planted.

use proptest::prelude::*;
use sdlc::core::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};
use sdlc::core::batch::{BatchMultiplier, LANES};
use sdlc::core::circuits::{
    accurate_multiplier, etm_multiplier, kulkarni_multiplier, sdlc_multiplier, signed_multiplier,
    truncated_multiplier, ReductionScheme,
};
use sdlc::core::{Batchable, Multiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier};
use sdlc::netlist::Netlist;
use sdlc::sim::activity::random_activity_with_engine;
use sdlc::sim::equiv::{
    check, check_planes, check_planes_signed, check_signed, Coverage, OperandPlanes,
};
use sdlc::sim::{CompiledNetlist, CompiledSim, Engine, LogicSim};
use sdlc::wideint::bitplane::lanes_from_planes;
use sdlc::wideint::{SplitMix64, I256, U256};

/// An unsigned functional model, checked against its netlist.
type Oracle = Box<dyn Fn(u128, u128) -> U256 + Sync>;

/// Builds a random feed-forward gate DAG: `inputs` primary inputs, then
/// `ops` gates whose kinds and source nets are decoded from the seeds.
/// Deliberately includes buffers, constants and muxes so compile-time
/// folding is exercised, not just the arithmetic cells.
fn random_dag(inputs: u32, ops: &[(u8, u32, u32, u32)]) -> Netlist {
    let mut n = Netlist::new("dag");
    let mut nets = n.add_input_bus("a", inputs);
    for &(kind, s0, s1, s2) in ops {
        let pick = |s: u32| nets[s as usize % nets.len()];
        let (a, b, c) = (pick(s0), pick(s1), pick(s2));
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

/// Runs lane `i` of every word through its own scalar [`LogicSim`]:
/// returns each net's final 64-lane plane and its toggles summed over the
/// lanes — what the compiled engine must report.
fn per_lane_logic_sim(n: &Netlist, words: &[Vec<u64>]) -> (Vec<u64>, Vec<u64>) {
    let mut planes = vec![0u64; n.net_count()];
    let mut toggles = vec![0u64; n.net_count()];
    for lane in 0..64 {
        let mut sim = LogicSim::new(n);
        for word in words {
            let bits: Vec<bool> = word.iter().map(|&w| (w >> lane) & 1 == 1).collect();
            sim.apply(&bits);
        }
        for gate in n.gates() {
            planes[gate.output.index()] |= u64::from(sim.value(gate.output)) << lane;
        }
        for (total, &t) in toggles.iter_mut().zip(sim.toggles()) {
            *total += t;
        }
    }
    (planes, toggles)
}

proptest! {
    /// On random gate DAGs, the compiled program and 64 scalar lane
    /// streams agree on every net's value in every lane, and on every
    /// net's toggle count — across a multi-word stimulus stream.
    #[test]
    fn compiled_matches_structural_on_random_dags(
        inputs in 1u32..7,
        ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 1..48),
        seed in any::<u64>(),
    ) {
        let n = random_dag(inputs, &ops);
        n.validate().unwrap();
        let program = CompiledNetlist::compile(&n);
        let mut compiled = CompiledSim::new(&program);
        let mut rng = SplitMix64::new(seed);
        let words: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..inputs).map(|_| rng.next_u64()).collect())
            .collect();
        for word in &words {
            compiled.apply(word);
        }
        let (planes, toggles) = per_lane_logic_sim(&n, &words);
        for gate in n.gates() {
            let net = gate.output;
            prop_assert_eq!(compiled.plane(net), planes[net.index()], "net {}", net);
        }
        prop_assert_eq!(compiled.toggles_per_net(), toggles);
    }
}

/// Every circuit generator family passes its model check identically on
/// both engines, and its activity capture produces identical toggles.
#[test]
fn every_generator_agrees_across_engines() {
    let scheme = ReductionScheme::RippleRows;
    let sdlc4 = SdlcMultiplier::new(6, 4).unwrap();
    let trunc = TruncatedMultiplier::new(6, 3).unwrap();
    let etm = EtmMultiplier::new(6).unwrap();
    let sdlc2 = SdlcMultiplier::new(6, 2).unwrap();
    let netlists: Vec<(Netlist, Oracle)> = vec![
        (
            accurate_multiplier(6, scheme).unwrap(),
            Box::new(|a, b| U256::from_u128(a).wrapping_mul(&U256::from_u128(b))),
        ),
        (
            sdlc_multiplier(&sdlc2, scheme),
            Box::new(move |a, b| sdlc2.multiply(a, b)),
        ),
        (
            sdlc_multiplier(&sdlc4, scheme),
            Box::new(move |a, b| sdlc4.multiply(a, b)),
        ),
        (
            truncated_multiplier(&trunc, scheme),
            Box::new(move |a, b| trunc.multiply(a, b)),
        ),
        (
            etm_multiplier(6, scheme).unwrap(),
            Box::new(move |a, b| etm.multiply(a, b)),
        ),
    ];
    for (netlist, model) in &netlists {
        check(netlist, 6, Coverage::Exhaustive, Engine::Compiled, model)
            .unwrap_or_else(|e| panic!("{}: {e}", netlist.name()));
        let compiled = random_activity_with_engine(netlist, 0xD1FF, 320, Engine::Compiled);
        let structural = random_activity_with_engine(netlist, 0xD1FF, 320, Engine::Scalar);
        assert_eq!(compiled, structural, "{}", netlist.name());
    }
    // Kulkarni requires power-of-two widths; cover it at 8 bits.
    let kulkarni = KulkarniMultiplier::new(8).unwrap();
    let kulkarni_netlist = kulkarni_multiplier(8, scheme).unwrap();
    check(
        &kulkarni_netlist,
        8,
        Coverage::Exhaustive,
        Engine::Compiled,
        |a, b| kulkarni.multiply(a, b),
    )
    .unwrap();
    assert_eq!(
        random_activity_with_engine(&kulkarni_netlist, 0xD1FF, 320, Engine::Compiled),
        random_activity_with_engine(&kulkarni_netlist, 0xD1FF, 320, Engine::Scalar),
    );
    // The signed periphery (conditional negation, mux trees) too.
    let signed_model = SignMagnitude::new(SdlcMultiplier::new(6, 2).unwrap());
    let signed_netlist = signed_multiplier(&sdlc_multiplier(signed_model.inner(), scheme), 6);
    check_signed(
        &signed_netlist,
        6,
        Coverage::Exhaustive,
        Engine::Compiled,
        |a, b| signed_model.multiply_signed(a, b),
    )
    .unwrap();
    let compiled = random_activity_with_engine(&signed_netlist, 3, 256, Engine::Compiled);
    let structural = random_activity_with_engine(&signed_netlist, 3, 256, Engine::Scalar);
    assert_eq!(compiled, structural);
}

/// A planted model bug must surface as the *same first* counterexample
/// on both engines — the compiled sweep's thread sharding and 64-lane
/// packing may not reorder mismatch discovery.
#[test]
fn planted_bug_yields_identical_first_counterexample() {
    let model = SdlcMultiplier::new(6, 2).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::Wallace);
    // Wrong exactly on a stripe in the middle of the sweep.
    let wrong = |a: u128, b: u128| {
        let p = model.multiply(a, b);
        if a == 37 && b >= 21 {
            p.wrapping_add(&U256::ONE)
        } else {
            p
        }
    };
    let scalar = check(&netlist, 6, Coverage::Exhaustive, Engine::Scalar, wrong).unwrap_err();
    let compiled = check(&netlist, 6, Coverage::Exhaustive, Engine::Compiled, wrong).unwrap_err();
    assert_eq!(scalar, compiled);
    assert_eq!((scalar.a, scalar.b), (37, 21));

    // The plane checker, with the same stripe planted in the bit-sliced
    // model, reports the whole per-pair counterexample on both engines.
    // Widths 2 and 4 fill partial blocks: the bug also fires in every
    // lane past 2^width, which the valid-lane mask must hide.
    for (width, a_bug, b_bug) in [(2u32, 2u64, 1u64), (4, 11, 9), (6, 37, 21), (8, 200, 77)] {
        let model = SdlcMultiplier::new(width, 2).unwrap();
        let netlist = sdlc_multiplier(&model, ReductionScheme::Wallace);
        let batch = model.batch_model();
        let count = 1u64 << width;
        let wrong = |a: u128, b: u128| {
            let p = model.multiply(a, b);
            if a == u128::from(a_bug) && b >= u128::from(b_bug) {
                p.wrapping_add(&U256::ONE)
            } else {
                p
            }
        };
        let wrong_planes = |ops: OperandPlanes<'_>, planes: &mut [u64]| {
            plane_model(&batch, ops, planes);
            // Lane-wise +1 on the planted lanes; a lane past 2^width sits
            // in the row's one block.
            let bug = lane_mask(ops, |i, a, b| {
                (a == a_bug && b >= b_bug) || i as u64 >= count
            });
            add_one(planes, bug);
        };
        let reference =
            check(&netlist, width, Coverage::Exhaustive, Engine::Scalar, wrong).unwrap_err();
        assert_eq!((reference.a, reference.b), (a_bug.into(), b_bug.into()));
        for engine in [Engine::Scalar, Engine::Compiled] {
            let coverage = Coverage::Exhaustive;
            let planes = check_planes(&netlist, width, coverage, engine, wrong_planes);
            assert_eq!(planes, Err(reference.clone()), "{width}-bit on {engine}");
        }
    }

    // Sampled sweeps: the corner cases and seeded draw order are shared,
    // so the first failing *sample* matches as well.
    let wrong_everywhere = |a: u128, b: u128| model.multiply(a, b).wrapping_add(&U256::ONE);
    let scalar = check(
        &netlist,
        6,
        Coverage::Sampled {
            samples: 100,
            seed: 7,
        },
        Engine::Scalar,
        wrong_everywhere,
    )
    .unwrap_err();
    let compiled = check(
        &netlist,
        6,
        Coverage::Sampled {
            samples: 100,
            seed: 7,
        },
        Engine::Compiled,
        wrong_everywhere,
    )
    .unwrap_err();
    assert_eq!(scalar, compiled);
}

/// `batch` as `sdlc-cli verify`'s plane model: the broadcast form on
/// exhaustive rows, the plane form on listed pairs.
fn plane_model(batch: &impl BatchMultiplier, ops: OperandPlanes<'_>, product: &mut [u64]) {
    match ops.row {
        Some(a) => batch.multiply_planes_bcast(a, ops.b, product),
        None => batch.multiply_planes(ops.a, ops.b, product),
    }
}

/// The lanes of a block, as a lane mask, where `planted(i, a, b)` holds
/// for lane `i`'s operand patterns, read back from their planes.
fn lane_mask(ops: OperandPlanes<'_>, planted: impl Fn(usize, u64, u64) -> bool) -> u64 {
    let lanes = |planes: &[u64]| {
        let mut out = [0u64; LANES];
        lanes_from_planes(planes, &mut out);
        out
    };
    let (a, b) = (lanes(ops.a), lanes(ops.b));
    (0..LANES)
        .filter(|&i| planted(i, a[i], b[i]))
        .fold(0, |mask, i| mask | 1 << i)
}

/// Adds one to the lanes of `mask` in a product plane stack, wrapping
/// within its planes.
fn add_one(planes: &mut [u64], mask: u64) {
    let mut carry = mask;
    for plane in planes {
        let old = *plane;
        *plane ^= carry;
        carry &= old;
    }
}

/// The planted bugs of the sampled plane checks, each checked alone: a
/// corner pair, a seeded draw in a full block, and the last draw, which
/// sits in the partial last block (`samples % 64 != 0`). The plane checker
/// must report the per-pair scalar check's first counterexample on both
/// engines, in both domains.
#[test]
fn sampled_plane_checks_report_the_per_pair_counterexample() {
    let (width, samples, seed) = (12u32, 1000u64, 0x5D1C);
    let coverage = Coverage::Sampled { samples, seed };
    let mut rng = SplitMix64::new(seed);
    let draws: Vec<(u64, u64)> = (0..samples)
        .map(|_| {
            let a = rng.next_bits(width);
            (a, rng.next_bits(width))
        })
        .collect();
    let max = (1u64 << width) - 1;
    let min = 1u64 << (width - 1);
    let model = SdlcMultiplier::new(width, 3).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::Dadda);
    let batch = model.batch_model();

    // Unsigned: 9 corner pairs, then the draws; 1009 pairs end in a
    // 49-pair block.
    assert_ne!((9 + samples) % 64, 0);
    for (what, bug) in [
        ("corner", (max, 1)),
        ("draw", draws[300]),
        ("last draw", draws[samples as usize - 1]),
    ] {
        let wrong = |a: u128, b: u128| {
            let p = model.multiply(a, b);
            if (a as u64, b as u64) == bug {
                p.wrapping_add(&U256::ONE)
            } else {
                p
            }
        };
        let wrong_planes = |ops: OperandPlanes<'_>, planes: &mut [u64]| {
            plane_model(&batch, ops, planes);
            add_one(planes, lane_mask(ops, |_, a, b| (a, b) == bug));
        };
        let reference = check(&netlist, width, coverage, Engine::Scalar, wrong).unwrap_err();
        assert_eq!((reference.a as u64, reference.b as u64), bug, "{what}");
        for engine in [Engine::Scalar, Engine::Compiled] {
            let planes = check_planes(&netlist, width, coverage, engine, wrong_planes);
            assert_eq!(planes, Err(reference.clone()), "{what} on {engine}");
        }
    }

    // Signed: 25 corner pairs, then the draws; 1025 pairs end in a 1-pair
    // block.
    assert_ne!((25 + samples) % 64, 0);
    let netlist = signed_multiplier(&netlist, width);
    let signed = SignMagnitude::new(model.clone());
    let batch = signed.batch_model();
    for (what, bug) in [
        ("corner", (min, max)),
        ("draw", draws[300]),
        ("last draw", draws[samples as usize - 1]),
    ] {
        let pattern = |v: i128| v as u64 & max;
        let wrong = |a: i128, b: i128| {
            let p = signed.multiply_signed(a, b);
            if (pattern(a), pattern(b)) == bug {
                I256::from_i128(p.to_i128().unwrap() + 1)
            } else {
                p
            }
        };
        let wrong_planes = |ops: OperandPlanes<'_>, planes: &mut [u64]| {
            // Sampled blocks list their pairs: the plane form.
            assert_eq!(ops.row, None);
            batch.multiply_planes_signed(ops.a, ops.b, planes);
            add_one(planes, lane_mask(ops, |_, a, b| (a, b) == bug));
        };
        let reference = check_signed(&netlist, width, coverage, Engine::Scalar, wrong).unwrap_err();
        assert_eq!(
            (pattern(reference.a), pattern(reference.b)),
            bug,
            "signed {what}"
        );
        for engine in [Engine::Scalar, Engine::Compiled] {
            let planes = check_planes_signed(&netlist, width, coverage, engine, wrong_planes);
            assert_eq!(planes, Err(reference.clone()), "signed {what} on {engine}");
        }
    }
}

/// The compiled engine's verdict is also *positive*-identical: a passing
/// design passes on both engines over the same sampled sequence.
#[test]
fn sampled_verdicts_match_on_wide_designs() {
    let model = SdlcMultiplier::new(16, 3).unwrap();
    let netlist = sdlc_multiplier(&model, ReductionScheme::Dadda);
    for engine in [Engine::Scalar, Engine::Compiled] {
        check(
            &netlist,
            16,
            Coverage::Sampled {
                samples: 200,
                seed: 5,
            },
            engine,
            |a, b| model.multiply(a, b),
        )
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
    }
}
