//! Switching-activity capture over seeded random stimulus.
//!
//! Dynamic power estimation needs per-net toggle statistics under a
//! representative workload. There is one driver per operation, each
//! configured by an [`Engine`]:
//!
//! * [`random_activity_with_engine`] counts zero-delay toggles under a
//!   deterministic uniform stream (the paper's setting: operands drawn
//!   uniformly, as in its exhaustive error analysis). The compiled 64-lane
//!   engine is the fast path; the scalar engine runs the same 64 lane
//!   streams through [`LogicSim`]s, the differential oracle, with
//!   identical toggle totals.
//! * [`timing_activity_with_engine`] includes glitch power through the
//!   event-driven engines: the scalar [`TimingSim`] reference, or
//!   [`GlitchSim`], the compiled word-parallel glitch backend the
//!   synthesis flow uses by default. Both drive one stimulus organization
//!   — up to eight groups of 64 seeded lane streams, which the scalar
//!   engine runs lane by lane and the compiled one up to four groups
//!   (256 lanes) per event wheel, as few as keep every core busy — and
//!   count transitions with identical
//!   inertial-delay semantics, so they return identical [`Activity`].

use core::ops::Range;

use sdlc_netlist::Netlist;
use sdlc_techlib::Library;
use sdlc_wideint::parallel::{parallel_chunks, worker_threads};
use sdlc_wideint::SplitMix64;

use crate::compile::{CompiledNetlist, CompiledSim};
use crate::glitch::{GlitchSim, TimedProgram, WHEEL_WORDS};
use crate::logic::{draw_pattern, AbPortMap, LogicSim};
use crate::timing::TimingSim;
use crate::Engine;

/// Per-net switching activity of one stimulus run.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Toggle count per net (indexed by `NetId::index`).
    pub toggles_per_net: Vec<u64>,
    /// Number of input-vector *transitions* the counts cover.
    pub transition_count: u64,
    /// Whether glitches are included (event-driven engine).
    pub includes_glitches: bool,
}

impl Activity {
    /// Total toggles across all nets.
    fn total_toggles(&self) -> u64 {
        self.toggles_per_net.iter().sum()
    }

    /// Mean toggles per net per applied transition.
    #[must_use]
    pub fn mean_activity(&self) -> f64 {
        if self.transition_count == 0 || self.toggles_per_net.is_empty() {
            return 0.0;
        }
        self.total_toggles() as f64
            / (self.transition_count as f64 * self.toggles_per_net.len() as f64)
    }
}

/// Runs `vectors` uniformly random input vectors (rounded up to a multiple
/// of 64) through the zero-delay `engine`. Lane `i` of every stimulus word
/// is vector stream `i`: [`Engine::Compiled`] sweeps all 64 lanes per word
/// through the flattened program — the fast path the `sdlc-synth` power
/// flow rides — and [`Engine::Scalar`] runs each lane through its own
/// [`LogicSim`] (the differential oracle) and sums the toggles.
///
/// Deterministic in `(netlist, seed, vectors)`; totals are bit-identical
/// on either engine.
///
/// # Panics
///
/// Panics if `vectors == 0`.
#[must_use]
pub fn random_activity_with_engine(
    netlist: &Netlist,
    seed: u64,
    vectors: u64,
    engine: Engine,
) -> Activity {
    assert!(vectors > 0, "need at least one vector");
    let words = vectors.div_ceil(64) + 1; // +1: first word establishes state
    let mut rng = SplitMix64::new(seed);
    let width = netlist.inputs().len();
    let mut draw = move || -> Vec<u64> { (0..width).map(|_| rng.next_u64()).collect() };
    let toggles_per_net = match engine {
        Engine::Scalar => {
            let stream: Vec<Vec<u64>> = (0..words).map(|_| draw()).collect();
            let mut totals = vec![0u64; netlist.net_count()];
            let mut bits = vec![false; width];
            for lane in 0..64 {
                let mut sim = LogicSim::new(netlist);
                for word in &stream {
                    for (bit, &w) in bits.iter_mut().zip(word) {
                        *bit = (w >> lane) & 1 == 1;
                    }
                    sim.apply(&bits);
                }
                add_toggles(&mut totals, sim.toggles());
            }
            totals
        }
        Engine::Compiled => {
            let program = CompiledNetlist::compile(netlist);
            let mut sim = CompiledSim::new(&program);
            for _ in 0..words {
                sim.apply(&draw());
            }
            sim.toggles_per_net()
        }
    };
    Activity {
        toggles_per_net,
        transition_count: (words - 1) * 64,
        includes_glitches: false,
    }
}

fn add_toggles(totals: &mut [u64], toggles: &[u64]) {
    for (total, &t) in totals.iter_mut().zip(toggles) {
        *total += t;
    }
}

/// The scalar body of [`timing_activity_with_engine`]: one [`TimingSim`]
/// pass per lane stream of [`glitch_activity`]'s stimulus organization,
/// which it matches exactly.
fn timing_activity(netlist: &Netlist, library: &Library, seed: u64, vectors: u64) -> Activity {
    let streams = LaneStreams::new(netlist, seed, vectors);
    let toggles_per_net = streams.sum_shards(streams.groups, worker_threads(), |groups| {
        // `settle` rebuilds the whole steady state, so one simulator serves
        // every lane of every group; its toggle counts sum over them.
        let mut sim = TimingSim::new(netlist, library);
        let mut stimulus = vec![false; netlist.inputs().len()];
        for group in groups {
            for lane in 0..64 {
                let mut rng = streams.lane_rng(group, lane);
                streams.draw_bits(&mut rng, &mut stimulus);
                sim.settle(&stimulus);
                for _ in 0..streams.words {
                    streams.draw_bits(&mut rng, &mut stimulus);
                    let _ = sim.apply(&stimulus);
                }
            }
        }
        sim.toggles().to_vec()
    });
    streams.activity(toggles_per_net)
}

/// Runs `vectors` random operand pairs (rounded up to fill whole 64-lane
/// words) through an event-driven `engine`, glitches included, on a
/// netlist with the `a`/`b`/`p` port convention. [`Engine::Scalar`] is the
/// [`TimingSim`] reference; [`Engine::Compiled`] runs the word-parallel
/// [`GlitchSim`] backend — the default the `sdlc-synth` glitch-power flow
/// rides — and falls back to the scalar engine when the netlist's event
/// times outgrow its packed wheel keys. Both drive the same lane streams
/// with the same inertial-delay semantics, so they return identical
/// [`Activity`]; each is deterministic in `(netlist, seed, vectors)` and
/// independent of the machine's core count.
///
/// # Panics
///
/// Panics if `vectors == 0`, the netlist lacks `a`/`b` buses or it has
/// inputs beyond them.
#[must_use]
pub fn timing_activity_with_engine(
    netlist: &Netlist,
    library: &Library,
    seed: u64,
    vectors: u64,
    engine: Engine,
) -> Activity {
    match engine {
        Engine::Scalar => timing_activity(netlist, library, seed, vectors),
        Engine::Compiled => glitch_activity(netlist, library, seed, vectors),
    }
}

/// Fixed stream-group count of the glitch-aware engines: the stimulus is
/// organized as up to 8 groups of 64 lane streams, so results never
/// depend on the machine's core count (the scalar engine's workers split
/// groups, the compiled engine's split wheels of up to [`WHEEL_WORDS`]
/// groups).
const GLITCH_GROUPS: u64 = 8;

/// The compiled body of [`timing_activity_with_engine`], on one worker
/// per available core.
fn glitch_activity(netlist: &Netlist, library: &Library, seed: u64, vectors: u64) -> Activity {
    glitch_activity_on(netlist, library, seed, vectors, worker_threads())
}

/// The lane streams through [`GlitchSim`] on `threads` workers, one group
/// per wheel word. Each wheel takes as many groups as keep every worker
/// busy, at most [`WHEEL_WORDS`]: a fuller wheel pops each key for more
/// lanes, more wheels spread over more cores. On one or two workers the 8
/// default groups run as 2 full wheels; on 8 or more, as 8 wheels of one
/// group. Words of a wheel past its last group stay 0 and count nothing,
/// and every lane counts as in [`TimingSim`], so the split never changes
/// the [`Activity`].
fn glitch_activity_on(
    netlist: &Netlist,
    library: &Library,
    seed: u64,
    vectors: u64,
    threads: usize,
) -> Activity {
    let program = TimedProgram::compile(netlist, library);
    if !GlitchSim::accepts(&program) {
        // Event times this long do not fit the packed wheel keys; the
        // scalar engine returns the same activity.
        return timing_activity(netlist, library, seed, vectors);
    }
    let streams = LaneStreams::new(netlist, seed, vectors);
    let fill = streams
        .groups
        .div_ceil(threads as u64)
        .clamp(1, WHEEL_WORDS as u64);
    let wheels = streams.groups.div_ceil(fill);
    let toggles_per_net = streams.sum_shards(wheels, threads, |wheels| {
        // As in the scalar engine, `settle` rebuilds the steady state, so
        // one simulator (and its warm wheel memory) serves every wheel.
        let mut sim = GlitchSim::new(&program);
        let mut stimulus = vec![[0u64; WHEEL_WORDS]; netlist.inputs().len()];
        let mut a_planes = vec![[0u64; WHEEL_WORDS]; streams.ports.a_len as usize];
        let mut b_planes = vec![[0u64; WHEEL_WORDS]; streams.ports.b_len as usize];
        for wheel in wheels {
            // The wheel's lanes, numbered across groups (64 per group).
            let first = wheel * fill * 64;
            let lanes = first..(streams.groups * 64).min(first + fill * 64);
            let mut rngs: Vec<SplitMix64> = lanes
                .map(|lane| streams.lane_rng(lane / 64, lane % 64))
                .collect();
            let mut draw_plane = |stimulus: &mut [[u64; WHEEL_WORDS]]| {
                a_planes.fill([0; WHEEL_WORDS]);
                b_planes.fill([0; WHEEL_WORDS]);
                for (lane, rng) in rngs.iter_mut().enumerate() {
                    let (a, b) = streams.draw(rng);
                    set_lane(&mut a_planes, a, lane);
                    set_lane(&mut b_planes, b, lane);
                }
                streams.ports.fill_planes(&a_planes, &b_planes, stimulus);
            };
            draw_plane(&mut stimulus);
            sim.settle(&stimulus); // establishes state, uncounted
            for _ in 0..streams.words {
                draw_plane(&mut stimulus);
                let _ = sim.apply(&stimulus);
            }
        }
        sim.toggles_per_net()
    });
    streams.activity(toggles_per_net)
}

/// Sets lane `lane` of the bit-planes `planes` to the bits of `value`.
fn set_lane(planes: &mut [[u64; WHEEL_WORDS]], value: u128, lane: usize) {
    let (word, bit) = (lane / 64, lane % 64);
    for (j, plane) in planes.iter_mut().enumerate() {
        plane[word] |= (((value >> j) & 1) as u64) << bit;
    }
}

/// The stimulus organization of the glitch-aware engines: `groups` groups
/// of 64 seeded lane streams, each settling on its first operand pair
/// (uncounted) and then applying `words` counted pairs.
struct LaneStreams<'n> {
    netlist: &'n Netlist,
    ports: AbPortMap,
    seed: u64,
    groups: u64,
    words: u64,
}

impl<'n> LaneStreams<'n> {
    fn new(netlist: &'n Netlist, seed: u64, vectors: u64) -> Self {
        assert!(vectors > 0, "need at least one vector");
        let groups = GLITCH_GROUPS.min(vectors.div_ceil(64)).max(1);
        Self {
            netlist,
            ports: AbPortMap::of(netlist),
            seed,
            groups,
            // Counted words per group; each carries 64 lane transitions.
            words: vectors.div_ceil(groups * 64),
        }
    }

    fn lane_rng(&self, group: u64, lane: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ (group * 64 + lane).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Draws the next `(a, b)` pair of a lane stream, each operand uniform
    /// over its bus.
    fn draw(&self, rng: &mut SplitMix64) -> (u128, u128) {
        let a = draw_pattern(rng, self.ports.a_len);
        (a, draw_pattern(rng, self.ports.b_len))
    }

    /// [`LaneStreams::draw`] into one stimulus bit per primary input.
    fn draw_bits(&self, rng: &mut SplitMix64, bits: &mut [bool]) {
        let (a, b) = self.draw(rng);
        self.ports.fill(a, b, bits);
    }

    /// Sums the toggles `run_toggles` counts over runs of the shards
    /// `0..shards` (groups, or wheels of groups), one run per worker
    /// thread.
    fn sum_shards(
        &self,
        shards: u64,
        threads: usize,
        run_toggles: impl Fn(Range<u64>) -> Vec<u64> + Sync,
    ) -> Vec<u64> {
        let mut totals = vec![0u64; self.netlist.net_count()];
        for partial in parallel_chunks(shards, threads, |lo, hi| run_toggles(lo..hi)) {
            add_toggles(&mut totals, &partial);
        }
        totals
    }

    fn activity(&self, toggles_per_net: Vec<u64>) -> Activity {
        Activity {
            toggles_per_net,
            transition_count: self.groups * self.words * 64,
            includes_glitches: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_netlist::adders::ripple_add;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    #[test]
    fn engines_produce_identical_activity() {
        let n = adder(8);
        let compiled = random_activity_with_engine(&n, 42, 256, Engine::Compiled);
        let structural = random_activity_with_engine(&n, 42, 256, Engine::Scalar);
        assert_eq!(compiled, structural);
    }

    #[test]
    fn random_activity_is_deterministic() {
        let n = adder(8);
        let a1 = random_activity_with_engine(&n, 42, 256, Engine::Compiled);
        let a2 = random_activity_with_engine(&n, 42, 256, Engine::Compiled);
        assert_eq!(a1, a2);
        let a3 = random_activity_with_engine(&n, 43, 256, Engine::Compiled);
        assert_ne!(a1.toggles_per_net, a3.toggles_per_net);
    }

    #[test]
    fn uniform_inputs_toggle_about_half_the_time() {
        let n = adder(8);
        let activity = random_activity_with_engine(&n, 7, 6400, Engine::Compiled);
        let inputs = n.inputs();
        for &input in inputs {
            let rate =
                activity.toggles_per_net[input.index()] as f64 / activity.transition_count as f64;
            assert!((0.42..0.58).contains(&rate), "input toggle rate {rate}");
        }
        assert!(activity.mean_activity() > 0.1);
        assert!(!activity.includes_glitches);
    }

    #[test]
    fn timing_activity_includes_glitches() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let zero_delay = random_activity_with_engine(&n, 11, 512, Engine::Compiled);
        let timed = timing_activity(&n, &lib, 11, 512);
        assert!(timed.includes_glitches);
        // Same per-transition scale: compare mean activity; glitching can
        // only add transitions.
        assert!(timed.mean_activity() >= zero_delay.mean_activity() * 0.9);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn zero_vectors_rejected() {
        let n = adder(4);
        let _ = random_activity_with_engine(&n, 1, 0, Engine::Compiled);
    }

    #[test]
    fn glitch_activity_is_deterministic_and_glitchy() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let a1 = timing_activity_with_engine(&n, &lib, 21, 512, Engine::Compiled);
        let a2 = glitch_activity(&n, &lib, 21, 512);
        assert_eq!(a1, a2);
        assert!(a1.includes_glitches);
        assert_eq!(a1.transition_count, 512);
        let other_seed = glitch_activity(&n, &lib, 22, 512);
        assert_ne!(a1.toggles_per_net, other_seed.toggles_per_net);
        // Glitching can only add transitions on top of the zero-delay
        // estimate (same uniform stimulus model, independent streams).
        let zero_delay = random_activity_with_engine(&n, 21, 512, Engine::Compiled);
        assert!(a1.mean_activity() >= zero_delay.mean_activity() * 0.9);
        // Both timing engines drive the same lane streams: identical.
        let scalar = timing_activity_with_engine(&n, &lib, 21, 512, Engine::Scalar);
        assert_eq!(a1, scalar);
        // Tiny runs (fewer vectors than one 64-lane word) still work.
        let tiny = glitch_activity(&n, &lib, 5, 3);
        assert_eq!(tiny.transition_count, 64);
    }

    /// Vector counts that leave wheel words idle (1, 3 and 5 groups of 64
    /// lanes) or, on one or two cores, none (8 groups): idle words count
    /// nothing, and the transition count stays the groups' own.
    #[test]
    fn partly_filled_wheels_match_the_scalar_engine() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        for vectors in [64, 192, 320, 512] {
            let glitch = glitch_activity(&n, &lib, 0x64, vectors);
            assert_eq!(
                glitch,
                timing_activity(&n, &lib, 0x64, vectors),
                "{vectors}"
            );
            assert_eq!(glitch.transition_count, vectors);
        }
    }

    /// Every wheel fill the worker count can pick (4 groups per wheel on
    /// 1 worker, 3 on 3, 2 on 4, 1 on 8) counts the same activity.
    #[test]
    fn every_wheel_fill_matches_the_scalar_engine() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        for vectors in [320, 512] {
            let scalar = timing_activity(&n, &lib, 0x15, vectors);
            for threads in [1, 3, 4, 8] {
                assert_eq!(
                    glitch_activity_on(&n, &lib, 0x15, vectors, threads),
                    scalar,
                    "{vectors} vectors on {threads} workers"
                );
            }
        }
    }

    #[test]
    fn glitch_activity_falls_back_to_the_scalar_engine_past_the_key_budget() {
        // Every library value at its cap: gate delays of ~10^8 ps put the
        // 8-bit adder's critical path past the packed keys' 2^40 ticks.
        let cells = [
            "BUF", "INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "MUX2",
        ];
        let max = sdlc_techlib::MAX_LIBRARY_VALUE;
        let mut text = format!("library extreme {{ wire_cap_per_fanout_ff {max}\n");
        for cell in cells {
            text += &format!(
                "cell {cell} {{ area 1 cap {max} delay {max} drive {max} energy 1 leak 1 }}\n"
            );
        }
        let lib = Library::from_text(&(text + "}")).unwrap();
        let n = adder(8);
        assert!(!GlitchSim::accepts(&TimedProgram::compile(&n, &lib)));
        assert!(GlitchSim::accepts(&TimedProgram::compile(
            &n,
            &Library::generic_90nm()
        )));
        assert_eq!(
            glitch_activity(&n, &lib, 3, 128),
            timing_activity(&n, &lib, 3, 128)
        );
    }

    #[test]
    fn timing_activity_is_deterministic_and_counts_all_vectors() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let a1 = timing_activity(&n, &lib, 3, 100);
        let a2 = timing_activity(&n, &lib, 3, 100);
        assert_eq!(a1, a2);
        assert!(a1.transition_count >= 100);
        let other_seed = timing_activity(&n, &lib, 4, 100);
        assert_ne!(a1.toggles_per_net, other_seed.toggles_per_net);
        // Tiny runs round up to one 64-lane word, like the compiled engine.
        let tiny = timing_activity(&n, &lib, 5, 3);
        assert_eq!(tiny.transition_count, 64);
        assert_eq!(tiny, glitch_activity(&n, &lib, 5, 3));
    }
}
