//! Compiled word-parallel glitch-activity engine.
//!
//! [`crate::TimingSim`] observes glitches by event-driven simulation: one
//! vector pair at a time, a `Vec<bool>` allocation per gate evaluation,
//! and a heap push per candidate transition. That made `glitch_power` the
//! slow tail of the synthesis flow once zero-delay activity moved to the
//! compiled engine.
//!
//! This module compiles the netlist into a [`TimedProgram`] — the timing
//! twin of [`crate::CompiledNetlist`]: dense struct-of-arrays ops with
//! per-op **fixed-point delays** and each slot's last reader, plus per-net
//! **arrival-time metadata** (STA-style upper bounds computed from the
//! same `sdlc-techlib` load model). Unlike the zero-delay program it does
//! *not* fold buffers or constant-fed gates: every cell has its own delay,
//! and folding would change which pulses get inertially filtered.
//!
//! [`GlitchSim`] then runs **[`WHEEL_LANES`] independent stimulus
//! streams** ([`WHEEL_WORDS`] words of 64 lanes; lane `64 w + i` is bit
//! `i` of word `w`) through the program **op by op** instead of through a
//! time-ordered event queue. Event *times* are lane-independent — delays
//! are per-op constants — so each op sees its sources' changes as one
//! history of `(tick, lanes that flipped)` entries, and one lane-wide
//! evaluation per source change or firing serves every lane at once. An
//! op's waveform depends only on its sources' waveforms, and every source
//! precedes its reader in program order, so walking ops in that order
//! with complete source histories replays the scalar engine's event order
//! exactly.
//!
//! The emulation is **exact**: for identical per-lane stimulus streams,
//! per-net transition counts (functional toggles *and* glitches), total
//! transitions and settle times match [`crate::TimingSim`] lane for lane
//! — the engines share the delay model ([`sdlc_techlib::Library::gate_delays_ps`]),
//! the 1/1024 ps quantization, the input-processing order and the
//! `(time, gate, value)` pop order. `tests/glitch_differential.rs` proves
//! it on random gate DAGs and every generator family.

use sdlc_netlist::{GateKind, NetId, Netlist};
use sdlc_techlib::Library;

use crate::ops::{
    scatter_toggles, source_slots, Lanes, Op, Plane, SLOT_CONST0, SLOT_CONST1, WHEEL_LANES,
    WHEEL_WORDS,
};
use crate::timing::to_fixed_ps;

/// Slot of the first primary input. Inputs take the slots after the two
/// constants, in declaration order, and ops the slots after them, so slot
/// order is the scalar engine's processing order at equal times: inputs
/// first, in declaration order, then ops in program order.
const FIRST_INPUT_SLOT: u32 = SLOT_CONST1 + 1;

/// [`TimedProgram::last_reader`] of a slot no op reads.
const NO_READER: u32 = u32::MAX;

/// A [`Netlist`] flattened into a timed program: the compile-once side of
/// the word-parallel glitch engine.
///
/// Shared by reference across worker threads; each thread runs its own
/// [`GlitchSim`].
#[derive(Debug, Clone)]
pub struct TimedProgram {
    /// One op per logic cell. `Buf` is a real op here — a buffer has a
    /// real delay and can filter pulses, so the timing engine keeps it.
    /// Op `i` writes slot `first_op_slot + i`.
    code: Vec<Op>,
    src0: Vec<u32>,
    src1: Vec<u32>,
    src2: Vec<u32>,
    first_op_slot: u32,
    /// Inertial delay per op in 1/1024 ps ticks, from the shared
    /// load-dependent delay model.
    delay_ticks: Vec<u64>,
    /// The last op (in program order) reading each slot, or
    /// [`NO_READER`]: once it has run, the slot's change history is done
    /// with.
    last_reader: Vec<u32>,
    /// Net index → value-slot index.
    slot_of_net: Vec<u32>,
    /// STA-style worst-case arrival time per slot in 1/1024 ps ticks (0
    /// for inputs and constants), computed in the same fixed-point domain
    /// as the event times — an *exact* upper bound on any event time the
    /// simulator can ever schedule for that net (a plain f64 STA sum is
    /// not: per-gate rounding makes tick sums drift past it on deep
    /// paths).
    arrival_ticks: Vec<u64>,
}

impl TimedProgram {
    /// Compiles the netlist against a library's delay model.
    ///
    /// # Panics
    ///
    /// Panics if the netlist violates the feed-forward discipline.
    #[must_use]
    pub fn compile(netlist: &Netlist, library: &Library) -> Self {
        let delays_ps = library.gate_delays_ps(netlist);
        let first_op_slot = FIRST_INPUT_SLOT + netlist.inputs().len() as u32;
        let mut slot_of_net = vec![u32::MAX; netlist.net_count()];
        let mut next_input = FIRST_INPUT_SLOT;
        // One arrival per slot: the two constants and the inputs (all 0),
        // then one per op.
        let mut arrival_ticks = vec![0u64; first_op_slot as usize];
        let mut code = Vec::new();
        let (mut src0, mut src1, mut src2) = (Vec::new(), Vec::new(), Vec::new());
        let mut delay_ticks = Vec::new();
        for (gate, &delay) in netlist.gates().iter().zip(&delays_ps) {
            let out = gate.output.index();
            match gate.kind {
                GateKind::Input => {
                    slot_of_net[out] = next_input;
                    next_input += 1;
                }
                GateKind::Const0 => slot_of_net[out] = SLOT_CONST0,
                GateKind::Const1 => slot_of_net[out] = SLOT_CONST1,
                kind => {
                    let opcode = Op::of(kind).expect("port kinds handled above");
                    let [a, b, c] = source_slots(&slot_of_net, gate);
                    code.push(opcode);
                    src0.push(a);
                    src1.push(b);
                    src2.push(c);
                    let ticks = to_fixed_ps(delay);
                    delay_ticks.push(ticks);
                    let input_arrival = arrival_ticks[a as usize]
                        .max(arrival_ticks[b as usize])
                        .max(arrival_ticks[c as usize]);
                    slot_of_net[out] = arrival_ticks.len() as u32;
                    arrival_ticks.push(input_arrival + ticks);
                }
            }
        }
        let mut last_reader = vec![NO_READER; arrival_ticks.len()];
        for op in 0..code.len() {
            for s in [src0[op], src1[op], src2[op]] {
                last_reader[s as usize] = op as u32;
            }
        }
        Self {
            code,
            src0,
            src1,
            src2,
            first_op_slot,
            delay_ticks,
            last_reader,
            slot_of_net,
            arrival_ticks,
        }
    }

    /// Number of timed ops (every logic cell, buffers included).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Number of value slots.
    fn slot_count(&self) -> usize {
        self.arrival_ticks.len()
    }

    /// Number of primary inputs.
    fn input_count(&self) -> usize {
        (self.first_op_slot - FIRST_INPUT_SLOT) as usize
    }

    /// The deepest arrival time of any net — the program's critical path
    /// under the same load model as `sdlc-synth`'s STA, and an exact
    /// upper bound on every lane's settle time (for both timing engines:
    /// the scalar one sums the same quantized delays).
    #[must_use]
    pub fn critical_arrival_ps(&self) -> f64 {
        self.arrival_ticks.iter().copied().max().unwrap_or(0) as f64 / 1024.0
    }

    /// The source slots of op `op`, one per pin (unused pins repeat pin
    /// 0).
    fn sources(&self, op: usize) -> [u32; 3] {
        [self.src0[op], self.src1[op], self.src2[op]]
    }
}

/// Result of settling one input transition of every lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchApplyResult {
    /// Net transitions summed over all [`WHEEL_LANES`] lanes (glitches
    /// included) — the sum of the per-lane
    /// [`crate::ApplyResult::transitions`].
    pub transitions: u64,
    /// Time of the last transition in any lane, in ps — the maximum of
    /// the per-lane settle times (bounded by
    /// [`TimedProgram::critical_arrival_ps`]).
    pub settle_ps: f64,
}

/// One change of a slot during [`GlitchSim::apply`]: its tick and the
/// lanes that flipped.
type Change = (u64, Lanes);

/// The entry ending every change history: no lane flips, never.
const END: Change = (u64::MAX, Lanes([0; WHEEL_WORDS]));

/// One scheduled firing of an op: its tick and the lanes scheduled to
/// value 0 and to value 1.
type Firing = (u64, Lanes, Lanes);

/// [`WHEEL_LANES`]-lane event-driven executor over a [`TimedProgram`] —
/// the exact word-parallel twin of [`crate::TimingSim`].
///
/// Each lane of a stimulus plane (lane `64 w + i` is bit `i` of word `w`)
/// is an independent vector stream; per lane, transition accounting
/// (inertial pulse filtering included) is identical to running one scalar
/// `TimingSim` on that stream. A caller with fewer streams holds the
/// spare lanes constant, and they count nothing.
///
/// [`GlitchSim::apply`] keeps one change history per slot that changed
/// and has a reader still to run; a history goes back to a pool as soon
/// as the slot's last reader has run, so memory follows the live frontier
/// of the program, not its size. Histories, pool and the firing queue
/// keep their capacity across `apply` calls.
#[derive(Debug, Clone)]
pub struct GlitchSim<'p> {
    program: &'p TimedProgram,
    /// Value plane per slot. During `apply`, a slot with a change history
    /// keeps its value from before the call until its last reader has run.
    values: Vec<Lanes>,
    toggles: Vec<u64>,
    /// Per slot, its changes in tick order (empty outside `apply`).
    history: Vec<Vec<Change>>,
    /// Emptied histories, kept for their capacity.
    pool: Vec<Vec<Change>>,
    /// The firings of the op being walked, in tick order.
    firings: Vec<Firing>,
    settled_once: bool,
}

impl<'p> GlitchSim<'p> {
    /// Creates an executor with all lanes at 0 (constants pre-loaded).
    #[must_use]
    pub fn new(program: &'p TimedProgram) -> Self {
        let mut values = vec![Lanes::default(); program.slot_count()];
        values[SLOT_CONST1 as usize] = !Lanes::default();
        Self {
            program,
            toggles: vec![0; program.slot_count()],
            values,
            history: vec![Vec::new(); program.slot_count()],
            pool: Vec::new(),
            firings: Vec::new(),
            settled_once: false,
        }
    }

    /// Establishes a steady state for one stimulus plane per primary
    /// input without counting activity.
    ///
    /// # Panics
    ///
    /// Panics on stimulus width mismatch.
    pub fn settle(&mut self, stimulus: &[[u64; WHEEL_WORDS]]) {
        let p = self.program;
        assert_eq!(stimulus.len(), p.input_count(), "stimulus width mismatch");
        let values = &mut self.values;
        for (slot, &plane) in (FIRST_INPUT_SLOT as usize..).zip(stimulus) {
            values[slot] = Lanes(plane);
        }
        for op in 0..p.op_count() {
            let pins = p.sources(op);
            values[p.first_op_slot as usize + op] =
                p.code[op].eval(|pin| values[pins[pin] as usize]);
        }
        self.settled_once = true;
    }

    /// Applies a new stimulus plane per input against the current steady
    /// state and simulates every lane to quiescence, counting every
    /// transition (glitches included) exactly like [`WHEEL_LANES`] scalar
    /// [`crate::TimingSim`] streams.
    ///
    /// Inputs change at tick 0. Ops then run in program order, each
    /// merging its distinct sources' change histories by tick. At a tick
    /// `t` where sources change, they change one by one in slot order, and
    /// after each change the op's evaluation captures the value the scalar
    /// engine schedules for those lanes at `t + delay`. At a scheduled
    /// tick the op re-evaluates on its sources as of that tick and fires
    /// under the inertial rule; its firings become its own history. Every
    /// source precedes its reader, and at equal ticks the scalar engine
    /// processes inputs first, in declaration order, then gates in
    /// program order — slot order — so both see the same values at every
    /// capture and firing.
    ///
    /// # Panics
    ///
    /// Panics if [`GlitchSim::settle`] has not established an initial
    /// state, or on stimulus width mismatch.
    pub fn apply(&mut self, stimulus: &[[u64; WHEEL_WORDS]]) -> GlitchApplyResult {
        assert!(self.settled_once, "call settle() before apply()");
        let p = self.program;
        assert_eq!(stimulus.len(), p.input_count(), "stimulus width mismatch");
        let mut transitions = 0u64;
        let mut last_tick = 0u64;
        let Self {
            values,
            toggles,
            history,
            pool,
            firings,
            ..
        } = self;
        for (slot, &plane) in (FIRST_INPUT_SLOT as usize..).zip(stimulus) {
            let changed = values[slot] ^ Lanes(plane);
            if changed.is_zero() {
                continue;
            }
            let flips = changed.count_ones();
            toggles[slot] += flips;
            transitions += flips;
            if p.last_reader[slot] == NO_READER {
                values[slot] = Lanes(plane);
            } else {
                history[slot] = pool.pop().unwrap_or_default();
                history[slot].extend([(0, changed), END]);
            }
        }

        for op in 0..p.op_count() {
            // The op's distinct source slots in slot order; a repeated
            // slot is replaced by the constant-0 slot, which never
            // changes.
            let pins = p.sources(op);
            let mut slots = pins;
            slots.sort_unstable();
            if slots[2] == slots[1] {
                slots[2] = SLOT_CONST0;
            }
            if slots[1] == slots[0] {
                slots[1] = SLOT_CONST0;
            }
            let changes = slots.map(|s| match &history[s as usize][..] {
                [] => &[END][..],
                changes => changes,
            });
            if changes.iter().all(|c| c.len() == 1) {
                continue;
            }
            let source_of_pin = pins.map(|s| {
                slots
                    .iter()
                    .position(|&x| x == s)
                    .expect("pin reads a source")
            });
            let dst = p.first_op_slot as usize + op;
            let mut walk = Walk {
                changes,
                now: slots.map(|s| values[s as usize]),
                out: values[dst],
                delay: p.delay_ticks[op],
            };
            let mut fires = pool.pop().unwrap_or_default();
            // One copy of the walk per opcode, so none dispatches on it
            // per evaluation.
            macro_rules! run {
                ($($code:ident)*) => {
                    match p.code[op] {
                        $(Op::$code => walk.run(
                            |now| Op::$code.eval(|pin| now[source_of_pin[pin]]),
                            firings,
                            &mut fires,
                        ),)*
                    }
                };
            }
            let (flips, tick) = run!(And Or Nand Nor Xor Xnor Not Buf Mux);
            let Walk { now, out, .. } = walk;
            let read = changes.map(|c| c.len() > 1);
            toggles[dst] += flips;
            transitions += flips;
            last_tick = last_tick.max(tick);
            // Sources read for the last time: their final values are
            // known and their histories go back to the pool.
            for (i, &s) in slots.iter().enumerate() {
                if read[i] && p.last_reader[s as usize] == op as u32 {
                    values[s as usize] = now[i];
                    let mut done = std::mem::take(&mut history[s as usize]);
                    done.clear();
                    pool.push(done);
                }
            }
            if fires.is_empty() || p.last_reader[dst] == NO_READER {
                values[dst] = out;
                fires.clear();
                pool.push(fires);
            } else {
                fires.push(END);
                history[dst] = fires;
            }
        }
        GlitchApplyResult {
            transitions,
            settle_ps: last_tick as f64 / 1024.0,
        }
    }

    /// Per-net transition counts (glitches included) since construction,
    /// summed over all lanes and scattered to the source netlist's net
    /// indexing. Dead nets (no driver after DCE) never move and report 0.
    #[must_use]
    pub fn toggles_per_net(&self) -> Vec<u64> {
        scatter_toggles(&self.program.slot_of_net, &self.toggles)
    }

    /// Current value plane of one net.
    #[must_use]
    pub fn plane(&self, net: NetId) -> [u64; WHEEL_WORDS] {
        self.values[self.program.slot_of_net[net.index()] as usize].0
    }

    /// Lane-`lane` value of one net.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= WHEEL_LANES`.
    #[must_use]
    pub fn lane_value(&self, net: NetId, lane: u32) -> bool {
        assert!((lane as usize) < WHEEL_LANES);
        Lanes(self.plane(net)).lane(lane)
    }
}

/// One op's walk through its sources' merged change histories (see
/// [`GlitchSim::apply`]): the histories, and the sources' values and the
/// op's output as of the walk's tick.
struct Walk<'a> {
    changes: [&'a [Change]; 3],
    now: [Lanes; 3],
    out: Lanes,
    delay: u64,
}

impl Walk<'_> {
    /// Walks every source change and every firing they schedule, with
    /// `eval` evaluating the op on source values; `firings` is the queue
    /// of scheduled firings, and each firing's lanes are pushed onto
    /// `fires`. Returns the lanes fired in all, and the tick of the last
    /// firing (0 if none).
    #[inline(always)]
    fn run(
        &mut self,
        eval: impl Fn(&[Lanes; 3]) -> Lanes,
        firings: &mut Vec<Firing>,
        fires: &mut Vec<Change>,
    ) -> (u64, u64) {
        let (changes, now) = (self.changes, &mut self.now);
        let (mut flips, mut last_tick) = (0, 0);
        firings.clear();
        let mut next_firing = 0;
        let mut at = [0usize; 3];
        // The tick of each source's next change, `u64::MAX` once none is
        // left.
        let mut next = changes.map(|c| c[0].0);
        loop {
            let t = next[0].min(next[1]).min(next[2]);
            // Firings before `t` see the sources as they are now.
            while let Some(&(tick, low, high)) = firings.get(next_firing) {
                if tick >= t {
                    break;
                }
                next_firing += 1;
                // Inertial cancellation, lane-wide: a scheduled value
                // fires only where it still matches the present
                // evaluation AND differs from the present output; the
                // value-0 events go first, as the scalar heap pops them.
                let present = eval(now);
                let fired_low = low & !present & self.out;
                let after_low = self.out & !fired_low;
                let fired_high = high & present & !after_low;
                let fired = fired_low | fired_high;
                if fired.is_zero() {
                    continue;
                }
                self.out = after_low | fired_high;
                flips += fired.count_ones();
                last_tick = tick;
                fires.push((tick, fired));
            }
            if next_firing == firings.len() {
                // Drained: restart the queue, so it stays short.
                firings.clear();
                next_firing = 0;
            }
            if t == u64::MAX {
                return (flips, last_tick);
            }
            // The sources changing at `t`, one by one in slot order: each
            // change schedules its lanes to the evaluation it leaves
            // behind.
            let (mut low, mut high) = (Lanes::default(), Lanes::default());
            for i in 0..3 {
                if next[i] == t {
                    let flipped = changes[i][at[i]].1;
                    at[i] += 1;
                    next[i] = changes[i][at[i]].0;
                    now[i] = now[i] ^ flipped;
                    let captured = eval(now);
                    low = low | (flipped & !captured);
                    high = high | (flipped & captured);
                }
            }
            firings.push((t + self.delay, low, high));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::ab_stimulus;
    use crate::TimingSim;
    use sdlc_netlist::adders::ripple_add;
    use sdlc_wideint::SplitMix64;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    /// `count` stimulus planes per input of `n`, random in every lane.
    fn random_planes(n: &Netlist, seed: u64, count: usize) -> Vec<Vec<[u64; WHEEL_WORDS]>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                (0..n.inputs().len())
                    .map(|_| std::array::from_fn(|_| rng.next_u64()))
                    .collect()
            })
            .collect()
    }

    /// Runs `planes` through one `GlitchSim` and each lane's stream
    /// through its own `TimingSim`: per-net totals, transitions, final
    /// values and each plane's settle time (the latest over the lanes)
    /// must agree.
    fn assert_lanes_match(n: &Netlist, lib: &Library, planes: &[Vec<[u64; WHEEL_WORDS]>]) {
        let program = TimedProgram::compile(n, lib);
        let mut compiled = GlitchSim::new(&program);
        compiled.settle(&planes[0]);
        let mut compiled_transitions = 0u64;
        let mut compiled_settle = Vec::new();
        for plane in &planes[1..] {
            let result = compiled.apply(plane);
            compiled_transitions += result.transitions;
            compiled_settle.push(result.settle_ps);
        }
        let mut scalar_totals = vec![0u64; n.net_count()];
        let mut scalar_transitions = 0u64;
        let mut scalar_settle = vec![0.0f64; planes.len() - 1];
        for lane in 0..WHEEL_LANES as u32 {
            let mut sim = TimingSim::new(n, lib);
            let bits = |plane: &Vec<[u64; WHEEL_WORDS]>| -> Vec<bool> {
                plane
                    .iter()
                    .map(|w| (w[lane as usize / 64] >> (lane % 64)) & 1 == 1)
                    .collect()
            };
            sim.settle(&bits(&planes[0]));
            for (plane, settle) in planes[1..].iter().zip(&mut scalar_settle) {
                let result = sim.apply(&bits(plane));
                scalar_transitions += result.transitions;
                *settle = result.settle_ps.max(*settle);
            }
            for (total, &t) in scalar_totals.iter_mut().zip(sim.toggles()) {
                *total += t;
            }
            for gate in n.gates() {
                let net = gate.output;
                assert_eq!(
                    compiled.lane_value(net, lane),
                    sim.value(net),
                    "net {net} lane {lane}"
                );
            }
        }
        assert_eq!(compiled.toggles_per_net(), scalar_totals);
        assert_eq!(compiled_transitions, scalar_transitions);
        assert_eq!(compiled_settle, scalar_settle);
    }

    /// A library whose cell `name` has intrinsic delay and load slope
    /// `cell(name)` (input caps and wire caps of 1 fF).
    fn delay_library(cell: impl Fn(&str) -> (f64, f64)) -> Library {
        let mut text = String::from("library delays { wire_cap_per_fanout_ff 1\n");
        for name in [
            "BUF", "INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "MUX2",
        ] {
            let (delay, drive) = cell(name);
            text += &format!(
                "cell {name} {{ area 1 cap 1 delay {delay} drive {drive} energy 1 leak 1 }}\n"
            );
        }
        Library::from_text(&(text + "}")).unwrap()
    }

    /// The skewed-delay library of `tests/glitch_differential.rs`
    /// (`skewed_delays_agree_with_timing_sim`): AND2 is four orders of
    /// magnitude faster than every other cell.
    fn skewed_library() -> Library {
        delay_library(|cell| {
            if cell == "AND2" {
                (0.01, 0.0)
            } else {
                (100.0, 2.5)
            }
        })
    }

    /// Lane 0 alone: a single-stream compiled run must match one scalar
    /// TimingSim transition for transition.
    #[test]
    fn single_lane_matches_timing_sim_exactly() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut compiled = GlitchSim::new(&program);
        let mut scalar = TimingSim::new(&n, &lib);
        let mut rng = SplitMix64::new(0x911);
        let to_planes = |bits: &[bool]| -> Vec<[u64; WHEEL_WORDS]> {
            bits.iter()
                .map(|&b| std::array::from_fn(|w| u64::from(b && w == 0)))
                .collect()
        };
        let first = ab_stimulus(&n, 0xA5, 0x5A);
        scalar.settle(&first);
        compiled.settle(&to_planes(&first));
        for _ in 0..40 {
            let a = u128::from(rng.next_bits(8));
            let b = u128::from(rng.next_bits(8));
            let stimulus = ab_stimulus(&n, a, b);
            let want = scalar.apply(&stimulus);
            let got = compiled.apply(&to_planes(&stimulus));
            assert_eq!(got.transitions, want.transitions, "{a}x{b}");
            assert!((got.settle_ps - want.settle_ps).abs() < 1e-9, "{a}x{b}");
        }
        // Per-net totals and final values agree too.
        for gate in n.gates() {
            let net = gate.output;
            assert_eq!(compiled.lane_value(net, 0), scalar.value(net), "net {net}");
        }
        assert_eq!(compiled.toggles_per_net(), scalar.toggles().to_vec());
    }

    /// All lanes of every wheel word running distinct streams must equal
    /// as many scalar sims.
    #[test]
    fn all_lanes_match_their_scalar_streams() {
        let n = adder(6);
        assert_lanes_match(&n, &Library::generic_90nm(), &random_planes(&n, 0x64, 8));
    }

    /// Under the skewed library the AND2 is more than 4096 times faster
    /// than the critical path, so its firings land between its sources'
    /// changes, and those of a slow cell reading it land long after. Every
    /// lane of every word must still match its scalar stream.
    #[test]
    fn skewed_delays_match_timing_sim_lane_for_lane() {
        let lib = skewed_library();
        let n = adder(8);
        let program = TimedProgram::compile(&n, &lib);
        let min_delay = program.delay_ticks.iter().copied().min().unwrap();
        let critical = program.arrival_ticks.iter().copied().max().unwrap();
        assert!(
            min_delay < critical / 4096,
            "the {min_delay}-tick AND2 must be shorter than 1/4096 of the \
             {critical}-tick critical path"
        );
        assert_lanes_match(&n, &lib, &random_planes(&n, 0x5E4, 6));
    }

    /// Ties at equal ticks: inputs change before any gate at tick 0, also
    /// an input declared after a gate, and cells that read one net on two
    /// pins (`xor2(x, x)`, `mux2(s, s, y)`) see each of its changes once.
    /// With 0 ps XORs and 50 ps other cells, `fast` and the late input `b`
    /// change together at tick 0, and the 50 ps `gated` reading both fires
    /// on `fast`'s second change at 50 ps only if `b` went first: its
    /// capture then holds `fast`'s old value. `q` pulses if `gated` rises
    /// before `slower` does at 100 ps.
    #[test]
    fn late_inputs_and_repeated_pins_match_timing_sim() {
        let mut n = Netlist::new("ties");
        let a = n.add_input_bus("a", 2);
        let slow = n.buf(a[1]);
        let fast = n.xor2(a[0], slow);
        let b = n.add_input("b");
        let gated = n.and2(fast, b);
        let slower = n.buf(slow);
        let q = n.xor2(gated, slower);
        let same = n.xor2(b, b);
        let mux = n.mux2(b, b, fast);
        n.set_output_bus("p", vec![q, same, mux]);
        n.validate().unwrap();
        let xor_fast = |cell: &str| {
            if cell.starts_with('X') {
                (0.0, 0.0)
            } else {
                (50.0, 0.0)
            }
        };
        for lib in [
            Library::generic_90nm(),
            delay_library(|_| (0.0, 0.0)),
            delay_library(xor_fast),
        ] {
            assert_lanes_match(&n, &lib, &random_planes(&n, 0x71E5, 8));
        }
    }

    #[test]
    fn settle_times_respect_the_arrival_bound() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let bound = program.critical_arrival_ps();
        assert!(bound > 0.0);
        let mut sim = GlitchSim::new(&program);
        let planes = random_planes(&n, 3, 21);
        sim.settle(&planes[0]);
        for plane in &planes[1..] {
            let result = sim.apply(plane);
            assert!(
                result.settle_ps <= bound + 1e-6,
                "{} > {bound}",
                result.settle_ps
            );
        }
        // Per-net arrivals are monotone along the carry chain.
        let p_bus = n.bus("p").unwrap();
        let arrival = |net: NetId| program.arrival_ticks[program.slot_of_net[net.index()] as usize];
        assert!(arrival(p_bus[7]) > arrival(p_bus[0]));
        assert!(program.op_count() >= n.cell_count() - 2);
    }

    #[test]
    fn no_change_costs_nothing() {
        let n = adder(4);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut sim = GlitchSim::new(&program);
        let plane = vec![std::array::from_fn(|w| 0xDEAD << w); 8];
        sim.settle(&plane);
        let result = sim.apply(&plane);
        assert_eq!(result.transitions, 0);
        assert_eq!(result.settle_ps, 0.0);
    }

    #[test]
    #[should_panic(expected = "call settle()")]
    fn apply_before_settle_panics() {
        let n = adder(4);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let _ = GlitchSim::new(&program).apply(&[[0; WHEEL_WORDS]; 8]);
    }
}
