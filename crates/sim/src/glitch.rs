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
//! per-op **fixed-point delays** and CSR fanout lists, plus per-net
//! **arrival-time metadata** (STA-style upper bounds computed from the
//! same `sdlc-techlib` load model). Unlike the zero-delay program it does
//! *not* fold buffers or constant-fed gates: every cell has its own delay,
//! and folding would change which pulses get inertially filtered.
//!
//! [`GlitchSim`] then runs **64 independent stimulus streams** (lane `i`
//! of every plane word is stream `i`) through one shared event wheel.
//! Event *times* are lane-independent — delays are per-op constants, so
//! two lanes whose activity travels the same path schedule events at the
//! same `(time, op)` key — which is where the word-parallelism comes
//! from: one wheel entry carries a 64-lane mask of scheduled values, one
//! pop re-evaluates the op for all lanes at once, and the inertial
//! cancellation rule (`fire only if the scheduled value still matches the
//! gate's present evaluation and differs from its output`) becomes three
//! word-wide boolean ops.
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

use crate::ops::{scatter_toggles, source_slots, Op, SLOT_CONST0, SLOT_CONST1};
use crate::timing::to_fixed_ps;

/// A [`Netlist`] flattened into a timed program: the compile-once side of
/// the word-parallel glitch engine.
///
/// Shared by reference across worker threads; each thread runs its own
/// [`GlitchSim`].
#[derive(Debug, Clone)]
pub struct TimedProgram {
    /// One op per logic cell. `Buf` is a real op here — a buffer has a
    /// real delay and can filter pulses, so the timing engine keeps it.
    code: Vec<Op>,
    src0: Vec<u32>,
    src1: Vec<u32>,
    src2: Vec<u32>,
    dst: Vec<u32>,
    /// Inertial delay per op in 1/1024 ps ticks, from the shared
    /// load-dependent delay model.
    delay_ticks: Vec<u64>,
    /// CSR fanout: ops reading slot `s` are
    /// `fanout_ops[fanout_start[s]..fanout_start[s + 1]]`, in program
    /// order (the scalar engine's scheduling order).
    fanout_start: Vec<u32>,
    fanout_ops: Vec<u32>,
    /// Net index → value-slot index.
    slot_of_net: Vec<u32>,
    /// Slot per primary input, in declaration order.
    input_slots: Vec<u32>,
    /// STA-style worst-case arrival time per slot in 1/1024 ps ticks (0
    /// for inputs and constants), computed in the same fixed-point domain
    /// as the event queue — an *exact* upper bound on any event time the
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
        let mut slot_of_net = vec![u32::MAX; netlist.net_count()];
        let mut input_slots = Vec::with_capacity(netlist.inputs().len());
        // One arrival per slot: the two constants, then inputs and ops.
        let mut arrival_ticks = vec![0u64, 0];
        let mut code = Vec::new();
        let (mut src0, mut src1, mut src2) = (Vec::new(), Vec::new(), Vec::new());
        let mut dst = Vec::new();
        let mut delay_ticks = Vec::new();
        for (gate, &delay) in netlist.gates().iter().zip(&delays_ps) {
            let out = gate.output.index();
            match gate.kind {
                GateKind::Input => {
                    let s = arrival_ticks.len() as u32;
                    slot_of_net[out] = s;
                    input_slots.push(s);
                    arrival_ticks.push(0);
                }
                GateKind::Const0 => slot_of_net[out] = SLOT_CONST0,
                GateKind::Const1 => slot_of_net[out] = SLOT_CONST1,
                kind => {
                    let opcode = Op::of(kind).expect("port kinds handled above");
                    let [a, b, c] = source_slots(&slot_of_net, gate);
                    let d = arrival_ticks.len() as u32;
                    code.push(opcode);
                    src0.push(a);
                    src1.push(b);
                    src2.push(c);
                    dst.push(d);
                    let ticks = to_fixed_ps(delay);
                    delay_ticks.push(ticks);
                    let input_arrival = arrival_ticks[a as usize]
                        .max(arrival_ticks[b as usize])
                        .max(arrival_ticks[c as usize]);
                    arrival_ticks.push(input_arrival + ticks);
                    slot_of_net[out] = d;
                }
            }
        }
        // CSR fanout per slot, ops in program order.
        let slot_count = arrival_ticks.len();
        let mut fanout_start = vec![0u32; slot_count + 1];
        // Only a cell's own pins count (its unused source slots repeat pin
        // 0), so fanout multiplicity matches the scalar engine's lists.
        let sources = |op: usize| {
            [src0[op], src1[op], src2[op]]
                .into_iter()
                .take(code[op].arity())
        };
        for op in 0..code.len() {
            for s in sources(op) {
                fanout_start[s as usize + 1] += 1;
            }
        }
        for i in 1..fanout_start.len() {
            fanout_start[i] += fanout_start[i - 1];
        }
        let mut fanout_ops = vec![0u32; fanout_start[slot_count] as usize];
        let mut next = fanout_start.clone();
        for op in 0..code.len() {
            for s in sources(op) {
                fanout_ops[next[s as usize] as usize] = op as u32;
                next[s as usize] += 1;
            }
        }
        Self {
            code,
            src0,
            src1,
            src2,
            dst,
            delay_ticks,
            fanout_start,
            fanout_ops,
            slot_of_net,
            input_slots,
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

    /// The deepest arrival time of any net — the program's critical path
    /// under the same load model as `sdlc-synth`'s STA, and an exact
    /// upper bound on every lane's settle time (for both timing engines:
    /// the scalar one sums the same quantized delays).
    #[must_use]
    pub fn critical_arrival_ps(&self) -> f64 {
        self.critical_ticks() as f64 / 1024.0
    }

    fn critical_ticks(&self) -> u64 {
        self.arrival_ticks.iter().copied().max().unwrap_or(0)
    }

    fn fanout(&self, slot: u32) -> &[u32] {
        let lo = self.fanout_start[slot as usize] as usize;
        let hi = self.fanout_start[slot as usize + 1] as usize;
        &self.fanout_ops[lo..hi]
    }

    /// Evaluates op `op` on the current value planes — the one evaluation
    /// [`GlitchSim::settle`]'s zero-delay pass and the event loop of
    /// [`GlitchSim::apply`] share, so the two can never drift apart.
    #[inline]
    fn eval(&self, values: &[u64], op: usize) -> u64 {
        // Sources load on demand: the event loop measured slower loading
        // all three up front.
        self.code[op].eval(|pin| {
            let slot = match pin {
                0 => self.src0[op],
                1 => self.src1[op],
                _ => self.src2[op],
            };
            values[slot as usize]
        })
    }
}

/// Result of settling one 64-lane input transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchApplyResult {
    /// Net transitions summed over all 64 lanes (glitches included) — the
    /// sum of the per-lane [`crate::ApplyResult::transitions`].
    pub transitions: u64,
    /// Time of the last transition in any lane, in ps — the maximum of
    /// the per-lane settle times (bounded by
    /// [`TimedProgram::critical_arrival_ps`]).
    pub settle_ps: f64,
}

/// Bits of a packed wheel key reserved for the op index (low bits, so
/// keys order by time first, then op — the scalar heap's order).
const KEY_OP_BITS: u32 = 24;

/// One pending event of the wheel: the `(time, op)` key's 64-lane masks
/// of events scheduled with value 0 / value 1.
#[derive(Debug, Clone, Copy)]
struct Pending {
    time: u64,
    low: u64,
    high: u64,
}

/// 64-lane event-driven executor over a [`TimedProgram`] — the exact
/// word-parallel twin of [`crate::TimingSim`].
///
/// Lane `i` of every stimulus word is an independent vector stream; per
/// lane, transition accounting (inertial pulse filtering included) is
/// identical to running one scalar `TimingSim` on that stream.
///
/// The event wheel is a **bucketed time ladder**: packed `(time, op)`
/// keys land in buckets of ~one-gate-delay span (every bucket fits the
/// program's whole arrival window, so the ladder is allocated once and
/// reused), each bucket is sorted when the drain reaches it, and keys
/// whose delay folds back into the bucket being drained (possible only
/// for sub-span delays) trigger a tail re-sort — so keys always pop in
/// the scalar engine's exact `(time, gate)` order, at sequential-scan
/// cost instead of heap-sift cost. Per-op pending lists hold each key's
/// lane masks and keep their capacity across `apply` calls; steady
/// state allocates nothing.
#[derive(Debug, Clone)]
pub struct GlitchSim<'p> {
    program: &'p TimedProgram,
    values: Vec<u64>,
    toggles: Vec<u64>,
    /// Time ladder: bucket `t >> bucket_shift` holds the packed
    /// `(time << KEY_OP_BITS) | op` keys of its span, unsorted until
    /// drained.
    ladder: Vec<Vec<u64>>,
    bucket_shift: u32,
    /// Per-op pending events (drained to empty by every `apply`).
    pending: Vec<Vec<Pending>>,
    settled_once: bool,
}

impl<'p> GlitchSim<'p> {
    /// Whether [`GlitchSim::new`] accepts `program`: its op indices and
    /// event times must fit the packed wheel keys. Real netlists are far
    /// inside both limits; a library with extreme loads can push the
    /// critical path past the second.
    pub(crate) fn accepts(program: &TimedProgram) -> bool {
        (program.op_count() as u64) < (1 << KEY_OP_BITS)
            && program.critical_ticks() < (1 << (64 - KEY_OP_BITS))
    }

    /// Creates an executor with all lanes at 0 (constants pre-loaded).
    ///
    /// # Panics
    ///
    /// Panics if the program has 2^24 ops or more, or a critical path of
    /// 2^40 ticks (≈ 1.07 ms) or more: the packed wheel-key budget.
    #[must_use]
    pub fn new(program: &'p TimedProgram) -> Self {
        assert!(
            Self::accepts(program),
            "program too large or critical path too long for packed wheel keys"
        );
        let critical_ticks = program.critical_ticks();
        // Bucket span: about one minimum gate delay (then almost every
        // scheduled key lands past the bucket being drained), floored so
        // the ladder never exceeds ~4096 buckets even for degenerate
        // zero-delay libraries.
        let min_delay = program
            .delay_ticks
            .iter()
            .copied()
            .min()
            .unwrap_or(1)
            .max(1);
        let span_for_budget = (critical_ticks / 4096).max(1);
        let bucket_shift = 63 - (min_delay.max(span_for_budget) | 1).leading_zeros();
        let buckets = (critical_ticks >> bucket_shift) as usize + 1;
        let mut values = vec![0u64; program.slot_count()];
        values[SLOT_CONST1 as usize] = u64::MAX;
        Self {
            program,
            toggles: vec![0; program.slot_count()],
            values,
            ladder: vec![Vec::new(); buckets],
            bucket_shift,
            pending: vec![Vec::new(); program.op_count()],
            settled_once: false,
        }
    }

    /// Establishes a steady state for one stimulus word per primary input
    /// (lane `i` of each word is stream `i`) without counting activity.
    ///
    /// # Panics
    ///
    /// Panics on stimulus width mismatch.
    pub fn settle(&mut self, stimulus: &[u64]) {
        let p = self.program;
        assert_eq!(
            stimulus.len(),
            p.input_slots.len(),
            "stimulus width mismatch"
        );
        for (&slot, &word) in p.input_slots.iter().zip(stimulus) {
            self.values[slot as usize] = word;
        }
        for op in 0..p.op_count() {
            self.values[p.dst[op] as usize] = p.eval(&self.values, op);
        }
        self.settled_once = true;
    }

    /// Applies a new stimulus word per input against the current steady
    /// state and simulates every lane to quiescence, counting every
    /// transition (glitches included) exactly like 64 scalar
    /// [`crate::TimingSim`] streams.
    ///
    /// # Panics
    ///
    /// Panics if [`GlitchSim::settle`] has not established an initial
    /// state, or on stimulus width mismatch.
    pub fn apply(&mut self, stimulus: &[u64]) -> GlitchApplyResult {
        assert!(self.settled_once, "call settle() before apply()");
        let p = self.program;
        assert_eq!(
            stimulus.len(),
            p.input_slots.len(),
            "stimulus width mismatch"
        );
        let mut transitions = 0u64;
        let mut last_tick = 0u64;
        // Destructured field locals keep the hot loop free of `&mut self`
        // method calls (which would re-borrow the whole struct per event).
        let values = &mut self.values[..];
        let toggles = &mut self.toggles[..];
        let ladder = &mut self.ladder[..];
        let bucket_shift = self.bucket_shift;
        let pending = &mut self.pending[..];
        // Splits `mask` by the op's present evaluation — the captured
        // value the scalar engine stores in its heap entries — and merges
        // into the wheel (fresh keys also drop into their time bucket, so
        // the ladder never carries duplicates).
        let schedule = |values: &[u64],
                        ladder: &mut [Vec<u64>],
                        pending: &mut [Vec<Pending>],
                        time: u64,
                        op: u32,
                        mask: u64| {
            let eval = p.eval(values, op as usize);
            let (low, high) = (mask & !eval, mask & eval);
            let list = &mut pending[op as usize];
            if let Some(entry) = list.iter_mut().find(|entry| entry.time == time) {
                entry.low |= low;
                entry.high |= high;
            } else {
                list.push(Pending { time, low, high });
                ladder[(time >> bucket_shift) as usize].push((time << KEY_OP_BITS) | u64::from(op));
            }
        };

        // Input changes land at t = 0, processed in declaration order with
        // fanout evaluations seeing the partially-updated input vector —
        // the scalar engine's exact capture semantics.
        for (&slot, &word) in p.input_slots.iter().zip(stimulus) {
            let slot = slot as usize;
            let changed = values[slot] ^ word;
            if changed == 0 {
                continue;
            }
            values[slot] = word;
            let flips = u64::from(changed.count_ones());
            toggles[slot] += flips;
            transitions += flips;
            for &op in p.fanout(slot as u32) {
                schedule(
                    values,
                    ladder,
                    pending,
                    p.delay_ticks[op as usize],
                    op,
                    changed,
                );
            }
        }

        // Drain the ladder bucket by bucket in (time, op) order — the
        // scalar heap's order, with the value-0 event of a key popping
        // before the value-1 one. A bucket is sorted when the drain
        // reaches it; keys scheduled back into the bucket being drained
        // (delays shorter than the bucket span) re-sort the unprocessed
        // tail, so the order stays exact.
        for b in 0..ladder.len() {
            if ladder[b].is_empty() {
                continue;
            }
            ladder[b].sort_unstable();
            let mut sorted_len = ladder[b].len();
            let mut i = 0;
            while i < ladder[b].len() {
                if ladder[b].len() > sorted_len {
                    ladder[b][i..].sort_unstable();
                    sorted_len = ladder[b].len();
                }
                let key = ladder[b][i];
                i += 1;
                let time = key >> KEY_OP_BITS;
                let op = (key & ((1 << KEY_OP_BITS) - 1)) as usize;
                let list = &mut pending[op];
                let index = list
                    .iter()
                    .position(|entry| entry.time == time)
                    .expect("ladder key has a pending entry");
                let Pending { low, high, .. } = list.swap_remove(index);
                let present = p.eval(values, op);
                let dst = p.dst[op] as usize;
                let out = values[dst];
                // Inertial cancellation, word-wide: an event fires only
                // where its captured value still matches the present
                // evaluation AND differs from the present output.
                let fired_low = low & !present & out;
                let after_low = out & !fired_low;
                let fired_high = high & present & !after_low;
                let fired = fired_low | fired_high;
                if fired == 0 {
                    continue;
                }
                values[dst] = after_low | fired_high;
                let flips = u64::from(fired.count_ones());
                toggles[dst] += flips;
                transitions += flips;
                last_tick = last_tick.max(time);
                for &downstream in p.fanout(dst as u32) {
                    schedule(
                        values,
                        ladder,
                        pending,
                        time + p.delay_ticks[downstream as usize],
                        downstream,
                        fired,
                    );
                }
            }
            ladder[b].clear();
        }
        GlitchApplyResult {
            transitions,
            settle_ps: last_tick as f64 / 1024.0,
        }
    }

    /// Per-net transition counts (glitches included) since construction,
    /// summed over all 64 lanes and scattered to the source netlist's net
    /// indexing. Dead nets (no driver after DCE) never move and report 0.
    #[must_use]
    pub fn toggles_per_net(&self) -> Vec<u64> {
        scatter_toggles(&self.program.slot_of_net, &self.toggles)
    }

    /// Current 64-lane plane of one net.
    #[must_use]
    pub fn plane(&self, net: NetId) -> u64 {
        self.values[self.program.slot_of_net[net.index()] as usize]
    }

    /// Lane-`lane` value of one net.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn lane_value(&self, net: NetId, lane: u32) -> bool {
        assert!(lane < 64);
        (self.plane(net) >> lane) & 1 == 1
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

    /// Lane 0 broadcast: a single-stream compiled run must match one
    /// scalar TimingSim transition for transition.
    #[test]
    fn single_lane_matches_timing_sim_exactly() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut compiled = GlitchSim::new(&program);
        let mut scalar = TimingSim::new(&n, &lib);
        let mut rng = SplitMix64::new(0x911);
        let to_planes =
            |bits: &[bool]| -> Vec<u64> { bits.iter().map(|&b| u64::from(b)).collect() };
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

    /// All 64 lanes running distinct streams must equal 64 scalar sims.
    #[test]
    fn all_lanes_match_their_scalar_streams() {
        let n = adder(6);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut rng = SplitMix64::new(0x64);
        let words: Vec<Vec<u64>> = (0..8)
            .map(|_| (0..12).map(|_| rng.next_u64()).collect())
            .collect();
        let mut compiled = GlitchSim::new(&program);
        compiled.settle(&words[0]);
        let mut compiled_transitions = 0u64;
        for word in &words[1..] {
            compiled_transitions += compiled.apply(word).transitions;
        }
        let mut scalar_totals = vec![0u64; n.net_count()];
        let mut scalar_transitions = 0u64;
        for lane in 0..64u32 {
            let mut sim = TimingSim::new(&n, &lib);
            let bits = |word: &Vec<u64>| -> Vec<bool> {
                word.iter().map(|&w| (w >> lane) & 1 == 1).collect()
            };
            sim.settle(&bits(&words[0]));
            for word in &words[1..] {
                scalar_transitions += sim.apply(&bits(word)).transitions;
            }
            for (total, &t) in scalar_totals.iter_mut().zip(sim.toggles()) {
                *total += t;
            }
        }
        assert_eq!(compiled.toggles_per_net(), scalar_totals);
        assert_eq!(compiled_transitions, scalar_transitions);
    }

    #[test]
    fn settle_times_respect_the_arrival_bound() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let bound = program.critical_arrival_ps();
        assert!(bound > 0.0);
        let mut sim = GlitchSim::new(&program);
        sim.settle(&[0u64; 16]);
        let mut rng = SplitMix64::new(3);
        for _ in 0..20 {
            let stimulus: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
            let result = sim.apply(&stimulus);
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
        let word = vec![0xDEADu64; 8];
        sim.settle(&word);
        let result = sim.apply(&word);
        assert_eq!(result.transitions, 0);
        assert_eq!(result.settle_ps, 0.0);
    }

    #[test]
    #[should_panic(expected = "call settle()")]
    fn apply_before_settle_panics() {
        let n = adder(4);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let _ = GlitchSim::new(&program).apply(&[0u64; 8]);
    }
}
