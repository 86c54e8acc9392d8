//! Compiled netlist evaluation: flatten once, fold hard, sweep word-wide.
//!
//! The structural engine ([`crate::LogicSim`]) re-walks the [`Netlist`]
//! for every vector: per-gate enum dispatch, a `NetId` indirection per
//! pin, and bounds checks against the full net table. [`CompiledNetlist`] pays those costs once,
//! at compile time, producing a dense struct-of-arrays program the
//! executor can stream through:
//!
//! * **Constant folding** — `Const0`/`Const1` gates become two reserved
//!   value slots (always `0` / all-ones); no opcode is emitted for them.
//! * **Constant propagation** — gates *fed* by the const slots fold too:
//!   `AND(x, 1)` aliases `x`, `OR(x, 1)` aliases const-1, `XOR(x, 1)`
//!   rewrites to `NOT x`, a mux with a constant select aliases the chosen
//!   data pin, and so on, cascading through the whole cone.
//! * **Degenerate gates** — same-source gates collapse (`AND(x, x)` is
//!   `x`, `XOR(x, x)` is const-0, `NAND(x, x)` is `NOT x`), and
//!   `NOT(NOT x)` chases back to `x`.
//! * **Common-subexpression sharing** — two surviving gates with the same
//!   opcode and (commutatively canonicalized) source slots share one op;
//!   the second aliases the first's output slot.
//! * **Buffer chasing** — a `Buf` gate emits no opcode either: its output
//!   net aliases its source's slot, and chains collapse transitively.
//! * **Pre-mapped ports** — primary inputs get dedicated slots in
//!   declaration order, so stimulus words are written straight into the
//!   value array; any net (including bus bits) resolves to its slot once,
//!   at compile time.
//!
//! Every fold preserves the boolean function of each net, so the per-net
//! value stream — and therefore the per-net toggle count — is bit-identical
//! to the structural engine's (the differential suite proves it).
//!
//! The executor, [`CompiledSim`], evaluates 64 independent vectors per
//! sweep — lane `i` of every value word is stimulus stream `i`, the same
//! stream a scalar [`crate::LogicSim`] would see on its own — and its
//! inner loop reads `u32` slot indices from flat arrays instead of
//! matching on gate structs. Ops are stored by logic level, and by opcode
//! within a level, so the executor matches once per run of equal opcodes
//! and runs each as a tight loop of one gate kind. [`CompiledSim::apply`]
//! counts toggles lane-wise, so its totals equal the sum of 64 `LogicSim`
//! streams; [`CompiledSim::evaluate`] skips that for equivalence sweeps
//! where only final values matter.

use std::collections::HashMap;
use std::ops::Range;

use sdlc_netlist::{GateKind, NetId, Netlist};

use crate::ops::{scatter_toggles, source_slots, Op, SLOT_CONST0, SLOT_CONST1};

/// Outcome of folding one gate: either it needs no op (its output net
/// aliases an existing slot) or it survives as a (possibly rewritten) op.
/// A `Buf` never survives: it aliases its source, so the program's ops
/// are all logic.
enum Folded {
    Alias(u32),
    Op(Op, u32, u32, u32),
}

/// Applies the constant-propagation / degenerate-gate rewrite rules until
/// fixpoint. `not_source` maps the output slot of every emitted `NOT` op
/// back to its source slot, which is what lets `NOT(NOT x)` alias `x`.
fn fold(mut opcode: Op, mut a: u32, mut b: u32, c: u32, not_source: &HashMap<u32, u32>) -> Folded {
    loop {
        // Canonicalize commutative operand order (const slots are 0/1 and
        // therefore always sort into `a`, so the rules below only need to
        // test one side).
        if !matches!(opcode, Op::Not | Op::Mux) && a > b {
            core::mem::swap(&mut a, &mut b);
        }
        let rewrite_not = |x: u32| Folded::Op(Op::Not, x, x, x);
        return match opcode {
            // Chains collapse transitively: the source is already resolved
            // to its own (possibly aliased) slot.
            Op::Buf => Folded::Alias(a),
            Op::Not => {
                if a == SLOT_CONST0 {
                    Folded::Alias(SLOT_CONST1)
                } else if a == SLOT_CONST1 {
                    Folded::Alias(SLOT_CONST0)
                } else if let Some(&source) = not_source.get(&a) {
                    Folded::Alias(source)
                } else {
                    rewrite_not(a)
                }
            }
            // Sources are [sel, a, b]: sel ? b : a (slots sel=a, lo=b, hi=c).
            Op::Mux => {
                let (sel, lo, hi) = (a, b, c);
                if sel == SLOT_CONST0 {
                    Folded::Alias(lo)
                } else if sel == SLOT_CONST1 || lo == hi {
                    Folded::Alias(hi)
                } else if lo == SLOT_CONST0 && hi == SLOT_CONST1 {
                    Folded::Alias(sel)
                } else if lo == SLOT_CONST1 && hi == SLOT_CONST0 {
                    rewrite_not(sel)
                } else if lo == SLOT_CONST0 {
                    // sel ? hi : 0
                    (opcode, a, b) = (Op::And, sel, hi);
                    continue;
                } else if hi == SLOT_CONST1 {
                    // sel ? 1 : lo
                    (opcode, a, b) = (Op::Or, sel, lo);
                    continue;
                } else {
                    Folded::Op(Op::Mux, sel, lo, hi)
                }
            }
            Op::And => {
                if a == SLOT_CONST0 {
                    Folded::Alias(SLOT_CONST0)
                } else if a == SLOT_CONST1 || a == b {
                    Folded::Alias(b)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            Op::Or => {
                if a == SLOT_CONST0 || a == b {
                    Folded::Alias(b)
                } else if a == SLOT_CONST1 {
                    Folded::Alias(SLOT_CONST1)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            Op::Nand => {
                if a == SLOT_CONST0 {
                    Folded::Alias(SLOT_CONST1)
                } else if a == SLOT_CONST1 || a == b {
                    (opcode, a) = (Op::Not, b);
                    continue;
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            Op::Nor => {
                if a == SLOT_CONST0 || a == b {
                    (opcode, a) = (Op::Not, b);
                    continue;
                } else if a == SLOT_CONST1 {
                    Folded::Alias(SLOT_CONST0)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            Op::Xor => {
                if a == SLOT_CONST0 {
                    Folded::Alias(b)
                } else if a == SLOT_CONST1 {
                    (opcode, a) = (Op::Not, b);
                    continue;
                } else if a == b {
                    Folded::Alias(SLOT_CONST0)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
            Op::Xnor => {
                if a == SLOT_CONST0 {
                    (opcode, a) = (Op::Not, b);
                    continue;
                } else if a == SLOT_CONST1 {
                    Folded::Alias(b)
                } else if a == b {
                    Folded::Alias(SLOT_CONST1)
                } else {
                    Folded::Op(opcode, a, b, a)
                }
            }
        };
    }
}

/// A [`Netlist`] flattened into a dense, cache-friendly program.
///
/// Compiling borrows the netlist only for the duration of
/// [`CompiledNetlist::compile`]; the program owns everything it needs, so
/// one compiled instance can be shared (`&CompiledNetlist` is `Sync`)
/// across worker threads that each run their own [`CompiledSim`].
///
/// # Examples
///
/// ```
/// use sdlc_netlist::Netlist;
/// use sdlc_sim::{CompiledNetlist, CompiledSim};
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let buffered = n.buf(a); // folds away
/// let y = n.and2(buffered, b);
/// n.set_output_bus("y", vec![y]);
///
/// let program = CompiledNetlist::compile(&n);
/// assert_eq!(program.op_count(), 1); // the AND; the Buf is chased
///
/// let mut sim = CompiledSim::new(&program);
/// sim.evaluate(&[0b1100, 0b1010]);
/// assert_eq!(sim.plane(y), 0b1000);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    // Struct-of-arrays program, one entry per non-folded logic op, in
    // (level, opcode, netlist order).
    src0: Vec<u32>,
    src1: Vec<u32>,
    src2: Vec<u32>,
    dst: Vec<u32>,
    /// Runs of equal opcode: `(op, end)` covers the ops from the previous
    /// run's end up to `end`.
    runs: Vec<(Op, u32)>,
    /// Net index → value-slot index (aliased for folded gates).
    slot_of_net: Vec<u32>,
    /// Slot per primary input, in declaration order.
    input_slots: Vec<u32>,
    slot_count: usize,
}

impl CompiledNetlist {
    /// Flattens a netlist into its compiled program.
    ///
    /// # Panics
    ///
    /// Panics if the netlist violates the feed-forward discipline (an
    /// input net read before it is driven) — [`Netlist::validate`] catches
    /// the same conditions.
    #[must_use]
    pub fn compile(netlist: &Netlist) -> Self {
        let mut slot_of_net = vec![u32::MAX; netlist.net_count()];
        let mut input_slots = Vec::with_capacity(netlist.inputs().len());
        // Slots 0/1 are the folded constants.
        let mut slot_count = 2usize;
        let mut code = Vec::new();
        let mut src0 = Vec::new();
        let mut src1 = Vec::new();
        let mut src2 = Vec::new();
        let mut dst = Vec::new();
        let mut shared: HashMap<(Op, u32, u32, u32), u32> = HashMap::new();
        let mut not_source: HashMap<u32, u32> = HashMap::new();
        for gate in netlist.gates() {
            let out = gate.output.index();
            match gate.kind {
                GateKind::Input => {
                    let s = slot_count as u32;
                    slot_count += 1;
                    slot_of_net[out] = s;
                    input_slots.push(s);
                }
                GateKind::Const0 => slot_of_net[out] = SLOT_CONST0,
                GateKind::Const1 => slot_of_net[out] = SLOT_CONST1,
                kind => {
                    let opcode = Op::of(kind).expect("port kinds handled above");
                    let [a, b, c] = source_slots(&slot_of_net, gate);
                    match fold(opcode, a, b, c, &not_source) {
                        Folded::Alias(s) => slot_of_net[out] = s,
                        Folded::Op(opcode, a, b, c) => {
                            if let Some(&existing) = shared.get(&(opcode, a, b, c)) {
                                // Common subexpression: share the earlier
                                // gate's op and slot.
                                slot_of_net[out] = existing;
                                continue;
                            }
                            let d = slot_count as u32;
                            slot_count += 1;
                            code.push(opcode);
                            src0.push(a);
                            src1.push(b);
                            src2.push(c);
                            dst.push(d);
                            shared.insert((opcode, a, b, c), d);
                            if opcode == Op::Not {
                                not_source.insert(d, a);
                            }
                            slot_of_net[out] = d;
                        }
                    }
                }
            }
        }
        // Any topological order settles a zero-delay sweep in one pass.
        // Ordering by level, then opcode, groups each level's ops into
        // runs of one opcode, so the executor dispatches once per run.
        let mut level = vec![0u32; slot_count];
        let op_level: Vec<u32> = (0..code.len())
            .map(|i| {
                let l = 1 + [src0[i], src1[i], src2[i]]
                    .iter()
                    .map(|&s| level[s as usize])
                    .max()
                    .unwrap_or(0);
                level[dst[i] as usize] = l;
                l
            })
            .collect();
        let mut order: Vec<usize> = (0..code.len()).collect();
        order.sort_by_key(|&i| (op_level[i], code[i] as u8, i));
        let mut runs: Vec<(Op, u32)> = Vec::new();
        for (end, &i) in order.iter().enumerate() {
            match runs.last_mut() {
                Some((op, run_end)) if *op == code[i] => *run_end = end as u32 + 1,
                _ => runs.push((code[i], end as u32 + 1)),
            }
        }
        let permute = |v: &[u32]| order.iter().map(|&i| v[i]).collect();
        Self {
            src0: permute(&src0),
            src1: permute(&src1),
            src2: permute(&src2),
            dst: permute(&dst),
            runs,
            slot_of_net,
            input_slots,
            slot_count,
        }
    }

    /// Number of executed operations (gates that survived folding).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.dst.len()
    }

    /// Value-slot index of a net (folded nets alias their source's slot).
    fn slot_of(&self, net: NetId) -> usize {
        self.slot_of_net[net.index()] as usize
    }
}

/// Evaluates the program's ops in `run`, all of opcode `op`, in order.
#[inline(always)]
fn exec_run<const TOGGLED: bool>(
    p: &CompiledNetlist,
    run: Range<usize>,
    op: Op,
    values: &mut [u64],
    toggles: &mut [u64],
) {
    // Zipped slice iteration keeps the loop free of per-op bounds checks
    // on the program arrays.
    let ops = p.src0[run.clone()]
        .iter()
        .zip(&p.src1[run.clone()])
        .zip(&p.src2[run.clone()])
        .zip(&p.dst[run]);
    for (((&s0, &s1), &s2), &d) in ops {
        let new = op.eval(|pin| values[[s0, s1, s2][pin] as usize]);
        let d = d as usize;
        if TOGGLED {
            toggles[d] += u64::from((values[d] ^ new).count_ones());
        }
        values[d] = new;
    }
}

/// 64-lane executor over a [`CompiledNetlist`] program.
///
/// Each instance owns only its value (and toggle) arrays; the program is
/// shared by reference, so spawning one executor per worker thread is
/// cheap.
#[derive(Debug, Clone)]
pub struct CompiledSim<'p> {
    program: &'p CompiledNetlist,
    values: Vec<u64>,
    toggles: Vec<u64>,
    /// Whether [`CompiledSim::apply`] has established a first state.
    primed: bool,
}

impl<'p> CompiledSim<'p> {
    /// Creates an executor with all lanes at 0 (and the constant slots
    /// pre-loaded).
    #[must_use]
    pub fn new(program: &'p CompiledNetlist) -> Self {
        let mut values = vec![0u64; program.slot_count];
        values[SLOT_CONST1 as usize] = u64::MAX;
        Self {
            program,
            toggles: vec![0; program.slot_count],
            values,
            primed: false,
        }
    }

    #[inline]
    fn exec<const TOGGLED: bool>(&mut self, stimulus: &[u64]) {
        let p = self.program;
        assert_eq!(
            stimulus.len(),
            p.input_slots.len(),
            "stimulus width mismatch"
        );
        let values = &mut self.values[..];
        let toggles = &mut self.toggles[..];
        for (&slot, &word) in p.input_slots.iter().zip(stimulus) {
            let slot = slot as usize;
            if TOGGLED {
                toggles[slot] += u64::from((values[slot] ^ word).count_ones());
            }
            values[slot] = word;
        }
        let mut start = 0;
        for &(op, end) in &p.runs {
            let run = start..end as usize;
            start = end as usize;
            // One dispatch per run: each arm passes a constant opcode, so
            // its inlined loop evaluates that one gate and loads only the
            // pins it has.
            match op {
                Op::And => exec_run::<TOGGLED>(p, run, Op::And, values, toggles),
                Op::Or => exec_run::<TOGGLED>(p, run, Op::Or, values, toggles),
                Op::Nand => exec_run::<TOGGLED>(p, run, Op::Nand, values, toggles),
                Op::Nor => exec_run::<TOGGLED>(p, run, Op::Nor, values, toggles),
                Op::Xor => exec_run::<TOGGLED>(p, run, Op::Xor, values, toggles),
                Op::Xnor => exec_run::<TOGGLED>(p, run, Op::Xnor, values, toggles),
                Op::Not => exec_run::<TOGGLED>(p, run, Op::Not, values, toggles),
                Op::Buf => exec_run::<TOGGLED>(p, run, Op::Buf, values, toggles),
                Op::Mux => exec_run::<TOGGLED>(p, run, Op::Mux, values, toggles),
            }
        }
    }

    /// Applies one stimulus word per primary input (ordered like the
    /// source netlist's `inputs()`) and settles all lanes, accumulating
    /// lane-wise toggle counts against the previous word — the
    /// [`crate::LogicSim`] convention per lane (the first word establishes
    /// state for free).
    ///
    /// # Panics
    ///
    /// Panics if the stimulus length differs from the input count.
    pub fn apply(&mut self, stimulus: &[u64]) {
        if self.primed {
            self.exec::<true>(stimulus);
        } else {
            self.exec::<false>(stimulus);
            self.primed = true;
        }
    }

    /// Settles all lanes *without* toggle accounting — the equivalence
    /// fast path, where only final values matter.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus length differs from the input count.
    pub fn evaluate(&mut self, stimulus: &[u64]) {
        self.exec::<false>(stimulus);
    }

    /// Current 64-lane plane of one net.
    #[must_use]
    pub fn plane(&self, net: NetId) -> u64 {
        self.values[self.program.slot_of(net)]
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

    /// Per-net toggle counts summed over all 64 lanes, scattered back to
    /// the source netlist's net indexing (folded nets report their alias
    /// target's count — identical to the structural engine, since every
    /// fold preserves the net's boolean function).
    #[must_use]
    pub fn toggles_per_net(&self) -> Vec<u64> {
        scatter_toggles(&self.program.slot_of_net, &self.toggles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicSim;
    use sdlc_wideint::SplitMix64;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = sdlc_netlist::adders::ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    /// Applies `words` through the compiled engine and, lane by lane,
    /// through 64 scalar [`LogicSim`]s, asserting identical final planes
    /// on every net and identical summed toggles.
    fn assert_matches_per_lane_logic_sim(n: &Netlist, words: &[Vec<u64>]) {
        let program = CompiledNetlist::compile(n);
        let mut compiled = CompiledSim::new(&program);
        for word in words {
            compiled.apply(word);
        }
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
        for gate in n.gates() {
            let id = gate.output;
            assert_eq!(compiled.plane(id), planes[id.index()], "net {id}");
        }
        assert_eq!(compiled.toggles_per_net(), toggles);
    }

    fn random_words(seed: u64, count: usize, inputs: usize) -> Vec<Vec<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| (0..inputs).map(|_| rng.next_u64()).collect())
            .collect()
    }

    #[test]
    fn matches_per_lane_logic_sim_values_and_toggles() {
        assert_matches_per_lane_logic_sim(&adder(6), &random_words(0xC0DE, 12, 12));
    }

    #[test]
    fn constants_and_buffers_fold_through_the_whole_cone() {
        let mut n = Netlist::new("folded");
        let a = n.add_input("a");
        let one = n.const1();
        let zero = n.const0();
        let b1 = n.buf(a);
        let b2 = n.buf(b1);
        let x = n.and2(b2, one); // == a
        let y = n.or2(x, zero); // == a
        n.set_output_bus("y", vec![y]);
        let program = CompiledNetlist::compile(&n);
        // Constant propagation eats the whole cone: both logic gates
        // alias `a` and nothing executes.
        assert_eq!(program.op_count(), 0);
        assert_eq!(program.slot_of(b2), program.slot_of(a));
        assert_eq!(program.slot_of(y), program.slot_of(a));
        let mut sim = CompiledSim::new(&program);
        sim.evaluate(&[0xF0F0]);
        assert_eq!(sim.plane(y), 0xF0F0);
        // Folded nets report their source's toggles; constants never move.
        let mut sim = CompiledSim::new(&program);
        sim.apply(&[0]);
        sim.apply(&[0b11]);
        let toggles = sim.toggles_per_net();
        assert_eq!(toggles[b2.index()], toggles[a.index()]);
        assert_eq!(toggles[y.index()], toggles[a.index()]);
        assert_eq!(toggles[one.index()], 0);
        assert_eq!(toggles[zero.index()], 0);
    }

    #[test]
    fn constant_propagation_rewrites_and_cascades() {
        let mut n = Netlist::new("constprop");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.const1();
        let zero = n.const0();
        // NAND(a, 1) -> NOT a (one op), then XNOR(that, 0) -> NOT(NOT a)
        // -> alias a; OR(b, 1) -> const1; NOR(b, 0) -> NOT b.
        let not_a = n.nand2(a, one);
        let back = n.xnor2(not_a, zero);
        let always = n.or2(b, one);
        let not_b = n.nor2(b, zero);
        let xor_same = n.xor2(b, b); // -> const0
        n.set_output_bus("y", vec![not_a, back, always, not_b, xor_same]);
        let program = CompiledNetlist::compile(&n);
        // Only the two NOTs survive.
        assert_eq!(program.op_count(), 2);
        assert_eq!(program.slot_of(back), program.slot_of(a));
        assert_eq!(program.slot_of(always), SLOT_CONST1 as usize);
        assert_eq!(program.slot_of(xor_same), SLOT_CONST0 as usize);
        assert_matches_per_lane_logic_sim(&n, &random_words(7, 6, 2));
    }

    #[test]
    fn common_subexpressions_share_one_op() {
        let mut n = Netlist::new("cse");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x1 = n.and2(a, b);
        let x2 = n.and2(b, a); // commutatively identical
        let x3 = n.and2(a, b); // literally identical
        let y = n.xor2(x1, x2); // == const0 after sharing
        n.set_output_bus("y", vec![x3, y]);
        let program = CompiledNetlist::compile(&n);
        assert_eq!(program.op_count(), 1);
        assert_eq!(program.slot_of(x2), program.slot_of(x1));
        assert_eq!(program.slot_of(x3), program.slot_of(x1));
        assert_eq!(program.slot_of(y), SLOT_CONST0 as usize);
        // Shared nets still count toggles like the structural engine.
        let words = [[0u64, 0], [u64::MAX, 0b1010], [0b1100, 0b0110]].map(Vec::from);
        assert_matches_per_lane_logic_sim(&n, &words);
    }

    #[test]
    fn mux_folds_constant_selects_and_data() {
        let mut n = Netlist::new("muxfold");
        let sel = n.add_input("sel");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.const1();
        let zero = n.const0();
        let pick_a = n.mux2(zero, a, b); // sel=0 -> a
        let pick_b = n.mux2(one, a, b); // sel=1 -> b
        let ident = n.mux2(sel, zero, one); // == sel
        let inv = n.mux2(sel, one, zero); // == NOT sel
        let gate_and = n.mux2(sel, zero, b); // == AND(sel, b)
        let gate_or = n.mux2(sel, a, one); // == OR(sel, a)
        let same = n.mux2(sel, a, a); // == a
        n.set_output_bus(
            "y",
            vec![pick_a, pick_b, ident, inv, gate_and, gate_or, same],
        );
        let program = CompiledNetlist::compile(&n);
        assert_eq!(program.slot_of(pick_a), program.slot_of(a));
        assert_eq!(program.slot_of(pick_b), program.slot_of(b));
        assert_eq!(program.slot_of(ident), program.slot_of(sel));
        assert_eq!(program.slot_of(same), program.slot_of(a));
        // NOT sel, AND(sel,b), OR(sel,a) survive as rewritten ops.
        assert_eq!(program.op_count(), 3);
        assert_matches_per_lane_logic_sim(&n, &random_words(0xB0, 8, 3));
    }

    #[test]
    fn levels_are_topological() {
        // Program order is a topological order: every op reads only the
        // constants, the inputs and slots written by earlier ops, so one
        // in-order pass settles the whole netlist.
        let program = CompiledNetlist::compile(&adder(8));
        let mut written = vec![false; program.slot_count];
        written[SLOT_CONST0 as usize] = true;
        written[SLOT_CONST1 as usize] = true;
        for &s in &program.input_slots {
            written[s as usize] = true;
        }
        for i in 0..program.op_count() {
            for s in [program.src0[i], program.src1[i], program.src2[i]] {
                assert!(written[s as usize], "op {i} reads slot {s} early");
            }
            written[program.dst[i] as usize] = true;
        }
        assert!(written.iter().all(|&w| w), "every slot is written");
    }

    #[test]
    fn ops_run_in_level_then_opcode_order() {
        // The executor dispatches once per run, so runs must be maximal
        // and each level's ops grouped by opcode.
        let n = adder(8);
        let program = CompiledNetlist::compile(&n);
        let mut level = vec![0u32; program.slot_count];
        let mut keys = Vec::new();
        let mut start = 0;
        for &(op, end) in &program.runs {
            assert!(start < end as usize, "empty run");
            for i in start..end as usize {
                let sources = [program.src0[i], program.src1[i], program.src2[i]];
                let l = 1 + sources.iter().map(|&s| level[s as usize]).max().unwrap();
                level[program.dst[i] as usize] = l;
                keys.push((l, op as u8));
            }
            start = end as usize;
        }
        assert_eq!(start, program.op_count());
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
        assert!(
            program.runs.windows(2).all(|w| w[0].0 != w[1].0),
            "adjacent runs share an opcode"
        );
        assert!(program.runs.len() < program.op_count());
        assert_matches_per_lane_logic_sim(&n, &random_words(0xAD, 6, 16));
    }

    #[test]
    fn mux_pin_convention_matches_gatekind() {
        let mut n = Netlist::new("mux");
        let sel = n.add_input("sel");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.mux2(sel, a, b);
        n.set_output_bus("y", vec![y]);
        let program = CompiledNetlist::compile(&n);
        let mut sim = CompiledSim::new(&program);
        // sel lanes 0b01: lane0 selects b, lane1 selects a.
        sim.evaluate(&[0b01, 0b10, 0b01]);
        assert!(sim.lane_value(y, 0)); // sel=1 → b=1
        assert!(sim.lane_value(y, 1)); // sel=0 → a=1
    }

    #[test]
    #[should_panic(expected = "stimulus width mismatch")]
    fn wrong_stimulus_width_panics() {
        let n = adder(4);
        let program = CompiledNetlist::compile(&n);
        CompiledSim::new(&program).evaluate(&[0]);
    }
}
