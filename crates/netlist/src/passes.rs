//! Netlist optimization passes: constant folding, buffer sweeping and
//! dead-gate elimination.
//!
//! These model the cleanup a synthesis tool performs after elaboration.
//! The generators in `sdlc-core::circuits` deliberately lean on them: gap
//! bits in sparse rows are tied to constant 0 and the passes then collapse
//! the degenerate adder cells, the same way Design Compiler sweeps
//! constants before mapping. All passes preserve I/O behaviour (checked by
//! randomized equivalence tests here and in `sdlc-sim`).

use std::collections::HashMap;

use crate::ir::{Gate, GateKind, NetId, Netlist};

/// Outcome of a pass pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStats {
    /// Gates removed as dead.
    pub dead_gates_removed: usize,
    /// Gates simplified by constant folding or buffer sweeping.
    pub gates_simplified: usize,
}

/// What a net is known to be after constant propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetFact {
    Unknown,
    Const(bool),
    /// Alias of another net (from buffers or folded gates).
    Alias(NetId),
}

/// Runs constant folding + buffer sweeping + dead-code elimination to a
/// fixpoint and returns combined statistics.
pub fn optimize(netlist: &mut Netlist) -> PassStats {
    let mut total = PassStats::default();
    loop {
        let folded = fold_constants(netlist);
        let dead = eliminate_dead_gates(netlist);
        total.gates_simplified += folded;
        total.dead_gates_removed += dead;
        if folded == 0 && dead == 0 {
            return total;
        }
    }
}

/// Resolves an alias chain to its root.
fn resolve(facts: &[NetFact], mut net: NetId) -> NetId {
    while let NetFact::Alias(next) = facts[net.index()] {
        net = next;
    }
    net
}

/// Propagates constants and aliases through the gate list, rewriting gates
/// in place. Returns the number of simplified gates.
#[allow(clippy::too_many_lines)]
fn fold_constants(netlist: &mut Netlist) -> usize {
    let net_count = netlist.net_count();
    let mut facts = vec![NetFact::Unknown; net_count];
    let mut simplified = 0;
    let mut gates: Vec<Gate> = netlist.gates().to_vec();

    // Primary outputs must stay driven by a real gate, so aliasing an
    // output net away is only possible by materializing a buffer later;
    // instead we simply keep the gate but with folded inputs.
    for gate in &mut gates {
        // Rewrite inputs through known aliases first.
        for input in &mut gate.inputs {
            let root = resolve(&facts, *input);
            if root != *input {
                *input = root;
                simplified += 1;
            }
        }
        let value = |net: NetId| -> Option<bool> {
            match facts[net.index()] {
                NetFact::Const(v) => Some(v),
                _ => None,
            }
        };
        let fact = match gate.kind {
            GateKind::Const0 => NetFact::Const(false),
            GateKind::Const1 => NetFact::Const(true),
            GateKind::Buf => match value(gate.inputs[0]) {
                Some(v) => NetFact::Const(v),
                None => NetFact::Alias(gate.inputs[0]),
            },
            GateKind::Not => match value(gate.inputs[0]) {
                Some(v) => NetFact::Const(!v),
                None => NetFact::Unknown,
            },
            GateKind::And2 | GateKind::Nand2 => {
                let (a, b) = (value(gate.inputs[0]), value(gate.inputs[1]));
                let invert = gate.kind == GateKind::Nand2;
                match (a, b) {
                    (Some(false), _) | (_, Some(false)) => NetFact::Const(invert),
                    (Some(true), Some(true)) => NetFact::Const(!invert),
                    (Some(true), None) if !invert => NetFact::Alias(gate.inputs[1]),
                    (None, Some(true)) if !invert => NetFact::Alias(gate.inputs[0]),
                    _ => NetFact::Unknown,
                }
            }
            GateKind::Or2 | GateKind::Nor2 => {
                let (a, b) = (value(gate.inputs[0]), value(gate.inputs[1]));
                let invert = gate.kind == GateKind::Nor2;
                match (a, b) {
                    (Some(true), _) | (_, Some(true)) => NetFact::Const(!invert),
                    (Some(false), Some(false)) => NetFact::Const(invert),
                    (Some(false), None) if !invert => NetFact::Alias(gate.inputs[1]),
                    (None, Some(false)) if !invert => NetFact::Alias(gate.inputs[0]),
                    _ => NetFact::Unknown,
                }
            }
            GateKind::Xor2 | GateKind::Xnor2 => {
                let (a, b) = (value(gate.inputs[0]), value(gate.inputs[1]));
                let invert = gate.kind == GateKind::Xnor2;
                match (a, b) {
                    (Some(x), Some(y)) => NetFact::Const((x ^ y) != invert),
                    (Some(false), None) if !invert => NetFact::Alias(gate.inputs[1]),
                    (None, Some(false)) if !invert => NetFact::Alias(gate.inputs[0]),
                    _ => NetFact::Unknown,
                }
            }
            GateKind::Mux2 => match value(gate.inputs[0]) {
                Some(false) => NetFact::Alias(gate.inputs[1]),
                Some(true) => NetFact::Alias(gate.inputs[2]),
                None => NetFact::Unknown,
            },
            GateKind::Input => NetFact::Unknown,
        };
        facts[gate.output.index()] = fact;
    }

    // Materialize the facts: rewrite every gate whose output has a known
    // fact into a Const/Buf of the root net, and re-point all readers.
    let mut new_gates: Vec<Gate> = Vec::with_capacity(gates.len());
    for mut gate in gates {
        match facts[gate.output.index()] {
            NetFact::Const(v) if !matches!(gate.kind, GateKind::Const0 | GateKind::Const1) => {
                let kind = if v {
                    GateKind::Const1
                } else {
                    GateKind::Const0
                };
                if gate.kind != GateKind::Input {
                    simplified += 1;
                    gate = Gate {
                        kind,
                        inputs: Vec::new(),
                        output: gate.output,
                    };
                }
            }
            NetFact::Alias(root) if gate.kind != GateKind::Buf => {
                // Gate computes a value identical to `root`: become a buffer
                // (swept by readers; kept only if the net is a primary
                // output or feeds nothing else).
                simplified += 1;
                let root = resolve(&facts, root);
                gate = Gate {
                    kind: GateKind::Buf,
                    inputs: vec![root],
                    output: gate.output,
                };
            }
            _ => {}
        }
        new_gates.push(gate);
    }

    // Buffer sweep: re-point readers of buffers straight at the source.
    let mut alias: HashMap<NetId, NetId> = HashMap::new();
    for gate in &new_gates {
        if gate.kind == GateKind::Buf {
            let mut root = gate.inputs[0];
            while let Some(&next) = alias.get(&root) {
                root = next;
            }
            alias.insert(gate.output, root);
        }
    }
    if !alias.is_empty() {
        for gate in &mut new_gates {
            for input in &mut gate.inputs {
                if let Some(&root) = alias.get(input) {
                    *input = root;
                }
            }
        }
        // Buffers feeding only swept readers become dead unless they drive
        // a primary output; DCE cleans them next.
    }

    netlist.replace_gates(new_gates, net_count);
    simplified
}

/// Removes gates whose outputs reach no primary output. Returns the number
/// of removed gates. Primary inputs are always kept (ports are interface).
fn eliminate_dead_gates(netlist: &mut Netlist) -> usize {
    let net_count = netlist.net_count();
    let gates = netlist.gates().to_vec();
    let mut live = vec![false; net_count];
    for &output in netlist.outputs() {
        live[output.index()] = true;
    }
    for gate in gates.iter().rev() {
        if live[gate.output.index()] {
            for &input in &gate.inputs {
                live[input.index()] = true;
            }
        }
    }
    let before = gates.len();
    let kept: Vec<Gate> = gates
        .into_iter()
        .filter(|g| g.kind == GateKind::Input || live[g.output.index()])
        .collect();
    let removed = before - kept.len();
    netlist.replace_gates(kept, net_count);
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::outputs as eval;

    #[test]
    fn folds_and_with_zero() {
        let mut n = Netlist::new("f");
        let a = n.add_input("a");
        let zero = n.const0();
        let x = n.and2(a, zero);
        let y = n.or2(x, a); // y == a
        n.set_output_bus("y", vec![y]);
        let stats = optimize(&mut n);
        assert!(stats.gates_simplified > 0);
        // The AND gate and the OR gate both collapse; y becomes a buffer
        // of a (kept because it drives the output).
        assert_eq!(n.gate_count(GateKind::And2), 0);
        assert_eq!(n.gate_count(GateKind::Or2), 0);
        for v in [false, true] {
            assert_eq!(eval(&n, &[(a, v)])[0], v);
        }
        n.validate().unwrap();
    }

    #[test]
    fn folds_xor_identities() {
        let mut n = Netlist::new("x");
        let a = n.add_input("a");
        let zero = n.const0();
        let one = n.const1();
        let x = n.xor2(a, zero); // == a
        let y = n.xor2(x, one); // == !a, stays a gate? folded to Not? we fold consts only
        n.set_output_bus("y", vec![y]);
        optimize(&mut n);
        for v in [false, true] {
            assert_eq!(eval(&n, &[(a, v)])[0], !v);
        }
        n.validate().unwrap();
    }

    #[test]
    fn removes_dead_logic() {
        let mut n = Netlist::new("d");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let used = n.and2(a, b);
        let _dead1 = n.xor2(a, b);
        let _dead2 = n.or2(_dead1, a);
        n.set_output_bus("y", vec![used]);
        let removed = eliminate_dead_gates(&mut n);
        assert_eq!(removed, 2);
        assert_eq!(n.cell_count(), 1);
        n.validate().unwrap();
    }

    #[test]
    fn mux_with_constant_select_collapses() {
        let mut n = Netlist::new("m");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.const1();
        let y = n.mux2(one, a, b); // sel=1 → b
        n.set_output_bus("y", vec![y]);
        optimize(&mut n);
        assert_eq!(n.gate_count(GateKind::Mux2), 0);
        for (va, vb) in [(false, true), (true, false), (true, true)] {
            assert_eq!(eval(&n, &[(a, va), (b, vb)])[0], vb);
        }
    }

    #[test]
    fn optimize_preserves_behavior_on_random_logic() {
        // Build a pseudo-random DAG with embedded constants, optimize, and
        // compare on every input combination (8 inputs → 256 vectors).
        let mut n = Netlist::new("rand");
        let inputs = n.add_input_bus("in", 8);
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut nets = inputs.clone();
        let zero = n.const0();
        let one = n.const1();
        nets.push(zero);
        nets.push(one);
        for _ in 0..120 {
            let a = nets[(next() % nets.len() as u64) as usize];
            let b = nets[(next() % nets.len() as u64) as usize];
            let out = match next() % 7 {
                0 => n.and2(a, b),
                1 => n.or2(a, b),
                2 => n.xor2(a, b),
                3 => n.nand2(a, b),
                4 => n.nor2(a, b),
                5 => n.not(a),
                _ => {
                    let c = nets[(next() % nets.len() as u64) as usize];
                    n.mux2(a, b, c)
                }
            };
            nets.push(out);
        }
        let outs: Vec<NetId> = nets[nets.len() - 8..].to_vec();
        n.set_output_bus("out", outs);

        let mut optimized = n.clone();
        let stats = optimize(&mut optimized);
        assert!(stats.gates_simplified + stats.dead_gates_removed > 0);
        assert!(optimized.cell_count() <= n.cell_count());
        for v in 0..256u64 {
            let stim: Vec<(NetId, bool)> = inputs
                .iter()
                .enumerate()
                .map(|(i, &net)| (net, (v >> i) & 1 == 1))
                .collect();
            assert_eq!(eval(&n, &stim), eval(&optimized, &stim), "vector {v}");
        }
    }

    #[test]
    fn optimize_reaches_fixpoint() {
        let mut n = Netlist::new("fix");
        let a = n.add_input("a");
        let zero = n.const0();
        let x = n.or2(a, zero);
        let y = n.or2(x, zero);
        let z = n.or2(y, zero);
        n.set_output_bus("z", vec![z]);
        optimize(&mut n);
        let again = optimize(&mut n);
        assert_eq!(again, PassStats::default());
        n.validate().unwrap();
    }
}
