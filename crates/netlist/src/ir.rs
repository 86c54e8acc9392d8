//! The netlist intermediate representation.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a single-bit net (wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index of the net, usable for dense side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The mappable cell set.
///
/// Restricted to 1- and 2-input cells plus the 2:1 mux, mirroring a lean
/// standard-cell flow; wider functions are built as trees (see
/// [`crate::adders`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Primary input pseudo-cell (no area/power).
    Input,
    /// Constant 0 tie cell.
    Const0,
    /// Constant 1 tie cell.
    Const1,
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Not,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer: inputs `[sel, a, b]`, output `sel ? b : a`.
    Mux2,
}

impl GateKind {
    /// Number of input pins.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Not => 1,
            GateKind::And2
            | GateKind::Or2
            | GateKind::Nand2
            | GateKind::Nor2
            | GateKind::Xor2
            | GateKind::Xnor2 => 2,
            GateKind::Mux2 => 3,
        }
    }

    /// Library cell name.
    #[must_use]
    pub fn cell_name(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "TIE0",
            GateKind::Const1 => "TIE1",
            GateKind::Buf => "BUF",
            GateKind::Not => "INV",
            GateKind::And2 => "AND2",
            GateKind::Or2 => "OR2",
            GateKind::Nand2 => "NAND2",
            GateKind::Nor2 => "NOR2",
            GateKind::Xor2 => "XOR2",
            GateKind::Xnor2 => "XNOR2",
            GateKind::Mux2 => "MUX2",
        }
    }

    /// All kinds, for iteration in reports.
    #[must_use]
    pub fn all() -> &'static [GateKind] {
        &[
            GateKind::Input,
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And2,
            GateKind::Or2,
            GateKind::Nand2,
            GateKind::Nor2,
            GateKind::Xor2,
            GateKind::Xnor2,
            GateKind::Mux2,
        ]
    }

    /// Evaluates the boolean function on already-evaluated input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()` (Input/Const take none).
    #[must_use]
    pub fn evaluate(self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.arity(), "wrong pin count for {self:?}");
        match self {
            GateKind::Input => unreachable!("primary inputs are driven externally"),
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And2 => inputs[0] && inputs[1],
            GateKind::Or2 => inputs[0] || inputs[1],
            GateKind::Nand2 => !(inputs[0] && inputs[1]),
            GateKind::Nor2 => !(inputs[0] || inputs[1]),
            GateKind::Xor2 => inputs[0] ^ inputs[1],
            GateKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            GateKind::Mux2 => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Cell type.
    pub kind: GateKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output net (every gate drives exactly one net).
    pub output: NetId,
}

/// Structural problems detected by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A gate input references a net created after the gate (breaks the
    /// feed-forward invariant) or never driven.
    UndrivenInput {
        /// Index of the offending gate.
        gate: usize,
        /// The undriven net.
        net: NetId,
    },
    /// A primary output is not driven by any gate or input.
    UndrivenOutput {
        /// The undriven net.
        net: NetId,
    },
    /// A gate has the wrong number of input pins.
    BadArity {
        /// Index of the offending gate.
        gate: usize,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UndrivenInput { gate, net } => {
                write!(f, "gate #{gate} reads undriven net {net}")
            }
            ValidateError::UndrivenOutput { net } => {
                write!(f, "primary output {net} is undriven")
            }
            ValidateError::BadArity { gate } => write!(f, "gate #{gate} has wrong pin count"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// A combinational gate-level netlist (see the crate docs for the
/// feed-forward construction discipline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    /// Driver gate index per net (None for primary inputs until driven).
    driver: Vec<Option<usize>>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    buses: BTreeMap<String, Vec<NetId>>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            gates: Vec::new(),
            driver: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            buses: BTreeMap::new(),
            const0: None,
            const1: None,
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets (wires).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.driver.len()
    }

    /// All gates in topological order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary inputs, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Looks up a named bus (input or output).
    #[must_use]
    pub fn bus(&self, name: &str) -> Option<&[NetId]> {
        self.buses.get(name).map(Vec::as_slice)
    }

    /// All declared bus names in deterministic (lexicographic) order.
    #[must_use]
    pub(crate) fn bus_names(&self) -> Vec<String> {
        self.buses.keys().cloned().collect()
    }

    /// Declares one primary input bit.
    pub fn add_input(&mut self, name: &str) -> NetId {
        let net = self.fresh_net();
        let gate = Gate {
            kind: GateKind::Input,
            inputs: Vec::new(),
            output: net,
        };
        self.driver[net.index()] = Some(self.gates.len());
        self.gates.push(gate);
        self.inputs.push(net);
        self.buses.insert(name.to_string(), vec![net]);
        net
    }

    /// Declares a little-endian input bus (`name\[0\]` is bit 0).
    pub fn add_input_bus(&mut self, name: &str, width: u32) -> Vec<NetId> {
        let bits: Vec<NetId> = (0..width)
            .map(|_| {
                let net = self.fresh_net();
                self.driver[net.index()] = Some(self.gates.len());
                self.gates.push(Gate {
                    kind: GateKind::Input,
                    inputs: Vec::new(),
                    output: net,
                });
                self.inputs.push(net);
                net
            })
            .collect();
        self.buses.insert(name.to_string(), bits.clone());
        bits
    }

    /// Declares the primary-output bus (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if any bit is an unknown net.
    pub fn set_output_bus(&mut self, name: &str, bits: Vec<NetId>) {
        for &net in &bits {
            assert!(net.index() < self.net_count(), "unknown net {net}");
            self.outputs.push(net);
        }
        self.buses.insert(name.to_string(), bits);
    }

    fn fresh_net(&mut self) -> NetId {
        let id = NetId(u32::try_from(self.driver.len()).expect("net count fits u32"));
        self.driver.push(None);
        id
    }

    /// Adds a gate of `kind` over existing nets and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if the pin count mismatches or an input net does not exist
    /// yet (feed-forward discipline).
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert_eq!(
            inputs.len(),
            kind.arity(),
            "{kind:?} takes {} pins",
            kind.arity()
        );
        for &net in inputs {
            assert!(
                net.index() < self.net_count(),
                "input net {net} does not exist"
            );
            assert!(
                self.driver[net.index()].is_some(),
                "input net {net} is undriven"
            );
        }
        let out = self.fresh_net();
        self.driver[out.index()] = Some(self.gates.len());
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        out
    }

    /// The shared constant-0 net (created on first use).
    pub fn const0(&mut self) -> NetId {
        if let Some(net) = self.const0 {
            return net;
        }
        let net = self.add_gate(GateKind::Const0, &[]);
        self.const0 = Some(net);
        net
    }

    /// The shared constant-1 net (created on first use).
    pub fn const1(&mut self) -> NetId {
        if let Some(net) = self.const1 {
            return net;
        }
        let net = self.add_gate(GateKind::Const1, &[]);
        self.const1 = Some(net);
        net
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::And2, &[a, b])
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Or2, &[a, b])
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Nand2, &[a, b])
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Nor2, &[a, b])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Xor2, &[a, b])
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Xnor2, &[a, b])
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.add_gate(GateKind::Not, &[a])
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.add_gate(GateKind::Buf, &[a])
    }

    /// 2:1 mux, `sel ? b : a`.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Mux2, &[sel, a, b])
    }

    /// Balanced OR tree over any number of nets (empty → constant 0).
    pub fn or_tree(&mut self, nets: &[NetId]) -> NetId {
        match nets.len() {
            0 => self.const0(),
            1 => nets[0],
            len => {
                let (lo, hi) = nets.split_at(len / 2);
                let l = self.or_tree(lo);
                let r = self.or_tree(hi);
                self.or2(l, r)
            }
        }
    }

    /// Index of the gate driving `net`, if any.
    #[must_use]
    pub fn driver_of(&self, net: NetId) -> Option<usize> {
        self.driver.get(net.index()).copied().flatten()
    }

    /// Number of gates of a given kind.
    #[must_use]
    pub fn gate_count(&self, kind: GateKind) -> usize {
        self.gates.iter().filter(|g| g.kind == kind).count()
    }

    /// Number of logic cells (everything except `Input`).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind != GateKind::Input)
            .count()
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let mut driven = vec![false; self.net_count()];
        for (i, gate) in self.gates.iter().enumerate() {
            if gate.inputs.len() != gate.kind.arity() {
                return Err(ValidateError::BadArity { gate: i });
            }
            for &input in &gate.inputs {
                if !driven.get(input.index()).copied().unwrap_or(false) {
                    return Err(ValidateError::UndrivenInput {
                        gate: i,
                        net: input,
                    });
                }
            }
            driven[gate.output.index()] = true;
        }
        for &output in &self.outputs {
            if !driven.get(output.index()).copied().unwrap_or(false) {
                return Err(ValidateError::UndrivenOutput { net: output });
            }
        }
        Ok(())
    }

    /// Replaces the gate list wholesale (used by optimization passes).
    ///
    /// The caller must preserve the feed-forward discipline; `validate` is
    /// debug-asserted.
    pub(crate) fn replace_gates(&mut self, gates: Vec<Gate>, net_count: usize) {
        self.gates = gates;
        self.driver = vec![None; net_count];
        for (i, gate) in self.gates.iter().enumerate() {
            self.driver[gate.output.index()] = Some(i);
        }
        debug_assert_eq!(self.validate(), Ok(()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut n = Netlist::new("tiny");
        let a = n.add_input_bus("a", 2);
        let b = n.add_input_bus("b", 2);
        let x = n.and2(a[0], b[0]);
        let y = n.xor2(a[1], b[1]);
        let z = n.or2(x, y);
        n.set_output_bus("z", vec![z]);
        n
    }

    #[test]
    fn construction_and_counts() {
        let n = tiny();
        assert_eq!(n.name(), "tiny");
        assert_eq!(n.inputs().len(), 4);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.cell_count(), 3);
        assert_eq!(n.gate_count(GateKind::And2), 1);
        assert_eq!(n.gate_count(GateKind::Input), 4);
        assert_eq!(n.net_count(), 7);
        assert_eq!(n.validate(), Ok(()));
    }

    #[test]
    fn bus_lookup() {
        let n = tiny();
        assert_eq!(n.bus("a").unwrap().len(), 2);
        assert_eq!(n.bus("z").unwrap().len(), 1);
        assert!(n.bus("missing").is_none());
    }

    #[test]
    fn constants_are_shared() {
        let mut n = Netlist::new("c");
        let c0 = n.const0();
        let c0_again = n.const0();
        let c1 = n.const1();
        assert_eq!(c0, c0_again);
        assert_ne!(c0, c1);
        assert_eq!(n.gate_count(GateKind::Const0), 1);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_references_panic() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let _ = n.and2(a, NetId(99));
    }

    #[test]
    fn gate_evaluation_truth_tables() {
        assert!(GateKind::And2.evaluate(&[true, true]));
        assert!(!GateKind::And2.evaluate(&[true, false]));
        assert!(GateKind::Nand2.evaluate(&[true, false]));
        assert!(GateKind::Or2.evaluate(&[false, true]));
        assert!(!GateKind::Nor2.evaluate(&[false, true]));
        assert!(GateKind::Xor2.evaluate(&[true, false]));
        assert!(GateKind::Xnor2.evaluate(&[true, true]));
        assert!(!GateKind::Not.evaluate(&[true]));
        assert!(GateKind::Buf.evaluate(&[true]));
        assert!(!GateKind::Const0.evaluate(&[]));
        assert!(GateKind::Const1.evaluate(&[]));
        // Mux: sel ? b : a
        assert!(GateKind::Mux2.evaluate(&[false, true, false]));
        assert!(!GateKind::Mux2.evaluate(&[true, true, false]));
    }

    #[test]
    fn or_tree_shapes() {
        let mut n = Netlist::new("t");
        let bits = n.add_input_bus("x", 7);
        let root = n.or_tree(&bits);
        n.set_output_bus("y", vec![root]);
        assert_eq!(n.gate_count(GateKind::Or2), 6); // k-1 gates for k leaves
        assert_eq!(n.validate(), Ok(()));
        // Empty tree gives the constant.
        let mut m = Netlist::new("e");
        let root = m.or_tree(&[]);
        assert_eq!(
            m.driver_of(root).map(|i| m.gates()[i].kind),
            Some(GateKind::Const0)
        );
    }

    #[test]
    fn validate_catches_undriven_output() {
        let mut n = Netlist::new("u");
        let a = n.add_input("a");
        let _ = a;
        n.outputs.push(NetId(55));
        assert!(matches!(
            n.validate(),
            Err(ValidateError::UndrivenOutput { .. })
        ));
    }

    #[test]
    fn display_of_ids_and_errors() {
        assert_eq!(NetId(3).to_string(), "n3");
        let err = ValidateError::UndrivenInput {
            gate: 1,
            net: NetId(2),
        };
        assert!(err.to_string().contains("n2"));
        assert_eq!(GateKind::Xor2.cell_name(), "XOR2");
        assert_eq!(GateKind::all().len(), 12);
    }
}
