//! Gate-level netlist IR and structural generators.
//!
//! This crate stands in for the SystemVerilog structural RTL of the paper:
//! multiplier architectures are emitted directly as directed acyclic graphs
//! of technology-mappable gates (2-input AND/OR/NAND/NOR/XOR/XNOR, inverter,
//! buffer, 2:1 mux and constants). The companion crates provide the
//! standard-cell models (`sdlc-techlib`), simulation (`sdlc-sim`) and the
//! timing/area/power flow (`sdlc-synth`).
//!
//! # Construction discipline
//!
//! A [`Netlist`] is built strictly feed-forward: every gate's inputs must
//! already exist when the gate is added, so the gate list is a topological
//! order *by construction* and combinational loops are unrepresentable.
//! This keeps simulation and static timing to a single forward pass.
//!
//! ```
//! use sdlc_netlist::{GateKind, Netlist};
//!
//! let mut n = Netlist::new("toy");
//! let a = n.add_input_bus("a", 2);
//! let b = n.add_input_bus("b", 2);
//! let lo = n.and2(a[0], b[0]);
//! let hi = n.and2(a[1], b[1]);
//! let any = n.or2(lo, hi);
//! n.set_output_bus("y", vec![any]);
//! assert_eq!(n.gate_count(GateKind::And2), 2);
//! n.validate().expect("well-formed");
//! ```

pub mod adders;
mod ir;
pub mod passes;
pub mod reduce;
pub mod signed;
mod stats;
mod verilog;

pub use ir::{Gate, GateKind, NetId, Netlist, ValidateError};
pub use stats::NetlistStats;
pub use verilog::to_verilog;

/// Gate-order interpreter for this crate's unit tests: `sdlc-sim` sits
/// above this crate, so they cannot use a real simulator. Netlists are
/// feed-forward by construction, so one pass settles every net.
#[cfg(test)]
pub(crate) mod testing {
    use std::collections::HashMap;

    use crate::{GateKind, NetId, Netlist};

    /// Every net's value under `stimulus`, indexed by [`NetId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `stimulus` leaves a primary input undriven.
    pub(crate) fn net_values(n: &Netlist, stimulus: &[(NetId, bool)]) -> Vec<bool> {
        let driven: HashMap<NetId, bool> = stimulus.iter().copied().collect();
        let mut values = vec![false; n.net_count()];
        for gate in n.gates() {
            values[gate.output.index()] = match gate.kind {
                GateKind::Input => *driven.get(&gate.output).expect("stimulus covers inputs"),
                kind => {
                    let pins: Vec<bool> = gate.inputs.iter().map(|i| values[i.index()]).collect();
                    kind.evaluate(&pins)
                }
            };
        }
        values
    }

    /// The primary outputs' values under `stimulus`, in declaration order.
    pub(crate) fn outputs(n: &Netlist, stimulus: &[(NetId, bool)]) -> Vec<bool> {
        let values = net_values(n, stimulus);
        n.outputs().iter().map(|o| values[o.index()]).collect()
    }
}
