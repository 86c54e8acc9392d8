//! The cell library: a complete [`CellSpec`] table over [`GateKind`].

use sdlc_netlist::GateKind;

use crate::cell::CellSpec;

/// A standard-cell library binding every mappable [`GateKind`] to its
/// electrical model, plus global interconnect estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    name: &'static str,
    cells: [CellSpec; 12],
    /// Estimated wire capacitance added per fanout connection, in fF.
    wire_cap_per_fanout_ff: f64,
}

impl Library {
    /// The default synthetic 90 nm general-purpose library (see the crate
    /// docs for calibration rationale).
    #[must_use]
    pub fn generic_90nm() -> Self {
        let spec = |name, area, cap, intrinsic, drive, energy, leak| CellSpec {
            name,
            area_um2: area,
            input_cap_ff: cap,
            intrinsic_delay_ps: intrinsic,
            drive_ps_per_ff: drive,
            switch_energy_fj: energy,
            leakage_nw: leak,
        };
        // Order must match GateKind::all().
        let cells = [
            CellSpec::free("INPUT"),
            CellSpec::free("TIE0"),
            CellSpec::free("TIE1"),
            spec("BUF", 3.7, 1.8, 24.0, 3.2, 1.1, 2.0),
            spec("INV", 2.8, 1.8, 11.0, 3.8, 0.8, 1.5),
            spec("AND2", 4.6, 1.9, 27.0, 4.0, 1.3, 2.8),
            spec("OR2", 4.6, 1.9, 29.0, 4.2, 1.4, 3.0),
            spec("NAND2", 3.7, 2.0, 14.0, 4.5, 1.0, 2.2),
            spec("NOR2", 3.7, 2.1, 17.0, 5.4, 1.1, 2.4),
            spec("XOR2", 7.4, 3.0, 37.0, 5.0, 2.3, 4.5),
            spec("XNOR2", 7.4, 3.0, 37.0, 5.0, 2.3, 4.5),
            spec("MUX2", 7.4, 2.6, 34.0, 4.6, 2.1, 4.2),
        ];
        Self {
            name: "generic90",
            cells,
            wire_cap_per_fanout_ff: 0.9,
        }
    }

    /// A synthetic 65 nm-class library: roughly 0.55× the area, 0.7× the
    /// delay and 0.5× the switching energy of the 90 nm cells, with higher
    /// leakage density — the published scaling trends between the nodes.
    ///
    /// Used by the robustness tests/benches to show that the *relative*
    /// savings of the paper's comparisons are library-independent.
    #[must_use]
    pub fn generic_65nm() -> Self {
        let base = Self::generic_90nm();
        let mut cells = base.cells;
        for cell in &mut cells {
            if cell.area_um2 == 0.0 {
                continue; // free pseudo-cells stay free
            }
            cell.area_um2 *= 0.55;
            cell.input_cap_ff *= 0.72;
            cell.intrinsic_delay_ps *= 0.70;
            cell.drive_ps_per_ff *= 0.80;
            cell.switch_energy_fj *= 0.50;
            cell.leakage_nw *= 1.60; // leakage grows per-gate at 65 nm
        }
        Self {
            name: "generic65",
            cells,
            wire_cap_per_fanout_ff: 0.7,
        }
    }

    /// Library name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The cell bound to a gate kind.
    #[must_use]
    pub fn cell(&self, kind: GateKind) -> &CellSpec {
        &self.cells[Self::index_of(kind)]
    }

    /// Wire capacitance estimate per fanout connection, in fF.
    #[must_use]
    pub(crate) fn wire_cap_per_fanout_ff(&self) -> f64 {
        self.wire_cap_per_fanout_ff
    }

    /// Renames the library (used by the text loader).
    pub(crate) fn set_name(&mut self, name: &'static str) {
        self.name = name;
    }

    /// Replaces the wire-capacitance estimate (used by the text loader).
    pub(crate) fn set_wire_cap(&mut self, cap_ff: f64) {
        self.wire_cap_per_fanout_ff = cap_ff;
    }

    /// Replaces one cell's model (used by the text loader).
    pub(crate) fn set_cell(&mut self, kind: GateKind, spec: CellSpec) {
        let index = Self::index_of(kind);
        self.cells[index] = spec;
    }

    fn index_of(kind: GateKind) -> usize {
        match kind {
            GateKind::Input => 0,
            GateKind::Const0 => 1,
            GateKind::Const1 => 2,
            GateKind::Buf => 3,
            GateKind::Not => 4,
            GateKind::And2 => 5,
            GateKind::Or2 => 6,
            GateKind::Nand2 => 7,
            GateKind::Nor2 => 8,
            GateKind::Xor2 => 9,
            GateKind::Xnor2 => 10,
            GateKind::Mux2 => 11,
        }
    }

    /// Output load for a gate driving the given input pins plus wire.
    fn load_ff(&self, fanout_kinds: &[GateKind]) -> f64 {
        fanout_kinds
            .iter()
            .map(|&k| self.cell(k).input_cap_ff + self.wire_cap_per_fanout_ff)
            .sum()
    }

    /// Output load of every gate in the netlist, in gate order, in fF:
    /// `Σ (fanout pin cap + wire)` with the fanout pins summed in gate
    /// order.
    ///
    /// This is the one load model of the workspace: delays
    /// ([`Library::gate_delays_ps`]) and load-slewing energy both read it,
    /// so timing and power can never disagree on a net's load (the float
    /// summation order is part of the contract).
    #[must_use]
    pub fn gate_loads_ff(&self, netlist: &sdlc_netlist::Netlist) -> Vec<f64> {
        let mut fanout_kinds: Vec<Vec<GateKind>> = vec![Vec::new(); netlist.net_count()];
        for gate in netlist.gates() {
            for &input in &gate.inputs {
                fanout_kinds[input.index()].push(gate.kind);
            }
        }
        netlist
            .gates()
            .iter()
            .map(|gate| self.load_ff(&fanout_kinds[gate.output.index()]))
            .collect()
    }

    /// Load-dependent propagation delay of every gate in the netlist, in
    /// gate order: `delay(kind, load)` over [`Library::gate_loads_ff`].
    ///
    /// This is the *shared* delay model of static timing analysis and both
    /// timing engines: the scalar event-driven simulator and the compiled
    /// glitch engine read their per-gate delays from here, so their event
    /// times can never diverge, and STA bounds them exactly.
    #[must_use]
    pub fn gate_delays_ps(&self, netlist: &sdlc_netlist::Netlist) -> Vec<f64> {
        netlist
            .gates()
            .iter()
            .zip(self.gate_loads_ff(netlist))
            .map(|(gate, load)| self.cell(gate.kind).delay_ps(load))
            .collect()
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::generic_90nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_cell() {
        let lib = Library::generic_90nm();
        for &kind in GateKind::all() {
            let cell = lib.cell(kind);
            assert_eq!(
                cell.name,
                kind.cell_name(),
                "cell table order broken for {kind:?}"
            );
        }
    }

    #[test]
    fn ratios_are_physically_sensible() {
        let lib = Library::generic_90nm();
        // Inverter is the smallest real cell; XOR costs about 2× NAND.
        assert!(lib.cell(GateKind::Not).area_um2 < lib.cell(GateKind::Nand2).area_um2);
        assert!(lib.cell(GateKind::Xor2).area_um2 > 1.7 * lib.cell(GateKind::Nand2).area_um2);
        // NAND is faster than AND (no output inverter stage).
        assert!(
            lib.cell(GateKind::Nand2).intrinsic_delay_ps
                < lib.cell(GateKind::And2).intrinsic_delay_ps
        );
        // Free cells stay free.
        assert_eq!(lib.cell(GateKind::Input).area_um2, 0.0);
        assert_eq!(lib.cell(GateKind::Const1).leakage_nw, 0.0);
    }

    #[test]
    fn fo4_is_in_90nm_range() {
        let lib = Library::generic_90nm();
        let inv = lib.cell(GateKind::Not);
        let load = lib.load_ff(&[GateKind::Not; 4]);
        let fo4 = inv.delay_ps(load);
        assert!(
            (35.0..60.0).contains(&fo4),
            "FO4 {fo4} ps out of the 90nm ballpark"
        );
    }

    #[test]
    fn load_accumulates_pin_and_wire_caps() {
        let lib = Library::generic_90nm();
        let load = lib.load_ff(&[GateKind::And2, GateKind::Xor2]);
        let expect = (1.9 + 0.9) + (3.0 + 0.9);
        assert!((load - expect).abs() < 1e-9);
        assert_eq!(lib.load_ff(&[]), 0.0);
    }

    #[test]
    fn default_is_generic90() {
        assert_eq!(Library::default(), Library::generic_90nm());
        assert_eq!(Library::default().name(), "generic90");
    }

    #[test]
    fn gate_delays_follow_the_load_model() {
        let lib = Library::generic_90nm();
        let mut n = sdlc_netlist::Netlist::new("chain");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.and2(a, b); // drives two XORs
        let y1 = n.xor2(x, a);
        let y2 = n.xor2(x, b);
        n.set_output_bus("p", vec![y1, y2]);
        let delays = lib.gate_delays_ps(&n);
        assert_eq!(delays.len(), n.gates().len());
        // The AND drives two XOR pins plus wire; hand-compute its delay.
        let and = lib.cell(GateKind::And2);
        let load = lib.load_ff(&[GateKind::Xor2, GateKind::Xor2]);
        assert_eq!(delays[x.index()], and.delay_ps(load));
        // Primary inputs are free cells: zero intrinsic, zero drive.
        assert_eq!(delays[a.index()], 0.0);
        // Unloaded outputs still pay the intrinsic delay.
        assert_eq!(delays[y1.index()], lib.cell(GateKind::Xor2).delay_ps(0.0));
    }

    #[test]
    fn node_scaling_trends() {
        let n90 = Library::generic_90nm();
        let n65 = Library::generic_65nm();
        assert_eq!(n65.name(), "generic65");
        for &kind in GateKind::all() {
            let old = n90.cell(kind);
            let new = n65.cell(kind);
            if old.area_um2 == 0.0 {
                assert_eq!(new.area_um2, 0.0, "free cells stay free");
                continue;
            }
            assert!(new.area_um2 < old.area_um2, "{kind:?} area must shrink");
            assert!(new.intrinsic_delay_ps < old.intrinsic_delay_ps);
            assert!(new.switch_energy_fj < old.switch_energy_fj);
            assert!(new.leakage_nw > old.leakage_nw, "leakage density rises");
        }
        // FO4 stays physically plausible at the smaller node.
        let inv = n65.cell(GateKind::Not);
        let fo4 = inv.delay_ps(n65.load_ff(&[GateKind::Not; 4]));
        assert!((20.0..45.0).contains(&fo4), "65nm FO4 {fo4}");
    }
}
