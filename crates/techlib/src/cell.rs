//! Per-cell electrical and physical parameters.

/// Timing, power and area model of one standard cell.
///
/// The delay model is the usual linear approximation
/// `delay = intrinsic_delay_ps + drive_ps_per_ff × C_load`, with the load
/// being the sum of the driven input capacitances plus a per-fanout wire
/// estimate. Dynamic energy is charged per *output toggle*; leakage is a
/// state-independent average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Library cell name (e.g. `"NAND2"`).
    pub name: &'static str,
    /// Layout area in µm².
    pub area_um2: f64,
    /// Capacitance presented by one input pin, in fF.
    pub input_cap_ff: f64,
    /// Load-independent part of the propagation delay, in ps.
    pub intrinsic_delay_ps: f64,
    /// Load-dependent delay slope, in ps per fF of output load.
    pub drive_ps_per_ff: f64,
    /// Energy drawn from the rail per output transition, in fJ.
    pub switch_energy_fj: f64,
    /// Average leakage power, in nW.
    pub leakage_nw: f64,
}

impl CellSpec {
    /// Propagation delay into a concrete output load.
    #[must_use]
    pub fn delay_ps(&self, load_ff: f64) -> f64 {
        self.intrinsic_delay_ps + self.drive_ps_per_ff * load_ff
    }

    /// A zero-cost pseudo-cell (primary inputs, tie cells).
    #[must_use]
    pub(crate) const fn free(name: &'static str) -> Self {
        Self {
            name,
            area_um2: 0.0,
            input_cap_ff: 0.0,
            intrinsic_delay_ps: 0.0,
            drive_ps_per_ff: 0.0,
            switch_energy_fj: 0.0,
            leakage_nw: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_linear_in_load() {
        let cell = CellSpec {
            name: "TEST",
            area_um2: 1.0,
            input_cap_ff: 2.0,
            intrinsic_delay_ps: 10.0,
            drive_ps_per_ff: 3.0,
            switch_energy_fj: 1.0,
            leakage_nw: 1.0,
        };
        assert_eq!(cell.delay_ps(0.0), 10.0);
        assert_eq!(cell.delay_ps(4.0), 22.0);
    }

    #[test]
    fn free_cells_cost_nothing() {
        let free = CellSpec::free("INPUT");
        assert_eq!(free.area_um2, 0.0);
        assert_eq!(free.delay_ps(100.0), 0.0);
        assert_eq!(free.leakage_nw, 0.0);
    }
}
