//! Area, leakage and activity-based dynamic power/energy models.

use sdlc_netlist::Netlist;
use sdlc_sim::activity::Activity;
use sdlc_techlib::Library;

/// Total cell area in µm².
#[must_use]
pub fn area_um2(netlist: &Netlist, library: &Library) -> f64 {
    netlist
        .gates()
        .iter()
        .map(|g| library.cell(g.kind).area_um2)
        .sum()
}

/// Total leakage power in nW (state-independent cell averages).
#[must_use]
pub fn leakage_nw(netlist: &Netlist, library: &Library) -> f64 {
    netlist
        .gates()
        .iter()
        .map(|g| library.cell(g.kind).leakage_nw)
        .sum()
}

/// Dynamic energy per input transition ("per operation"), in fJ.
///
/// Every counted output toggle of a cell charges that cell's switching
/// energy plus the energy to slew its output load
/// (`½·C·V²` folded into the per-cell `switch_energy_fj` plus an explicit
/// wire/pin term at 1 V-class swing: `0.5 fJ/fF`).
///
/// # Panics
///
/// Panics if the activity was captured on a different netlist (length
/// mismatch) or covers zero transitions.
#[must_use]
pub fn dynamic_energy_fj_per_op(netlist: &Netlist, library: &Library, activity: &Activity) -> f64 {
    assert_eq!(
        activity.toggles_per_net.len(),
        netlist.net_count(),
        "activity captured on a different netlist"
    );
    assert!(
        activity.transition_count > 0,
        "activity covers no transitions"
    );
    // Wire + pin load energy per toggle at ~1.0 V swing.
    const LOAD_ENERGY_FJ_PER_FF: f64 = 0.5;
    let mut total_fj = 0.0;
    for (gate, load) in netlist.gates().iter().zip(library.gate_loads_ff(netlist)) {
        let toggles = activity.toggles_per_net[gate.output.index()] as f64;
        if toggles == 0.0 {
            continue;
        }
        let cell_energy = library.cell(gate.kind).switch_energy_fj;
        total_fj += toggles * (cell_energy + LOAD_ENERGY_FJ_PER_FF * load);
    }
    total_fj / activity.transition_count as f64
}

/// Dynamic power in µW at a fixed operation rate in GHz.
///
/// Synthesis power reports are taken at a common activity rate for every
/// design under comparison (the paper drives all multipliers with the same
/// testbench), so dynamic power scales with energy per operation — not
/// with each design's own critical path. `1 fJ × 1 GHz = 1 µW`.
#[must_use]
pub fn dynamic_power_uw(energy_fj_per_op: f64, rate_ghz: f64) -> f64 {
    energy_fj_per_op * rate_ghz
}

/// Power-delay product in fJ — the paper's "energy" metric: dynamic power
/// times critical-path delay (`µW × ps = 10⁻¹⁸ J = aJ`, scaled to fJ).
#[must_use]
pub fn power_delay_product_fj(dynamic_power_uw: f64, delay_ps: f64) -> f64 {
    dynamic_power_uw * delay_ps / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_netlist::adders::ripple_add;
    use sdlc_sim::activity::random_activity_with_engine;
    use sdlc_sim::Engine;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    #[test]
    fn area_and_leakage_scale_with_width() {
        let lib = Library::generic_90nm();
        let a8 = area_um2(&adder(8), &lib);
        let a16 = area_um2(&adder(16), &lib);
        assert!((1.8..2.2).contains(&(a16 / a8)), "area ratio {}", a16 / a8);
        let l8 = leakage_nw(&adder(8), &lib);
        let l16 = leakage_nw(&adder(16), &lib);
        assert!(l16 > 1.8 * l8);
    }

    #[test]
    fn inputs_cost_no_area() {
        let lib = Library::generic_90nm();
        let mut n = Netlist::new("ports_only");
        let a = n.add_input_bus("a", 8);
        n.set_output_bus("p", a);
        assert_eq!(area_um2(&n, &lib), 0.0);
        assert_eq!(leakage_nw(&n, &lib), 0.0);
    }

    #[test]
    fn dynamic_energy_is_positive_and_scales() {
        let lib = Library::generic_90nm();
        let n8 = adder(8);
        let n16 = adder(16);
        let e8 = dynamic_energy_fj_per_op(
            &n8,
            &lib,
            &random_activity_with_engine(&n8, 5, 2048, Engine::Compiled),
        );
        let e16 = dynamic_energy_fj_per_op(
            &n16,
            &lib,
            &random_activity_with_engine(&n16, 5, 2048, Engine::Compiled),
        );
        assert!(e8 > 0.0);
        assert!(
            e16 > 1.6 * e8,
            "16-bit adder should burn ~2x: {e16} vs {e8}"
        );
    }

    #[test]
    fn power_conversion_units() {
        // 100 fJ per op at 1 GHz = 100 µW.
        assert!((dynamic_power_uw(100.0, 1.0) - 100.0).abs() < 1e-9);
        // 100 µW for 1000 ps = 100 fJ.
        assert!((power_delay_product_fj(100.0, 1000.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different netlist")]
    fn mismatched_activity_panics() {
        let lib = Library::generic_90nm();
        let n8 = adder(8);
        let n16 = adder(16);
        let act = random_activity_with_engine(&n8, 5, 64, Engine::Compiled);
        let _ = dynamic_energy_fj_per_op(&n16, &lib, &act);
    }
}
